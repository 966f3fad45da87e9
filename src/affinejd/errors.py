"""Exception types shared across the package, the check of numeric fields
that raises ModelFormatError, and the one rule for every argument that a
library entry point reads as a number: a vector goes through
``_check_vector``, a time, scale or tolerance through ``_check_positive``
and a count, size or seed through ``_check_count``. Each names the argument
in a ValueError, and none reads a bool or a string as a number."""

import cmath
import math

import numpy as np


class AffineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(AffineError, ValueError):
    """A vector or matrix argument has the wrong shape for the model."""


class DivergentIntegral(AffineError):
    """The exponential-compensator integral does not converge at the
    requested argument (e.g. Re(y.d) >= rate on an exponential ray)."""


class UnsupportedFamily(AffineError):
    """The operation is not defined for this jump-measure family."""


class UnsupportedSpace(AffineError):
    """The operation is not defined for this state-space family."""


class StateSpaceMismatch(AffineError, ValueError):
    """A point that must lie in the state space does not."""


class ModelFormatError(AffineError, ValueError):
    """A model file or record does not match the schema; the message
    names the offending field."""


class StepLimitExceeded(AffineError):
    """The ODE integrator exceeded its step budget."""


class NonFiniteRHS(AffineError):
    """The Riccati right-hand side evaluated to a non-finite value."""


class ExplosionBeforeHorizon(AffineError):
    """The Riccati solution exploded before the requested horizon."""


class IntensityInfinite(AffineError):
    """The total jump intensity is not a finite number, or is too large to
    draw: an Euler step refuses more than 2**22 expected jumps per block of
    paths."""


class PathOverflow(AffineError):
    """An Euler step carried the state of a path out of float range."""


class NegativeJumpWeight(AffineError, ValueError):
    """A jump measure has a negative weight, so it is no intensity to
    simulate from."""


class CholeskyFailure(AffineError):
    """The diffusion matrix is indefinite beyond the clipping tolerance."""


class QuadratureTailWarning(UserWarning):
    """A tabulated-density grid appears too short for the integrand."""


def finite_floats(value, field, shape=None):
    """``value`` as a new float array. Raises ModelFormatError naming
    ``field`` where the entries do not form an array (of ``shape``, if
    given), or where one is null, not a real number (a string or a bool) or
    not finite."""
    try:
        raw = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ModelFormatError(f"{field}: the entries do not form an array") from exc
    if raw.dtype.kind not in "iuf":
        raise ModelFormatError(f"{field}: every entry must be a number, not null, a string or a bool")
    if shape is not None and raw.shape != shape:
        raise ModelFormatError(f"{field}: expected shape {shape}, got {raw.shape}")
    arr = raw.astype(float)
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"{field}: every entry must be finite")
    return arr


def _check_vector(owner, v, name, real=True, finite=True):
    """The argument ``name`` as a vector of ``owner.dim`` floats, or complex
    numbers where not ``real``; ``owner`` is a model, a state space or a
    jump measure, which DimensionMismatch names by its ``noun`` for a wrong
    length. ValueError names the argument for an entry that is no number,
    not finite (a state's space names it, so a state passes
    ``finite=False``) or, where ``real``, not real."""
    v = np.asarray(v).ravel()
    if v.size != owner.dim:
        raise DimensionMismatch(f"{name} has length {v.size}, the {owner.noun} has dimension {owner.dim}")
    if v.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold numbers")
    if finite and not all(map(cmath.isfinite, v.tolist())):
        raise ValueError(f"{name} must be finite")
    if real and v.dtype.kind == "c" and v.imag.any():
        raise ValueError(f"{name} must be real")
    return v.real.astype(float, copy=False) if real else v.astype(complex, copy=False)


def _check_positive(value, name, zero_ok=False):
    """The time, scale or tolerance ``name`` as a float, if it is a real
    number, not a bool, that is finite and positive (or zero, where
    ``zero_ok``); ValueError names it otherwise."""
    try:
        if (not isinstance(value, (bool, np.bool_)) and (0.0 <= value if zero_ok else 0.0 < value)
                and value < math.inf):
            return float(value)
    except TypeError:  # a complex number, or no number
        pass
    raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and finite")


def _check_count(value, name, minimum, error=ValueError):
    """The count, size or seed ``name`` as an int, if it is a Python or numpy
    integer, not a bool, of at least ``minimum``; ``error`` (ModelFormatError
    for a record field) names it otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise error(f"{name} must be an integer at least {minimum}")
