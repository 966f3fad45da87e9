"""Exception types shared across the package."""


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
    """The total jump intensity is not a finite number."""


class NegativeJumpWeight(AffineError, ValueError):
    """A jump measure has a negative weight, so it is no intensity to
    simulate from."""


class CholeskyFailure(AffineError):
    """The diffusion matrix is indefinite beyond the clipping tolerance."""


class QuadratureTailWarning(UserWarning):
    """A tabulated-density grid appears too short for the integrand."""
