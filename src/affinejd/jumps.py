"""Jump-measure families and the exponential-compensator integral
integral of (exp(y.z) - 1 - y.z) against each measure.

Three families are supported so that both the integral and path simulation
are exact or controllably approximate: finite atomic measures, exponential
densities along a ray, and tabulated densities on a fixed grid. Finite
atomic measures and tabulated densities are both weighted points
(``WeightedPoints``) and differ only in their JSON record and checks.

The measures describe themselves one by one; ``AffineModel`` compiles
K^0..K^p once into its jump table (weighted points and rays with their
coefficients in each K^i, plus each measure's mass and mean), which
simulation, the Riccati right-hand side, k_eval, the solver's stopping
surfaces, the cone regularity check, the exponential-moment condition and
the admissibility check read. The package calls exp_moment only in
``check_tails``, the tail warning of tabulated densities.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergentIntegral,
    ModelFormatError,
    QuadratureTailWarning,
    UnsupportedFamily,
    _check_count,
    _check_vector,
    finite_floats,
)


class JumpMeasure:
    family = "abstract"
    noun = "measure"
    dim = 0

    def exp_moment(self, y):
        """integral of (exp(y.z) - 1 - y.z) dK for complex y."""
        raise NotImplementedError

    def damped(self, n):
        """Multiply the density by exp(-|z|^2/n); returns the damped measure
        and the induced drift shift integral of z (exp(-|z|^2/n)-1) dK."""
        raise UnsupportedFamily(
            f"damping has no closed form for family '{self.family}'; tabulate first"
        )

    def scaled(self, n):
        """The pushforward measure (1/n) K(dz/n): mass w at z becomes w/n at n z."""
        raise UnsupportedFamily(f"scaling is only exact for finite atomic measures, not '{self.family}'")

    def to_dict(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, JumpMeasure) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_dict()})"


class WeightedPoints(JumpMeasure):
    """Finitely many weighted points: the atoms of a finite measure or the
    nodes of a quadrature rule, whose weights already include the rule."""

    def __init__(self, weights, atoms):
        self.weights = finite_floats(weights, f"{self.family}: weights").ravel()
        self.atoms = np.atleast_2d(finite_floats(atoms, f"{self.family}: points"))
        if self.atoms.ndim != 2:
            raise ModelFormatError(f"{self.family}: points must form a (count, dim) array, not {self.atoms.shape}")
        if self.atoms.shape[0] != self.weights.size:
            raise ModelFormatError(f"{self.family}: weights and points disagree in count")
        self.dim = self.atoms.shape[1]

    def _terms(self, y):
        e = self.atoms @ _check_vector(self, y, "y", real=False)
        return self.weights * (np.expm1(e) - e)

    def exp_moment(self, y):
        return complex(np.sum(self._terms(y)))

    def damped(self, n):
        factor = np.exp(-np.sum(self.atoms**2, axis=1) / n)
        shift = (self.weights * (factor - 1.0)) @ self.atoms
        return type(self)(self.weights * factor, self.atoms), shift


class FiniteAtomic(WeightedPoints):
    """Finitely many (possibly signed) point masses at nonzero atoms."""

    family = "finite_atomic"

    def __init__(self, weights, atoms):
        super().__init__(weights, atoms)
        if np.any(np.all(self.atoms == 0.0, axis=1)):
            raise ModelFormatError("finite_atomic: atoms must be nonzero vectors")

    def scaled(self, n):
        return FiniteAtomic(self.weights / n, self.atoms * n)

    def to_dict(self):
        return {
            "family": self.family,
            "atoms": [
                {"weight": float(w), "z": [float(v) for v in z]}
                for w, z in zip(self.weights, self.atoms)
            ],
        }


class ExponentialRay(JumpMeasure):
    """Density mass * rate * exp(-rate s) ds along z = s * direction, s > 0."""

    family = "exponential_ray"

    def __init__(self, mass, rate, direction):
        self.mass = float(finite_floats(mass, "exponential_ray: mass", ()))
        self.rate = float(finite_floats(rate, "exponential_ray: rate", ()))
        self.direction = finite_floats(direction, "exponential_ray: direction").ravel()
        if self.rate <= 0.0:
            raise ModelFormatError("exponential_ray: rate must be positive")
        nrm = np.linalg.norm(self.direction)
        if abs(nrm - 1.0) > 1e-9:
            raise ModelFormatError("exponential_ray: direction must be a unit vector")
        self.dim = self.direction.size

    def exp_moment(self, y):
        return ray_moment(self.mass, self.rate, complex(self.direction @ _check_vector(self, y, "y", real=False)))

    def tabulated(self, n_nodes=512):
        """Trapezoid discretization on a ray grid out to 40 mean jump lengths,
        for workflows (damping) that need an atom representation. Grid
        adequacy is the caller's responsibility; the integral warns when the
        tail looks truncated."""
        n_nodes = _check_count(n_nodes, "n_nodes", 2)
        s_max = 40.0 / self.rate
        s = np.linspace(s_max / n_nodes, s_max, n_nodes)
        dens = self.mass * self.rate * np.exp(-self.rate * s)
        w = np.full(n_nodes, s[1] - s[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return TabulatedDensity(dens * w, s[:, None] * self.direction[None, :])

    def to_dict(self):
        return {
            "family": self.family,
            "mass": float(self.mass),
            "rate": float(self.rate),
            "direction": [float(v) for v in self.direction],
        }


class TabulatedDensity(WeightedPoints):
    """Quadrature grid (node, weight); the weights already include the
    quadrature rule (e.g. trapezoid cell widths times density values). The
    nodes are held in ``atoms``."""

    family = "tabulated_density"

    def exp_moment(self, y):
        terms = self._terms(y)
        total = complex(np.sum(terms))
        if terms.size and abs(terms[-1]) > 1e-8 * max(abs(total), 1e-300):
            warnings.warn(
                "tabulated grid may be too short: last-node term is "
                f"{abs(terms[-1]):.3g} against total {abs(total):.3g}",
                QuadratureTailWarning,
                stacklevel=2,
            )
        return total

    def to_dict(self):
        return {
            "family": self.family,
            "weights": [float(w) for w in self.weights],
            "nodes": [[float(v) for v in z] for z in self.atoms],
        }


def ray_moment(mass, rate, a):
    """The integral for an exponential ray of this mass and rate at a y
    with y.direction = a (a complex): mass a^2 / (rate (rate - a))."""
    if a.real >= rate:
        raise DivergentIntegral(f"exp moment diverges on ray: Re(y.d)={a.real:.6g} >= rate={rate:.6g}")
    return mass * a * a / (rate * (rate - a))


def check_tails(measures, ys):
    """Evaluate the integral of every tabulated density among ``measures``
    once, at the row of ``ys`` where Re(last node . y) is largest, so that a
    grid too short for those arguments warns (QuadratureTailWarning)."""
    for meas in measures:
        if isinstance(meas, TabulatedDensity):
            meas.exp_moment(ys[int(np.argmax((ys @ meas.atoms[-1]).real))])


def measure_from_dict(rec, dim):
    if rec is None:
        return None
    if not isinstance(rec, dict) or "family" not in rec:
        raise ModelFormatError("jump measure record needs a 'family' tag")
    family = rec["family"]
    try:
        if family == "finite_atomic":
            atoms = rec["atoms"]
            m = FiniteAtomic([a["weight"] for a in atoms], [a["z"] for a in atoms])
        elif family == "exponential_ray":
            m = ExponentialRay(rec["mass"], rec["rate"], rec["direction"])
        elif family == "tabulated_density":
            m = TabulatedDensity(rec["weights"], rec["nodes"])
        else:
            raise ModelFormatError(f"unknown jump family '{family}'")
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed '{family}' record: {exc}") from exc
    if m.dim != dim:
        raise DimensionMismatch(f"jump measure lives in dimension {m.dim}, model has {dim}")
    return m

