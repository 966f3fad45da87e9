"""Affine parameter sets on convex state spaces and sampled admissibility.

A model collects the drift vectors a^0..a^p, the symmetric diffusion
matrices A^0..A^p, and the jump measures K^0..K^p that make the drift
b(x) = a^0 + sum_i a^i x_i, the diffusion c(x) = A^0 + sum_i A^i x_i, and
the jump kernel K(x, dz) = K^0(dz) + sum_i K^i(dz) x_i affine in the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jumps as jumps_mod
from .errors import (
    DimensionMismatch,
    DivergentIntegral,
    ModelFormatError,
    StateSpaceMismatch,
    UnsupportedFamily,
    _check_count,
    _check_positive,
    _check_vector,
    finite_floats,
)
from .statespace import StateSpace

_SYM_TOL = 1e-12
_SPACE_TOL = 1e-9  # how far outside E require_in_space accepts a point
_K_TOL = 1e-9  # how far below 0 check_admissibility accepts a sampled k(x, y)
_K_SAMPLES = 16


class AffineModel:
    """Immutable affine parameter set (a^i, A^i, K^i) with a state space.
    The arrays it holds are its own and read-only, so a hash of the model
    taken after construction reads the model as built; its jump measures
    and state space are the caller's objects, not to be changed in place."""

    noun = "model"

    def __init__(self, a0, a, A, K, state_space: StateSpace):
        self.a0 = finite_floats(a0, "a0").ravel()
        self.dim = self.a0.size
        p = self.dim
        # Columns of `a` are the linear drift vectors a^1..a^p.
        self.a = finite_floats(a, "a").reshape(p, p)
        self.A = finite_floats(A, "A")
        if self.A.shape != (p + 1, p, p):
            raise DimensionMismatch(
                f"A must hold p+1={p+1} matrices of shape ({p},{p}), got {self.A.shape}"
            )
        for i, mat in enumerate(self.A):
            if np.max(np.abs(mat - mat.T)) > _SYM_TOL:
                raise ModelFormatError(f"A^{i} is not symmetric to within {_SYM_TOL}")
        # Exact symmetry below keeps diffusion_at exactly symmetric.
        self.A = 0.5 * (self.A + self.A.transpose(0, 2, 1))
        if np.linalg.eigvalsh(self.A[0]).min() < -1e-12:
            raise ModelFormatError("A^0 must be positive semi-definite")
        if K is None:
            K = [None] * (p + 1)
        if not isinstance(K, (list, tuple)):
            raise ModelFormatError(f"K must list p+1={p+1} measures (None allowed), not {type(K).__name__}")
        K = list(K)
        if len(K) != p + 1:
            raise DimensionMismatch(f"K must list p+1={p+1} measures (None allowed), got {len(K)}")
        for i, meas in enumerate(K):
            if meas is not None and meas.dim != p:
                raise DimensionMismatch(f"K^{i} lives in dimension {meas.dim}, model has {p}")
        self.K = tuple(K)
        if state_space.dim != p:
            raise DimensionMismatch(
                f"state space has dimension {state_space.dim}, parameters have {p}"
            )
        self.state_space = state_space
        self._compile_jumps()
        # The coefficients of riccati.riccati_rhs cast to complex once; row i
        # of rhs_linear, rhs_quadratic and rhs_coefs belongs to R_i. Points
        # with weight in K^1..p reach psi; those of K^0 alone (rhs_points0,
        # weights rhs_coefs0) feed R_0 alone.
        self.rhs_linear = np.vstack([self.a0, self.a.T]).astype(complex)
        self.rhs_quadratic = (0.5 * self.A).astype(complex)
        reach = np.any(self.jump_coefs[:, 1:] != 0.0, axis=1)
        self.rhs_points = self.jump_points[reach].astype(complex)
        self.rhs_coefs = self.jump_coefs[reach].T.astype(complex, order="C")
        self.rhs_points0 = self.jump_points[~reach].astype(complex)
        self.rhs_coefs0 = self.jump_coefs[~reach, 0].astype(complex)
        arrays = [self.a0, self.a, self.A, self.jump_points, self.jump_coefs, self.jump_mean,
                  self.jump_mass, self.rhs_linear, self.rhs_quadratic, self.rhs_points,
                  self.rhs_coefs, self.rhs_points0, self.rhs_coefs0]
        for _, direction, coef in self.jump_rays:
            arrays += [direction, coef]
        for arr in arrays:
            arr.flags.writeable = False

    def _compile_jumps(self):
        """The jump table: every source of K(x, dz) = K^0 + sum_i x_i K^i
        with its weight in K^i in column i, so that its weight at x is
        coef[0] + coef[1:] @ x.

        ``jump_points`` (J, p) and ``jump_coefs`` (J, p+1) hold the weighted
        points of every measure; points that agree to 12 decimals share a
        row, at the location where they first appear. ``jump_rays`` lists
        (rate, direction, coef) for the exponential rays, grouped by rate and
        direction. ``jump_mean`` (p+1, p) holds integral z K^i(dz) and
        ``jump_mass`` (p+1,) the mass of K^i.
        """
        p = self.dim
        self.jump_mean = np.zeros((p + 1, p))
        self.jump_mass = np.zeros(p + 1)
        self.jump_rays = []
        ray_rows = {}
        points, weights, columns = [], [], []
        for i, meas in enumerate(self.K):
            if isinstance(meas, jumps_mod.WeightedPoints):
                points.append(meas.atoms)
                weights.append(meas.weights)
                columns.append(np.full(meas.weights.size, i))
                # A mass past float range reads inf, which simulation refuses
                # with IntensityInfinite.
                with np.errstate(over="ignore"):
                    self.jump_mean[i] = meas.weights @ meas.atoms
                    self.jump_mass[i] = np.sum(meas.weights)
            elif isinstance(meas, jumps_mod.ExponentialRay):
                key = (round(meas.rate, 12), tuple(np.round(meas.direction, 12)))
                if key not in ray_rows:
                    ray_rows[key] = len(self.jump_rays)
                    self.jump_rays.append((meas.rate, meas.direction.copy(), np.zeros(p + 1)))
                self.jump_rays[ray_rows[key]][2][i] += meas.mass
                self.jump_mean[i] = (meas.mass / meas.rate) * meas.direction
                self.jump_mass[i] = meas.mass
            elif meas is not None:
                raise UnsupportedFamily(f"cannot tabulate jump family '{meas.family}'")
        if not points:
            self.jump_points = np.zeros((0, p))
            self.jump_coefs = np.zeros((0, p + 1))
            return
        points = np.vstack(points)
        # np.unique sorts stably: first holds where each group of points
        # equal to 12 decimals first appears, and rows follow that order.
        _, first, group = np.unique(
            np.round(points, 12), axis=0, return_index=True, return_inverse=True
        )
        by_appearance = np.argsort(first)
        self.jump_points = points[first[by_appearance]]
        # bincount sums the weights of a row in order of appearance.
        cells = np.argsort(by_appearance)[group.ravel()] * (p + 1) + np.concatenate(columns)
        self.jump_coefs = np.bincount(
            cells, weights=np.concatenate(weights), minlength=first.size * (p + 1)
        ).reshape(first.size, p + 1)

    def jump_weights(self, xs):
        """Unclipped weight of each jump source at each row of ``xs``: the
        rows of the jump table, then its rays."""
        cols = [self.jump_coefs[:, 0] + xs @ self.jump_coefs[:, 1:].T]
        cols += [(coef[0] + xs @ coef[1:])[:, None] for _, _, coef in self.jump_rays]
        return np.hstack(cols)

    @property
    def has_jumps(self):
        return any(meas is not None for meas in self.K)

    def __eq__(self, other):
        if not isinstance(other, AffineModel):
            return NotImplemented
        return (
            np.array_equal(self.a0, other.a0)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.A, other.A)
            and self.K == other.K
            and self.state_space == other.state_space
        )

    def __repr__(self):
        return (
            f"AffineModel(dim={self.dim}, jumps={self.has_jumps}, "
            f"space={self.state_space!r})"
        )


def require_in_space(model, x):
    x = _check_vector(model, x, "state", finite=False)
    if not model.state_space.contains(x, tol=_SPACE_TOL):
        raise StateSpaceMismatch(f"point {x} is not in the state space")
    return x


def drift_at(model, x):
    """b(x) = a^0 + sum_i a^i x_i."""
    x = _check_vector(model, x, "x")
    return model.a0 + model.a @ x


def diffusion_at(model, x):
    """c(x) = A^0 + sum_i A^i x_i; exactly symmetric."""
    x = _check_vector(model, x, "x")
    return model.A[0] + np.tensordot(x, model.A[1:], axes=(0, 0))


def k_eval(model, x, y):
    """k(x, y) = y.c(x) y / 2 + sum_j w_j(x) I_j(y) over the sources of the
    jump table: w_j(x) the weight at x, I_j(y) the integral of (exp(y.z) - 1
    - y.z) at unit weight; nonnegative for admissible models and real y.
    Sources of zero weight at x are skipped (a ray in K^i at x_i = 0)."""
    x = require_in_space(model, x)
    y = _check_vector(model, y, "y")
    val = 0.5 * float(y @ diffusion_at(model, x) @ y)
    weights = model.jump_weights(x[None, :])[0]
    n_points = len(model.jump_points)
    live = np.flatnonzero(weights[:n_points])
    if live.size:
        e = model.jump_points[live] @ y
        val += float(np.sum(weights[live] * (np.expm1(e) - e)))
    for w, (rate, direction, _) in zip(weights[n_points:].tolist(), model.jump_rays):
        if w:
            val += jumps_mod.ray_moment(w, rate, complex(direction @ y)).real
    jumps_mod.check_tails(model.K, y[None, :])
    return val


def in_U(space, u):
    """True iff sup over the state space of Re(u).x is finite."""
    return space.bounded_support(_check_vector(space, u, "u", real=False).real)


def exponential_moment_condition(model):
    """Per measure K^i: whether exp(k.z) is integrable over the tail for
    every real k, that is, whether no exponential ray of the jump table has
    mass in K^i (weighted points have compact support)."""
    return [not any(coef[i] for _, _, coef in model.jump_rays) for i in range(model.dim + 1)]


@dataclass
class AdmissibilityReport:
    """Outcome of the sampled admissibility check (not a proof)."""

    sampled_points: list
    min_eigen_c: float
    min_jump_weight: float
    support_violations: list
    k_min: float  # least sampled k(x, y); inf where none was sampled
    tol: float
    n_samples: int
    seed: int
    argmin_eigen_x: object = None  # sampled state attaining min_eigen_c

    @property
    def verdict(self):
        return (
            self.min_eigen_c >= -self.tol
            and self.min_jump_weight >= -self.tol
            and not self.support_violations
            and self.k_min >= -_K_TOL
        )


def _sample_states(space, n_samples, rng):
    """Interior and boundary points: Gaussian clouds projected onto the
    space, plus clouds pushed outward so projections land on the boundary."""
    p = space.dim
    n_rem = max(n_samples - 2, 0)
    n_in = n_rem // 2
    n_far = (n_rem - n_in) // 2
    n_out = n_rem - n_in - n_far
    draws = np.vstack([
        np.zeros((1, p)),
        np.ones((1, p)),
        rng.normal(size=(n_in, p)) * 1.5,
        rng.normal(size=(n_far, p)) * 4.0,
        -np.abs(rng.normal(size=(n_out, p))) * 2.0,
    ])
    return space.project_batch(draws[:n_samples])


def check_admissibility(model, n_samples=200, seed=0, tol=1e-10):
    """Sample states from E and check that c(x) is positive semi-definite,
    the combined jump weights are nonnegative and jump supports stay in E;
    where they pass, also that k(x, y) is nonnegative at _K_SAMPLES pairs of
    a projected Gaussian x and a Gaussian y (a y past a ray's rate is
    skipped)."""
    n_samples = _check_count(n_samples, "n_samples", 1)
    seed = _check_count(seed, "seed", 0)
    tol = _check_positive(tol, "tol", zero_ok=True)
    rng = np.random.default_rng(seed)
    space = model.state_space
    xs = _sample_states(space, n_samples, rng)

    eigs = np.linalg.eigvalsh(model.A[0] + np.tensordot(xs, model.A[1:], axes=(1, 0)))[:, 0]
    k = int(np.argmin(eigs))
    weights = model.jump_weights(xs)
    # The weighted points, and the median and upper-tail quantiles of the
    # jump length along each ray.
    lengths = -np.log(np.array([0.5, 0.1, 0.01]))
    closure = np.vstack(
        [model.jump_points] + [(lengths / rate)[:, None] * d for rate, d, _ in model.jump_rays]
    )
    margins = space._margin_rows((xs[:, None, :] + closure).reshape(-1, model.dim))
    outside = ~(margins.reshape(len(xs), len(closure)) >= -1e-9)
    violations = [(xs[i].copy(), closure[j].copy()) for i, j in np.argwhere(outside)[:20]]

    report = AdmissibilityReport(
        sampled_points=list(xs),
        min_eigen_c=float(eigs[k]),
        min_jump_weight=float(weights.min()) if weights.size else math.inf,
        support_violations=violations,
        k_min=math.inf,
        tol=tol,
        n_samples=len(xs),
        seed=seed,
        argmin_eigen_x=xs[k].copy(),
    )
    if report.verdict:  # k is sampled where the other checks pass
        for _ in range(_K_SAMPLES):
            x = space.project(rng.normal(size=model.dim) * 1.5)
            y = rng.normal(size=model.dim)
            try:
                report.k_min = min(report.k_min, k_eval(model, x, y))
            except DivergentIntegral:
                pass
    return report
