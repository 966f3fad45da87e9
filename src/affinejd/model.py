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
from .errors import DimensionMismatch, ModelFormatError, StateSpaceMismatch
from .statespace import StateSpace

_SYM_TOL = 1e-12


class AffineModel:
    """Immutable affine parameter set (a^i, A^i, K^i) with a state space."""

    def __init__(self, a0, a, A, K, state_space: StateSpace):
        self.a0 = np.asarray(a0, dtype=float).ravel()
        self.dim = self.a0.size
        p = self.dim
        # Columns of `a` are the linear drift vectors a^1..a^p.
        self.a = np.asarray(a, dtype=float).reshape(p, p)
        self.A = np.asarray(A, dtype=float)
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
        # Complex Riccati coefficients, fused once so that the right-hand side
        # is R(y) = L y + (Q y) y + W (exp(Z y) - 1 - Z y) plus the integrals
        # of the remaining measures (see riccati.riccati_rhs). Row i of L, Q
        # and W belongs to R_i; Z stacks the atoms of every finite atomic
        # measure and W holds their weights in the rows of their indices.
        self.rhs_linear = np.vstack([self.a0, self.a.T]).astype(complex)
        self.rhs_quadratic = (0.5 * self.A).astype(complex)
        atomic = [(i, meas) for i, meas in enumerate(self.K)
                  if isinstance(meas, jumps_mod.FiniteAtomic)]
        self.rhs_atoms = None
        if atomic:
            self.rhs_atoms = np.vstack([meas.atoms for _, meas in atomic]).astype(complex)
            self.rhs_weights = np.zeros((p + 1, self.rhs_atoms.shape[0]), dtype=complex)
            start = 0
            for i, meas in atomic:
                self.rhs_weights[i, start:start + meas.weights.size] = meas.weights
                start += meas.weights.size
        # Tabulated densities warn on a truncated tail and exponential rays
        # raise DivergentIntegral, both depending on y: they keep exp_moment.
        self.rhs_integrals = tuple(
            (i, meas) for i, meas in enumerate(self.K)
            if meas is not None and not isinstance(meas, jumps_mod.FiniteAtomic)
        )

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


def _check_state(model, x):
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.dim:
        raise DimensionMismatch(f"state has length {x.size}, expected {model.dim}")
    return x


def require_in_space(model, x, tol=1e-9):
    x = _check_state(model, x)
    if not model.state_space.contains(x, tol=tol):
        raise StateSpaceMismatch(f"point {x} is not in the state space")
    return x


def drift_at(model, x):
    """b(x) = a^0 + sum_i a^i x_i."""
    x = _check_state(model, x)
    return model.a0 + model.a @ x


def diffusion_at(model, x):
    """c(x) = A^0 + sum_i A^i x_i; exactly symmetric."""
    x = _check_state(model, x)
    return model.A[0] + np.tensordot(x, model.A[1:], axes=(0, 0))


def in_U(space, u):
    """True iff sup over the state space of Re(u).x is finite."""
    u = np.asarray(u, dtype=complex).ravel()
    if u.size != space.dim:
        raise DimensionMismatch(f"argument has length {u.size}, expected {space.dim}")
    return space.bounded_support(u.real)


def exponential_moment_condition(model):
    """Per measure K^i: whether exp(k.z) is integrable over the tail for
    every real k. Missing measures satisfy the condition vacuously."""
    return [meas is None or meas.has_all_exponential_moments() for meas in model.K]


@dataclass
class AdmissibilityReport:
    """Outcome of the sampled admissibility check (not a proof)."""

    sampled_points: list
    min_eigen_c: float
    min_jump_weight: float
    support_violations: list
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
        )

    def summary(self):
        status = "pass" if self.verdict else "fail"
        return (
            f"admissibility {status}: min eig c = {self.min_eigen_c:.3e}, "
            f"min jump weight = {self.min_jump_weight:.3e}, "
            f"{len(self.support_violations)} support violations "
            f"({self.n_samples} samples, tol {self.tol:.1e})"
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
    return list(space.project_batch(draws[:n_samples]))


def check_admissibility(model, n_samples=200, seed=0, tol=1e-10):
    """Sample states from E and check that c(x) is positive semi-definite,
    the combined jump weights are nonnegative, and jump supports stay in E."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    space = model.state_space
    pts = _sample_states(space, n_samples, rng)

    locs, coefs, rays = jumps_mod.combined_sources(model.K)
    closure_points = []
    for meas in model.K:
        if meas is not None:
            closure_points.extend(meas.support_points())

    min_eig = math.inf
    min_weight = math.inf
    argmin_x = None
    violations = []
    for x in pts:
        eig = float(np.linalg.eigvalsh(diffusion_at(model, x)).min())
        if eig < min_eig:
            min_eig = eig
            argmin_x = x.copy()
        if coefs.size:
            w = coefs[:, 0] + coefs[:, 1:] @ x
            min_weight = min(min_weight, float(w.min()))
        for _, _, coef in rays:
            min_weight = min(min_weight, float(coef[0] + coef[1:] @ x))
        for z in closure_points:
            if not space.contains(x + z, tol=1e-9) and len(violations) < 20:
                violations.append((x.copy(), np.asarray(z, dtype=float).copy()))

    return AdmissibilityReport(
        sampled_points=pts,
        min_eigen_c=min_eig,
        min_jump_weight=min_weight,
        support_violations=violations,
        tol=tol,
        n_samples=len(pts),
        seed=seed,
        argmin_eigen_x=argmin_x,
    )
