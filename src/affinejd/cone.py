"""Self-dual cone structure: the cone order and order/interior checks for
Riccati solutions of models whose state space is a self-dual cone.

Supported cones: the nonnegative orthant ``Canonical(p, p)``, the PSD cone
in scaled half-vectorized coordinates (where the Euclidean inner product
equals the trace product), and the Lorentz cone. All three are self-dual for
the Euclidean inner product in these coordinates; each state space carries
its own ``self_dual`` flag and boundary function ``phi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedFamily, UnsupportedSpace, _check_positive, _check_vector
from .jumps import FiniteAtomic
from .riccati import REL_TOL, solve_riccati


def _cone_space(model):
    """The model's state space, which must be a supported self-dual cone."""
    space = model.state_space
    if not space.self_dual:
        raise UnsupportedSpace(f"state space {space!r} is not a supported self-dual cone")
    return space


def cone_leq(space, u, v, tol=0.0):
    """The cone order: u <= v iff v - u lies in the state space."""
    u = _check_vector(space, u, "u")
    v = _check_vector(space, v, "v")
    return space.contains(v - u, tol=tol)


@dataclass
class ConeCheckResult:
    passed: bool
    slack_tol: float
    psi0_margin: Optional[float] = None  # min of psi0(v) - psi0(u) over the grid
    cone_slack: Optional[float] = None  # max distance to the cone over the grid
    min_phi: Optional[float] = None
    diagnostic: Optional[str] = None

    def __bool__(self):
        return self.passed


def _slack_tol(scale):
    return 100.0 * REL_TOL * (1.0 + scale)


def monotonicity_check(model, u, v, t):
    """For u <= v (cone order), both in -E: the solutions must satisfy
    psi0(s,u) <= psi0(s,v) and psi(s,u) <= psi(s,v) at nine evenly spaced
    times up to t, within a slack of 100 x REL_TOL on the cone-membership
    distance."""
    space = _cone_space(model)
    t = _check_positive(t, "t")
    u = _check_vector(model, u, "u")
    v = _check_vector(model, v, "v")
    if not (space.contains(-u, tol=1e-12) and space.contains(-v, tol=1e-12)):
        raise ValueError("u and v must lie in -E")
    if not cone_leq(space, u, v, tol=1e-12):
        raise ValueError("u must precede v in the cone order")
    sol_u = solve_riccati(model, u, t)
    sol_v = solve_riccati(model, v, t)
    if sol_u.exploded or sol_v.exploded:
        return ConeCheckResult(False, _slack_tol(1.0), diagnostic="solution exploded before t")
    grid = np.linspace(0.0, t, 10)[1:]
    psi0_margin = np.inf
    cone_slack = 0.0
    scale = 1.0
    for s in grid:
        p0u, pu = sol_u.eval(s)
        p0v, pv = sol_v.eval(s)
        psi0_margin = min(psi0_margin, p0v.real - p0u.real)
        diff = pv.real - pu.real
        cone_slack = max(cone_slack, space.distance(diff))
        scale = max(scale, float(np.linalg.norm(pu)), float(np.linalg.norm(pv)))
    tol = _slack_tol(scale)
    passed = psi0_margin >= -tol and cone_slack <= tol
    return ConeCheckResult(passed, tol, psi0_margin=float(psi0_margin), cone_slack=float(cone_slack))


def interior_preservation_check(model, u, t):
    """For Re u in -interior(E): the solution must keep its real part in
    -interior(E) at nine evenly spaced times up to t (within the cone slack)
    and must not explode."""
    space = _cone_space(model)
    t = _check_positive(t, "t")
    u = _check_vector(model, u, "u", real=False)
    if not space.interior_contains(-u.real):
        raise ValueError("Re u must lie in -interior(E)")
    sol = solve_riccati(model, u, t)
    if sol.exploded:
        return ConeCheckResult(False, _slack_tol(1.0), diagnostic="solution exploded before t")
    grid = np.linspace(0.0, t, 10)[1:]
    cone_slack = 0.0
    min_phi = np.inf
    scale = 1.0
    for s in grid:
        _, psi = sol.eval(s)
        w = -psi.real
        pw = space.project(w)
        cone_slack = max(cone_slack, float(np.linalg.norm(w - pw)))
        min_phi = min(min_phi, space.phi(pw))
        scale = max(scale, float(np.linalg.norm(psi)))
    tol = _slack_tol(scale)
    passed = cone_slack <= tol
    return ConeCheckResult(passed, tol, cone_slack=float(cone_slack), min_phi=float(min_phi))


def regularity_Lu_check(model, u):
    """Sum, for each state index i, the K^i atom weights whose u.z is more
    than 1e-9 away from a multiple of 2 pi; the check passes iff that vector
    of masses is strictly inside the cone."""
    space = _cone_space(model)
    u = _check_vector(model, u, "u")
    if any(meas is not None and not isinstance(meas, FiniteAtomic) for meas in model.K[1:]):
        raise UnsupportedFamily("regularity check needs finite atomic measures")
    rem = np.abs(np.remainder(model.jump_points @ u, 2.0 * np.pi))
    off_lattice = np.minimum(rem, 2.0 * np.pi - rem) > 1e-9
    masses = off_lattice @ model.jump_coefs[:, 1:]
    return bool(space.interior_contains(masses))
