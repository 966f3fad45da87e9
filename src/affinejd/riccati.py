"""The generalized Riccati system psi_i' = R_i(psi) in complex arithmetic.

R_i(y) = y.a^i + y.A^i y / 2 + integral of (exp(y.z) - 1 - y.z) K^i(dz);
the zeroth component psi_0 is carried as an ODE component (psi_0' = R_0(psi))
rather than reconstructed through logarithms, so it is continuous and free of
branch-cut ambiguity.

Integration uses an adaptive embedded Runge-Kutta pair (DOP853) with dense
output on the 2(p+1) real components of (psi_0, psi). Blow-up is declared
when |psi| crosses the configured radius and is localized by bisection on
the dense output; models with jump atoms get an additional stopping surface
well below the overflow threshold of exp, where the remaining time to the
true blow-up is far below the bracket width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from . import jumps as jumps_mod
from .errors import (
    DivergentIntegral,
    ExplosionBeforeHorizon,
    NonFiniteRHS,
    StepLimitExceeded,
)
from .model import _check_state, diffusion_at, require_in_space

# exp overflows near 709; stop integration with ample headroom.
_EXP_GUARD = 600.0


@dataclass
class SolverConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    r_max: float = 1e8
    max_steps: int = 100_000
    explosion_bracket_tol: float = 1e-8

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol, self.r_max, self.explosion_bracket_tol) <= 0:
            raise ValueError("solver tolerances and radius must be positive")
        if self.rel_tol >= 1.0:
            raise ValueError("rel_tol must be below 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


DEFAULT_CONFIG = SolverConfig()


def riccati_rhs(model, y):
    """(R_0(y), ..., R_p(y)) for a complex vector y of length p."""
    y = np.asarray(y, dtype=complex).ravel()
    p = model.dim
    if y.size != p:
        raise ValueError(f"argument has length {y.size}, expected {p}")
    out = np.empty(p + 1, dtype=complex)
    out[0] = model.a0_c @ y + 0.5 * (y @ model.A_c[0] @ y)
    out[1:] = model.aT_c @ y + 0.5 * np.einsum("i,kij,j->k", y, model.A_c[1:], y)
    for i, meas in enumerate(model.K):
        if meas is not None:
            out[i] += meas.exp_moment(y)
    return out


class RiccatiSolution:
    """Dense solution of the Riccati system from psi(0) = u, psi_0(0) = 0.

    ``verdict`` is "solved" (reached the horizon) or "exploded" (|psi|
    crossed the blow-up radius inside a bracket of relative width below the
    configured tolerance). ``eval(t)`` interpolates (psi_0(t), psi(t)) for
    any t up to the last solved time.
    """

    def __init__(self, u, grid, psi0, psi, verdict, horizon, bracket, dense, config):
        self.u = u
        self.grid = grid
        self.psi0 = psi0
        self.psi = psi
        self.verdict = verdict
        self.horizon = horizon
        self.bracket = bracket
        self._dense = dense
        self.config = config
        self.t_last = float(grid[-1])

    @property
    def exploded(self):
        return self.verdict == "exploded"

    def eval(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -1e-12) or np.any(t_arr > self.t_last * (1.0 + 1e-12) + 1e-300):
            raise ValueError(f"dense evaluator is valid on [0, {self.t_last}] only")
        y = self._dense(np.clip(t_arr, 0.0, self.t_last))
        m = 1 + self.u.size
        z = y[:m] + 1j * y[m:]
        if np.ndim(t) == 0:
            return complex(z[0]), z[1:]
        return z[0], z[1:].T

    def terminal(self):
        """(psi_0, psi) at the last solved time."""
        return self.eval(self.t_last)


def _pack(z):
    return np.concatenate([z.real, z.imag])


def _unpack(y, m):
    return y[:m] + 1j * y[m:]


def _make_events(model, cfg):
    """Terminal stopping surfaces: blow-up radius, exp-overflow guard for
    atom supports, and the integrability boundary of exponential rays."""
    p = model.dim
    m = p + 1

    def psi_of(y):
        return _unpack(y, m)[1:]

    def radius(t, y):
        return float(np.linalg.norm(psi_of(y))) - cfg.r_max

    radius.terminal = True
    radius.direction = 1
    events = [radius]
    kinds = ["radius"]

    support = []
    rays = []
    for meas in model.K:
        if meas is None:
            continue
        if isinstance(meas, jumps_mod.FiniteAtomic):
            support.append(meas.atoms)
        elif isinstance(meas, jumps_mod.TabulatedDensity):
            support.append(meas.nodes)
        elif isinstance(meas, jumps_mod.ExponentialRay):
            rays.append((meas.rate, meas.direction))
    if support:
        zs = np.vstack(support)

        def overflow(t, y):
            return float(np.max((zs @ psi_of(y)).real)) - _EXP_GUARD

        overflow.terminal = True
        overflow.direction = 1
        events.append(overflow)
        kinds.append("overflow")
    for rate, direction in rays:
        margin = max(1e-9 * rate, 1e-14)

        def ray_event(t, y, d=direction, bound=rate - margin):
            return float((d @ psi_of(y)).real) - bound

        ray_event.terminal = True
        ray_event.direction = 1
        events.append(ray_event)
        kinds.append("ray")
    return events, kinds


def _refine_bracket(dense_eval, event_fn, t_lo, t_event, cfg):
    """Bisect the event function on the dense output down to a bracket of
    relative width below explosion_bracket_tol."""
    t_hi = t_event
    target = 0.25 * cfg.explosion_bracket_tol * max(t_event, 1e-300)
    while t_hi - t_lo > target:
        mid = 0.5 * (t_lo + t_hi)
        if event_fn(mid, dense_eval(mid)) < 0.0:
            t_lo = mid
        else:
            t_hi = mid
    upper = t_event * (1.0 + 0.25 * cfg.explosion_bracket_tol)
    return t_lo, upper


def solve_riccati(model, u, horizon, cfg: Optional[SolverConfig] = None):
    """Integrate the Riccati system from psi(0) = u on [0, horizon].

    Returns a RiccatiSolution whose verdict is "solved" if |psi| stays below
    cfg.r_max, and "exploded" with a blow-up bracket otherwise. Raises
    DivergentIntegral if psi reaches the integrability boundary of an
    exponential-ray measure before blowing up.
    """
    cfg = cfg or DEFAULT_CONFIG
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    u = np.asarray(u, dtype=complex).ravel()
    p = model.dim
    if u.size != p:
        raise ValueError(f"initial condition has length {u.size}, expected {p}")
    m = p + 1

    # Fails fast (DivergentIntegral) when the integral is undefined at u.
    riccati_rhs(model, u)

    budget = {"nfev": 0}
    limit = cfg.max_steps * 20

    def rhs(t, y):
        budget["nfev"] += 1
        if budget["nfev"] > limit:
            raise StepLimitExceeded(f"exceeded {cfg.max_steps} steps at t={t:.6g}")
        z = _unpack(y, m)
        with np.errstate(over="ignore", invalid="ignore"):
            dz = riccati_rhs(model, z[1:])
        if not np.isfinite(dz).all():
            raise NonFiniteRHS(f"Riccati right-hand side is non-finite at t={t:.6g}")
        return _pack(dz)

    events, kinds = _make_events(model, cfg)
    y0 = _pack(np.concatenate([[0.0 + 0.0j], u]))
    sol = solve_ivp(
        rhs,
        (0.0, float(horizon)),
        y0,
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        dense_output=True,
        events=events,
    )
    grid = sol.t
    ys = sol.y
    psi0 = ys[0] + 1j * ys[m]
    psi = (ys[1:m] + 1j * ys[m + 1:]).T
    # The stored endpoint values are exact by construction of the solver.
    psi0[0] = 0.0
    psi[0] = u

    if sol.status == 0:
        return RiccatiSolution(
            u, grid, psi0, psi, "solved", float(horizon), None, sol.sol, cfg
        )

    if sol.status == -1:
        # Super-exponential blow-up outruns every stopping surface: the
        # remaining time to any radius drops below float resolution and the
        # step size underflows at the blow-up time itself. Declare blow-up
        # when the right-hand side dwarfs the state; otherwise report the
        # stall honestly.
        t_end = float(grid[-1])
        psi_end = psi[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            r_end = riccati_rhs(model, psi_end)
        r_norm = float(np.linalg.norm(r_end))
        scale = 1.0 + float(np.linalg.norm(psi_end))
        if not np.isfinite(r_norm) or r_norm * max(t_end, 1e-12) > 1e10 * scale:
            half = 0.25 * cfg.explosion_bracket_tol * t_end
            bracket = (t_end - half, t_end + half)
            return RiccatiSolution(u, grid, psi0, psi, "exploded", None, bracket, sol.sol, cfg)
        raise StepLimitExceeded(f"integrator stalled at t={t_end:.6g}: {sol.message}")

    # The terminating event is the chronologically last recorded root.
    fired = [(k, float(te[-1])) for k, te in enumerate(sol.t_events) if te.size > 0]
    k_term, t_event = max(fired, key=lambda kt: kt[1])
    kind = kinds[k_term]
    if kind == "ray":
        raise DivergentIntegral(
            f"psi reached the integrability boundary of an exponential ray at t={t_event:.9g}"
        )
    t_prev = float(grid[-2]) if grid.size > 1 else 0.0
    t_lo, t_hi = _refine_bracket(sol.sol, events[k_term], t_prev, t_event, cfg)
    return RiccatiSolution(u, grid, psi0, psi, "exploded", None, (t_lo, t_hi), sol.sol, cfg)


@dataclass
class ExplosionResult:
    """Outcome of explosion probing up to a horizon."""

    kind: str  # "finite" | "exceeds_horizon"
    t_max: float
    estimate: Optional[float] = None
    bracket: Optional[tuple] = None

    @property
    def finite(self):
        return self.kind == "finite"


def explosion_time(model, u, t_max, cfg: Optional[SolverConfig] = None):
    """Locate the blow-up time of psi(., u) if it occurs before t_max.

    Returns ExplosionResult("finite", estimate, bracket) when |psi| crossed
    the blow-up radius, and ExplosionResult("exceeds_horizon") otherwise; in
    the latter case the true blow-up time may still be finite beyond t_max.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    sol = solve_riccati(model, u, t_max, cfg)
    if not sol.exploded:
        return ExplosionResult("exceeds_horizon", t_max=float(t_max))
    lo, hi = sol.bracket
    return ExplosionResult(
        "finite", t_max=float(t_max), estimate=0.5 * (lo + hi), bracket=(lo, hi)
    )


def mean_flow(model, x, t):
    """E_x X_t: the flow of the linear ODE x' = b(x) = a^0 + a x, computed
    through the matrix exponential of the augmented (p+1) system on (1, x)."""
    x = _check_state(model, x)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    p = model.dim
    aug = np.zeros((p + 1, p + 1))
    aug[1:, 0] = model.a0
    aug[1:, 1:] = model.a
    vec = np.concatenate([[1.0], x])
    return (expm(aug * t) @ vec)[1:]


def k_eval(model, x, y):
    """k(x, y) = y.c(x) y / 2 + integral of (exp(y.z) - 1 - y.z) K(x, dz);
    nonnegative for admissible models and real y."""
    x = require_in_space(model, x)
    y = np.asarray(y, dtype=float).ravel()
    if y.size != model.dim:
        raise ValueError(f"argument has length {y.size}, expected {model.dim}")
    val = 0.5 * float(y @ diffusion_at(model, x) @ y)
    coeffs = np.concatenate([[1.0], x])
    for i, meas in enumerate(model.K):
        if meas is not None and coeffs[i] != 0.0:
            val += coeffs[i] * meas.exp_moment(y.astype(complex)).real
    return val


def flow_identity_residual(model, u, s, t, cfg: Optional[SolverConfig] = None):
    """Residual of the semigroup property psi(t+s, u) = psi(t, psi(s, u)) and
    psi_0(t+s, u) = psi_0(s, u) + psi_0(t, psi(s, u))."""
    if s < 0.0 or t <= 0.0:
        raise ValueError("need s >= 0 and t > 0")
    sol = solve_riccati(model, u, s + t, cfg)
    if sol.exploded:
        raise ExplosionBeforeHorizon(f"psi explodes inside [0, {s + t}] (bracket {sol.bracket})")
    psi0_st, psi_st = sol.eval(s + t)
    psi0_s, psi_s = sol.eval(s)
    sol2 = solve_riccati(model, psi_s, t, cfg)
    if sol2.exploded:
        raise ExplosionBeforeHorizon("restarted solution explodes before t")
    psi0_2, psi_2 = sol2.eval(t)
    return max(
        float(np.linalg.norm(psi_st - psi_2)),
        abs(psi0_st - psi0_s - psi0_2),
    )


def variation_of_constants_residual(
    model, u, x, t, cfg: Optional[SolverConfig] = None, quad_tol=1e-9
):
    """Absolute difference between psi_0(t,u) + psi(t,u).x and
    u.E_x X_t + integral over [0,t] of k(E_x X_{t-s}, psi(s,u)) ds, with the
    right side computed by adaptive quadrature against the dense solution."""
    u = np.asarray(u, dtype=float).ravel()
    x = require_in_space(model, x)
    if t <= 0.0:
        raise ValueError("t must be positive")
    sol = solve_riccati(model, u.astype(complex), t, cfg)
    if sol.exploded:
        raise ExplosionBeforeHorizon(f"psi explodes before t={t} (bracket {sol.bracket})")
    psi0_t, psi_t = sol.eval(t)
    lhs = psi0_t.real + float(psi_t.real @ x)

    space = model.state_space

    def integrand(s):
        m_ts = space.project(mean_flow(model, x, t - s))
        _, psi_s = sol.eval(s)
        return k_eval(model, m_ts, psi_s.real)

    # psi is largest near s = t; seed the subdivision there.
    pts = (0.9 * t, 0.99 * t)
    integral, _ = quad(
        integrand, 0.0, t, epsabs=quad_tol, epsrel=quad_tol, points=pts, limit=200
    )
    rhs = float(u @ mean_flow(model, x, t)) + integral
    return abs(lhs - rhs)


def ode_residual(model, sol: RiccatiSolution):
    """Max over grid midpoints of |d/dt psi - R(psi)| measured on the dense
    interpolant; a consistency diagnostic for the integrator."""
    if sol.grid.size < 2:
        return 0.0
    res = 0.0
    h = 1e-6 * max(1.0, sol.t_last)
    for k in range(sol.grid.size - 1):
        tm = 0.5 * (sol.grid[k] + sol.grid[k + 1])
        if tm - h < 0.0 or tm + h > sol.t_last:
            continue
        psi0_p, psi_p = sol.eval(tm + h)
        psi0_m, psi_m = sol.eval(tm - h)
        d = np.concatenate([[(psi0_p - psi0_m)], psi_p - psi_m]) / (2.0 * h)
        _, psi_mid = sol.eval(tm)
        rhs = riccati_rhs(model, psi_mid)
        res = max(res, float(np.max(np.abs(d - rhs))))
    return res


def solution_to_csv(sol: RiccatiSolution):
    """CSV rows (t, Re psi0, Im psi0, Re psi_1..p, Im psi_1..p)."""
    p = sol.u.size
    header = ["t", "re_psi0", "im_psi0"]
    for i in range(1, p + 1):
        header += [f"re_psi_{i}", f"im_psi_{i}"]
    lines = [",".join(header)]
    for k, t in enumerate(sol.grid):
        row = [repr(float(t)), repr(float(sol.psi0[k].real)), repr(float(sol.psi0[k].imag))]
        for i in range(p):
            row += [repr(float(sol.psi[k, i].real)), repr(float(sol.psi[k, i].imag))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
