"""The generalized Riccati system psi_i' = R_i(psi) in complex arithmetic.

R_i(y) = y.a^i + y.A^i y / 2 + integral of (exp(y.z) - 1 - y.z) K^i(dz);
the zeroth component psi_0 is carried as an ODE component (psi_0' = R_0(psi))
rather than reconstructed through logarithms, so it is continuous and free of
branch-cut ambiguity. R and k_eval read the model's jump table (all weighted
points in one matrix product, a closed form per ray), so R costs a few small
array operations whatever the number of measures.

The integrator state packs the complex (psi_0, psi) as its interleaved real
view (Re psi_0, Im psi_0, Re psi_1, Im psi_1, ...), so the right-hand side
converts in both directions by zero-copy views.

Integration runs in two phases of one call, both driven by one stepping loop
(``_integrate``) over the DOP853 stepper of ``integrator``, the adaptive
embedded Runge-Kutta pair of order 8, which takes scipy's steps bit for bit
without importing scipy. Phase 1 integrates in t until the horizon or the
first accepted step end where |psi| >= r_sw = 30 (1 + |u|) (with r_sw at or
past the blow-up radius r_max, phase 1 stops at r_max). Phase 2 continues
from that step end in a new time s, with t - t_switch as the last state
component:

    d(psi_0, psi, t)/ds = g (R_0, R, 1),  g = 1 / (1 + |R(psi)| / (r_sw (1 + |psi|))),

a rescaled time for blow-up problems (Stuart & Floater, "On the computation
of blow-up", Eur. J. Appl. Math. 1990). |psi| then grows at most
exponentially in s while t creeps up to the blow-up time, so the integrator
takes even steps where phase 1 would reject most of its steps.

In both phases a trial stage where R is not finite or a ray's integral
diverges is NaN, so DOP853 rejects the step and shrinks it: a solve ends
where an accepted state meets a stopping surface or the step size underflows,
and NonFiniteRHS is raised only for R(u) at t = 0. The surfaces are the
blow-up radius r_max, an exp-overflow guard for models with jump atoms (well
below the overflow threshold of exp, where the remaining time to the true
blow-up is far below the bracket width), the integrability boundary of
exponential rays (just below each rate), and t = horizon.

The loop tests these surfaces on accepted step ends with the sign-change
rule of scipy's solve_ivp and root-finds only on the interpolant of the step
that crossed one. A step's interpolant (three extra stages) is built lazily,
on the first evaluation inside that step, and values at step ends are the
exact step ends: a solve read only at its horizon builds no interpolant.
Blow-up is localized by that root, in the crossing phase's own variable,
and reported in t as a bracket of relative width BRACKET_TOL / 2 around
it. The solution's grid and dense evaluator span both phases; a time inside a
phase-2 step is mapped to its s by Brent's method on that step's
interpolant of t(s).

scipy is imported only inside mean_flow (expm) and
variation_of_constants_residual (quad).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergentIntegral,
    ExplosionBeforeHorizon,
    NonFiniteRHS,
    StepLimitExceeded,
)
from .integrator import DOP853, TOO_SMALL_STEP, Steps, brentq, select_initial_step
from .jumps import check_tails, ray_moment
from .model import _check_vector, diffusion_at, require_in_space

# exp overflows near 709; stop integration with ample headroom.
_EXP_GUARD = 600.0

# Phase 1 hands over to the time-changed phase 2 at the first step end where
# |psi| >= _SWITCH_FACTOR * (1 + |u|).
_SWITCH_FACTOR = 30.0

# The ray event watches Re(d.psi) = rate (1 - _RAY_MARGIN), where the step
# size has not yet underflowed against the 1/(rate - d.psi) singularity of R.
_RAY_MARGIN = 1e-6


# The solver's fixed accuracy: DOP853's relative and absolute tolerances,
# the blow-up radius, the step limit (the right-hand-side budget is 20 calls
# per step), and the relative width of blow-up brackets.
REL_TOL = 1e-10
ABS_TOL = 1e-12
R_MAX = 1e8
MAX_STEPS = 100_000
BRACKET_TOL = 1e-8


def riccati_rhs(model, y):
    """(R_0(y), ..., R_p(y)) = (L + Q y) y + C^T (expm1(Z y) - Z y) + rays(y)
    for a complex vector y of length p, from the model's complex casts of L,
    Q and its jump table's weighted points Z and coefficients C; rays(y) is
    the closed form over the table's rays (DivergentIntegral past a rate)."""
    y = np.asarray(y, dtype=complex).ravel()
    if y.size != model.dim:  # inline rather than _check_vector: the solver's hot path
        raise DimensionMismatch(f"y has length {y.size}, the model has dimension {model.dim}")
    out = (model.rhs_linear + model.rhs_quadratic @ y) @ y
    if model.rhs_points.size:
        e = model.rhs_points @ y
        out += model.rhs_coefs @ (np.expm1(e) - e)
    for rate, direction, coef in model.jump_rays:
        out += coef * ray_moment(1.0, rate, complex(direction @ y))
    return out


@dataclass
class SolveStats:
    """What one solve did: right-hand-side calls, accepted steps in t
    (phase 1) and in the time-changed s (phase 2), rejected step attempts
    over both phases, and why it stopped: "horizon", "radius" (|psi| reached
    r_max), "overflow" (the exp guard of atom supports) or "step_underflow"
    (blow-up declared when the step size underflowed). Interpolants that
    eval builds after the solve are not counted in nfev."""

    nfev: int
    steps_t: int
    steps_s: int
    rejected: int
    stop_reason: str


class RiccatiSolution:
    """Dense solution of the Riccati system from psi(0) = u, psi_0(0) = 0.

    ``verdict`` is "solved" (reached the horizon) or "exploded" (|psi|
    crossed the blow-up radius R_MAX inside a bracket of relative width below
    BRACKET_TOL). ``eval(t)`` interpolates (psi_0(t), psi(t)) for any t up
    to the last solved time; ``grid`` holds the accepted times of both
    phases.
    """

    def __init__(self, u, grid, psi0, psi, verdict, bracket, dense, stats):
        self.u = u
        self.grid = grid
        self.psi0 = psi0
        self.psi = psi
        self.verdict = verdict
        self.bracket = bracket
        self._dense = dense
        self.stats = stats
        self.t_last = float(grid[-1])

    @property
    def exploded(self):
        return self.verdict == "exploded"

    def eval(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -1e-12) or np.any(t_arr > self.t_last * (1.0 + 1e-12) + 1e-300):
            raise ValueError(f"dense evaluator is valid on [0, {self.t_last}] only")
        y = np.empty((t_arr.size, 2 * (self.u.size + 1)))
        for i, s in enumerate(np.clip(t_arr, 0.0, self.t_last).flat):
            y[i] = self._dense(float(s))
        z = y.view(complex)
        if t_arr.ndim == 0:
            return complex(z[0, 0]), z[0, 1:]
        return z[:, 0], z[:, 1:]

    def terminal(self):
        """(psi_0, psi) at the last solved time."""
        return self.eval(self.t_last)


def _integrate(fun, x0, y0, x_bound, events, first_step=None, until=None):
    """Step DOP853 from x0 towards x_bound until it finishes, its step size
    underflows, a terminal event fires, or until(y) holds at an accepted
    step end. Events are tested on accepted step ends with solve_ivp's rule
    for direction +1 (g <= 0 at the step start and g >= 0 at its end); the
    run stops at the earliest root of the events that fired, found by brentq
    on that step's interpolant, and at the step end itself on until."""
    solver = DOP853(fun, x0, y0, x_bound, REL_TOL, ABS_TOL, first_step)
    run = Steps(fun, x0, y0)
    g = [event(x0, y0) for event in events]
    while True:
        accepted = solver.step()
        run.rejected = solver.rejected
        if not accepted:
            run.failed = True
            return run.finish()
        run.push(solver)
        g_new = [event(solver.t, solver.y) for event in events]
        active = [k for k, (lo, hi) in enumerate(zip(g, g_new)) if lo <= 0.0 <= hi]
        if active:
            k_last = run.n_steps - 1
            roots = [
                brentq(lambda x, ev=events[k]: ev(x, run.interpolate(k_last, x)), solver.t_old, solver.t)
                for k in active
            ]
            first = int(np.argmin(roots))
            run.stop_at(active[first], roots[first])
            return run.finish()
        if solver.finished or (until is not None and until(solver.y)):
            return run.finish()
        g = g_new


class _TimeChangedDense:
    """Dense output over both phases: the phase-1 run in t up to the switch
    time, then the phase-2 run in s at the s where its monotone last
    component t(s) - t_switch reaches t - t_switch."""

    def __init__(self, dense_t, dense_s, t_grid):
        self._dense_t = dense_t
        self._dense_s = dense_s
        self._t_grid = t_grid  # t at the phase-2 grid; t_grid[0] is the switch time

    def __call__(self, t):
        if t <= self._t_grid[0]:
            return self._dense_t(t)
        return self._dense_s(self._s_of(t))[:-1]

    def _s_of(self, t):
        """The s with t(s) = t, by Brent's method on the interpolant of the
        phase-2 step that holds t; a t on the grid is its grid point, and a t
        the interpolant does not reach in its step is the step end."""
        k = min(max(int(np.searchsorted(self._t_grid, t)), 1), self._t_grid.size - 1)
        hi = self._dense_s.x[k]
        if self._t_grid[k] == t:
            return hi
        t_switch = self._t_grid[0]

        def gap(s):
            return t_switch + self._dense_s.interpolate(k - 1, s)[-1] - t

        if gap(hi) <= 0.0:
            return hi
        return brentq(gap, self._dense_s.x[k - 1], hi)


def _make_events(model, radius):
    """Terminal stopping surfaces on a packed state whose first 2(p+1)
    components are the interleaved (psi_0, psi): the radius |psi| = radius,
    the exp-overflow guard on the weighted points of the model's jump table,
    and the integrability boundary of its exponential rays."""
    end = 2 * (model.dim + 1)

    def radius_event(x, y):
        return float(np.linalg.norm(y[2:end])) - radius

    events = [radius_event]
    kinds = ["radius"]

    zs = model.jump_points
    if zs.size:

        def overflow(x, y):
            return float(np.max(zs @ y[2:end:2])) - _EXP_GUARD

        events.append(overflow)
        kinds.append("overflow")
    for rate, direction, _ in model.jump_rays:
        margin = max(_RAY_MARGIN * rate, 1e-14)

        def ray_event(x, y, d=direction, bound=rate - margin):
            return float(d @ y[2:end:2]) - bound

        events.append(ray_event)
        kinds.append("ray")
    return events, kinds


def solve_riccati(model, u, horizon):
    """Integrate the Riccati system from psi(0) = u on [0, horizon].

    Returns a RiccatiSolution whose verdict is "solved" if |psi| stays below
    R_MAX, and "exploded" with a blow-up bracket otherwise. Raises
    DivergentIntegral if psi reaches the integrability boundary of an
    exponential-ray measure before blowing up.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    horizon = float(horizon)
    u = _check_vector(model, u, "u", complex)

    # Fails fast (DivergentIntegral) when the integral is undefined at u.
    with np.errstate(over="ignore", invalid="ignore"):
        r_u = riccati_rhs(model, u)
    if not np.isfinite(r_u).all():
        raise NonFiniteRHS("Riccati right-hand side is non-finite at t=0")
    r_switch = _SWITCH_FACTOR * (1.0 + float(np.linalg.norm(u)))

    nfev = 0
    limit = MAX_STEPS * 20

    def evaluate(t, z):
        # The one verdict on a trial stage (see the module docstring).
        nonlocal nfev
        nfev += 1
        if nfev > limit:
            raise StepLimitExceeded(f"exceeded {MAX_STEPS} steps at t={t:.6g}")
        try:
            dz = riccati_rhs(model, z[1:])
            if all(map(cmath.isfinite, dz.tolist())):  # cheaper than np.isfinite here
                return dz
        except DivergentIntegral:
            pass
        return np.full(z.size, np.nan, dtype=complex)

    def rhs(t, y):
        return evaluate(t, y.view(complex)).view(float)

    def rhs_s(s, y):
        z = y[:-1].view(complex)
        dz = evaluate(t_switch + y[-1], z)
        # hypot scales its arguments: |R| may exceed the square root of the
        # largest float.
        g = 1.0 / (1.0 + math.hypot(*np.abs(dz[1:])) / (r_switch * (1.0 + np.linalg.norm(z[1:]))))
        return g * np.append(dz.view(float), 1.0)

    # exp may overflow in a trial stage; evaluate decides what that means.
    with np.errstate(over="ignore", invalid="ignore"):
        # Phase 1, in t.
        y0 = np.concatenate([[0.0], u]).view(float)
        # The first step rates the whole state and the psi block alone and
        # takes the larger step: psi_0 is a quadrature that does not feed back
        # into psi, so a large R_0 must not shrink the first step below what
        # psi needs (at R_0 ~ 1e180 the rule on the whole state underflows
        # to 0). A step of 0 leaves the choice to DOP853's own rule.
        first_step = select_initial_step(
            rhs, 0.0, y0, horizon, r_u.view(float), REL_TOL, ABS_TOL, (slice(None), slice(2, None))
        ) or None
        events, kinds = _make_events(model, R_MAX)
        until = None
        if r_switch < R_MAX:  # stop at the first step end past r_sw; phase 2 watches R_MAX
            events, kinds, until = events[1:], kinds[1:], lambda y: np.linalg.norm(y[2:]) >= r_switch
        run = _integrate(rhs, 0.0, y0, horizon, events, first_step, until)
        grid, ys, dense = run.grid, run.ys, run
        steps_t, steps_s, rejected = run.n_steps, 0, run.rejected
        if run.event is None and not run.failed and grid[-1] < horizon:
            # Phase 2, in s, from the step end where phase 1 stopped. The
            # state carries t - t_switch, so REL_TOL applies to the time
            # spent in phase 2.
            t_switch = float(grid[-1])
            events, kinds = _make_events(model, R_MAX)

            def at_horizon(s, y):
                return t_switch + y[-1] - horizon

            events.append(at_horizon)
            kinds.append("horizon")
            run = _integrate(rhs_s, 0.0, np.append(ys[-1], 0.0), math.inf, events)
            steps_s, rejected = run.n_steps, rejected + run.rejected
            t_grid = t_switch + run.ys[:, -1]
            if run.event is not None and kinds[run.event] == "horizon":
                t_grid[-1] = horizon
            dense = _TimeChangedDense(dense, run, t_grid)
            grid = np.concatenate([grid, t_grid[1:]])
            ys = np.vstack([ys, run.ys[1:, :-1]])
        check_tails(model.K, ys.view(complex)[:, 1:])  # once per solve
    kind = None if run.event is None else kinds[run.event]
    z = ys.view(complex)
    psi0, psi = z[:, 0], z[:, 1:]

    def result(verdict, bracket, stop_reason):
        stats = SolveStats(nfev, steps_t, steps_s, rejected, stop_reason)
        return RiccatiSolution(u, grid, psi0, psi, verdict, bracket, dense, stats)

    if (kind is None and not run.failed) or kind == "horizon":
        return result("solved", None, "horizon")

    if run.failed:
        # Super-exponential blow-up outruns every stopping surface: the
        # remaining time to any radius drops below float resolution and the
        # step size underflows at the blow-up time itself. Declare blow-up
        # when the right-hand side dwarfs the state; otherwise report the
        # stall honestly.
        t_end = float(grid[-1])
        psi_end = psi[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            r_norm = float(np.linalg.norm(riccati_rhs(model, psi_end)))
        scale = 1.0 + float(np.linalg.norm(psi_end))
        if not np.isfinite(r_norm) or r_norm * max(t_end, 1e-12) > 1e10 * scale:
            half = 0.25 * BRACKET_TOL * t_end
            return result("exploded", (t_end - half, t_end + half), "step_underflow")
        raise StepLimitExceeded(f"integrator stalled at t={t_end:.6g}: {TOO_SMALL_STEP}")

    # _integrate located the crossing by brentq on the step's interpolant;
    # grid holds it in t in either phase.
    t_event = float(grid[-1])
    if kind == "ray":
        raise DivergentIntegral(
            f"psi reached the integrability boundary of an exponential ray at t={t_event:.9g}"
        )
    half = 0.25 * BRACKET_TOL * t_event
    return result("exploded", (t_event - half, t_event + half), kind)


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


def explosion_time(model, u, t_max):
    """Locate the blow-up time of psi(., u) if it occurs before t_max.

    Returns ExplosionResult("finite", estimate, bracket) when |psi| crossed
    the blow-up radius, and ExplosionResult("exceeds_horizon") otherwise; in
    the latter case the true blow-up time may still be finite beyond t_max.
    """
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    sol = solve_riccati(model, u, t_max)
    if not sol.exploded:
        return ExplosionResult("exceeds_horizon", t_max=float(t_max))
    lo, hi = sol.bracket
    return ExplosionResult(
        "finite", t_max=float(t_max), estimate=0.5 * (lo + hi), bracket=(lo, hi)
    )


def mean_flow(model, x, t):
    """E_x X_t: the flow of the linear ODE x' = b(x) = a^0 + a x, computed
    through the matrix exponential of the augmented (p+1) system on (1, x)."""
    from scipy.linalg import expm

    x = _check_vector(model, x)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    p = model.dim
    aug = np.zeros((p + 1, p + 1))
    aug[1:, 0] = model.a0
    aug[1:, 1:] = model.a
    vec = np.concatenate([[1.0], x])
    return (expm(aug * t) @ vec)[1:]


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
            val += ray_moment(w, rate, complex(direction @ y)).real
    check_tails(model.K, y[None, :])
    return val


def flow_identity_residual(model, u, s, t):
    """Residual of the semigroup property psi(t+s, u) = psi(t, psi(s, u)) and
    psi_0(t+s, u) = psi_0(s, u) + psi_0(t, psi(s, u))."""
    if not (s >= 0.0 and t > 0.0):
        raise ValueError("need s >= 0 and t > 0")
    sol = solve_riccati(model, u, s + t)
    if sol.exploded:
        raise ExplosionBeforeHorizon(f"psi explodes inside [0, {s + t}] (bracket {sol.bracket})")
    psi0_st, psi_st = sol.eval(s + t)
    psi0_s, psi_s = sol.eval(s)
    sol2 = solve_riccati(model, psi_s, t)
    if sol2.exploded:
        raise ExplosionBeforeHorizon("restarted solution explodes before t")
    psi0_2, psi_2 = sol2.eval(t)
    return max(
        float(np.linalg.norm(psi_st - psi_2)),
        abs(psi0_st - psi0_s - psi0_2),
    )


def variation_of_constants_residual(model, u, x, t):
    """Absolute difference between psi_0(t,u) + psi(t,u).x and
    u.E_x X_t + integral over [0,t] of k(E_x X_{t-s}, psi(s,u)) ds, with the
    right side computed by adaptive quadrature against the dense solution."""
    from scipy.integrate import quad

    u = np.asarray(u, dtype=float).ravel()
    x = require_in_space(model, x)
    if not t > 0.0:
        raise ValueError("t must be positive")
    sol = solve_riccati(model, u.astype(complex), t)
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
    integral, _ = quad(integrand, 0.0, t, epsabs=1e-9, epsrel=1e-9, points=pts, limit=200)
    rhs = float(u @ mean_flow(model, x, t)) + integral
    return abs(lhs - rhs)


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
