"""The generalized Riccati system psi_i' = R_i(psi) in complex arithmetic.

R_i(y) = y.a^i + y.A^i y / 2 + integral of (exp(y.z) - 1 - y.z) K^i(dz);
the zeroth component psi_0 is carried as an ODE component (psi_0' = R_0(psi))
rather than reconstructed through logarithms, so it is continuous and free of
branch-cut ambiguity. R reads the model's jump table (a closed form per ray;
the weighted points with weight in K^1..p in one matrix product and those
of K^0 alone in another, which adds to R_0 only), so it costs a few small
array operations whatever the number of measures.

The integrator state packs the complex (psi_0, psi) as its interleaved real
view (Re psi_0, Im psi_0, Re psi_1, Im psi_1, ...), so the right-hand side
converts in both directions by zero-copy views.

Integration runs in two phases of one call, each one run of the DOP853
integrator of ``integrator`` with everything but psi_0 as its core. Phase 1
integrates in t until the horizon or the first accepted step end where
|psi| >= r_sw = 30 (1 + |u|) or, read from the stepper's derivative there,
both |R(psi)| and its nonlinear part |R(psi) - a^T psi| reach
r_sw (1 + |psi|), so that a stiff linear drift alone does not switch (with
r_sw at or past the blow-up radius r_max, phase 1 stops at r_max). Phase 2
continues from that step end in a new time s, with t - t_switch as the last
state component, whose absolute tolerance ABS_TOL min(1, 10 t_switch) keeps
a blow-up time far below 1 to relative accuracy:

    d(psi_0, psi, t)/ds = g (R_0, R, 1),  g = 1 / (1 + |R(psi)| / (r_sw (1 + |psi|))),

a rescaled time for blow-up problems (Stuart & Floater, "On the computation
of blow-up", Eur. J. Appl. Math. 1990). |psi| then grows at most
exponentially in s while t creeps up to the blow-up time, so the integrator
takes even steps where phase 1 would shrink its steps towards zero.

A trial stage is one frame around one unchecked call of riccati_rhs's
kernel on the complex view of the packed state (in phase 2 the frame also
forms g). For p = 1 and an empty jump table, where numpy's cost per call
outweighs the arithmetic, it is the same formula in Python complex
arithmetic, to the bit. Each run counts its calls; the solve checks its
budget of 20 calls per step (MAX_STEPS) over both phases at accepted step
ends. Where R_1..p is not finite (past a ray's rate it reads NaN), the
error estimate is not finite, so DOP853 rejects the attempt and shrinks
the step by MIN_FACTOR: a solve ends where an accepted state meets a
stopping surface or the step size underflows, and NonFiniteRHS is raised
only for R_1..p(u) at t = 0. The surfaces are the blow-up radius r_max,
an exp-overflow guard on the weighted points with weight in K^1..p (well
below the overflow threshold of exp, where the remaining time to the true
blow-up is far below the bracket width), the integrability boundary of
exponential rays (just below each rate), and t = horizon.

psi_0 is a quadrature along psi that never feeds back into it, so the
transform exists wherever psi does, however large psi_0 is. An exp that
overflows on a point of K^0 alone leaves R_1..p exact, so a trial stage is
judged on R_1..p. psi_0 is outside DOP853's core: where it leaves float
range (R_0 at u or in a step's error estimate, or psi_0 itself
in an accepted state), the stepper drops it and the run goes on with psi;
psi_0 reads NaN from there on, and ``stats.psi0_overflow`` records the last
grid time with a finite psi_0. Verdicts and stop reasons describe psi only.
Up to that time the interpolants read a finite psi_0: where the sums of
their coefficients overflow, they are built from stages rescaled by a power
of 2.

The surfaces are terminal events of the run, which root-finds on the
interpolant of the step that crossed one. Blow-up is localized by that
root, in the crossing phase's own variable, and reported in t as a bracket
of relative width BRACKET_TOL / 2 around it. The solution's grid and dense
evaluator span both phases; a time inside a phase-2 step is mapped to its s
by Brent's method on that step's interpolant of t(s).

scipy is imported only inside mean_flow (expm) and
variation_of_constants_residual (quad).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DivergentIntegral, ExplosionBeforeHorizon, NonFiniteRHS, StepLimitExceeded,
                     _check_positive, _check_vector, _numbers)
from .integrator import DOP853, TOO_SMALL_STEP, brentq, norm
from .jumps import check_tails, ray_moment
from .model import k_eval, require_in_space

# exp overflows near 709; stop integration with ample headroom.
_EXP_GUARD = 600.0

# Phase 1 hands over to the time-changed phase 2 at the first step end where
# |psi| >= _SWITCH_FACTOR * (1 + |u|).
_SWITCH_FACTOR = 30.0

# The packed components that R reads: psi (and t in phase 2), not psi_0.
_CORE = slice(2, None)

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
    the closed form over the table's rays (DivergentIntegral past a rate).
    The points of K^0 alone add to R_0 only, so an exp that overflows on one
    of them leaves R_1..p exact."""
    y = _check_vector(model, y, "y", real=False)
    for rate, direction, _ in model.jump_rays:
        ray_moment(1.0, rate, complex(direction @ y))  # DivergentIntegral past the rate
    return _stage_kernel(model)(y)


def _stage_kernel(model):
    """riccati_rhs's formula bound to the model, unchecked: past a ray's rate
    it reads NaN, and an exp that overflows on a point of K^1..p makes
    R_1..p inf or NaN. A solve's stages call it for every model but one
    with p = 1 and an empty jump table (_scalar_stages). On (N, p) lanes the
    products would take y[..., None, :, None] and y[..., :, None], R_0 would
    be out[..., 0] and a ray's argument the array y @ direction: the same
    bits per lane, but about 3 us more per call on one lane."""
    linear, quadratic, rays = model.rhs_linear, model.rhs_quadratic, model.jump_rays
    points, coefs, points0, coefs0 = model.rhs_points, model.rhs_coefs, model.rhs_points0, model.rhs_coefs0
    reach, alone = points.size > 0, points0.size > 0

    def kernel(y):
        out = (linear + quadratic @ y) @ y
        if reach:
            e = points @ y
            out += coefs @ (np.expm1(e) - e)
        if alone:
            e = points0 @ y
            out[0] += coefs0 @ (np.expm1(e) - e)
        for rate, direction, coef in rays:
            a = complex(direction @ y)
            out += coef * (ray_moment(1.0, rate, a) if a.real < rate else math.nan)
        return out

    return kernel


def _stages(model, r_switch):
    """A solve's trial stages on the packed state, (rhs, rhs_s): phase 1's
    (R_0, R) and phase 2's g (R_0, R, 1) with its switch radius r_switch."""
    if model.dim == 1 and not (model.rhs_points.size or model.rhs_points0.size or model.jump_rays):
        return _scalar_stages(model, r_switch)
    return _kernel_stages(model, r_switch)


def _kernel_stages(model, r_switch):
    """The stages as frames around one call of _stage_kernel."""
    kernel = _stage_kernel(model)

    def rhs(t, y):
        return kernel(y.view(complex)[1:]).view(float)

    dz_1 = np.ones(2 * model.dim + 3)  # (R_0, R, 1), packed

    def rhs_s(s, y):
        psi = y[2:-1].view(complex)
        r = kernel(psi)
        dz_1[:-1] = r.view(float)
        # |psi| by np.linalg.norm's formula. hypot scales its arguments: |R|
        # may exceed the square root of the largest float. np.abs of a complex
        # number may differ from Python's abs in the last bit. A non-finite
        # R_1..p leaves g 0 or NaN, and its component NaN.
        re, im = psi.real, psi.imag
        psi_norm = math.sqrt(re.dot(re) + im.dot(im))
        g = 1.0 / (1.0 + math.hypot(*np.abs(r[1:]).tolist()) / (r_switch * (1.0 + psi_norm)))
        return g * dz_1

    return rhs, rhs_s


def _scalar_stages(model, r_switch):
    """_kernel_stages for p = 1 and an empty jump table, in Python complex
    arithmetic, bit for bit. The kernel's (L + Q y) y is a sum from zero,
    whose 0j turns a -0.0 into +0.0; the inner sum Q y needs none, since the
    sign of a zero there cannot reach R. |psi| = sqrt(re re + im im) is
    np.linalg.norm's two length-1 dots, not one length-2 dot. |R_1| keeps
    np.abs of an array, whose SIMD modulus differs from abs() and
    math.hypot in the last bit."""
    (l0, l1), (q0, q1) = model.rhs_linear[:, 0].tolist(), model.rhs_quadratic[:, 0, 0].tolist()
    r1_arr = np.empty(1, complex)

    def rates(re, im):
        z = complex(re, im)
        return 0j + (l0 + q0 * z) * z, 0j + (l1 + q1 * z) * z

    def rhs(t, y):
        _, _, re, im = y.tolist()
        r0, r1 = rates(re, im)
        return np.array([r0.real, r0.imag, r1.real, r1.imag])

    def rhs_s(s, y):
        _, _, re, im, _ = y.tolist()
        r0, r1 = rates(re, im)
        r1_arr[0] = r1
        g = 1.0 / (1.0 + np.abs(r1_arr).item() / (r_switch * (1.0 + math.sqrt(re * re + im * im))))
        return np.array([g * r0.real, g * r0.imag, g * r1.real, g * r1.imag, g])

    return rhs, rhs_s


@dataclass
class SolveStats:
    """What one solve did: right-hand-side calls (the two runs' nfev; phase
    1's first derivative is the fail-fast call of R at u), accepted steps in t
    (phase 1) and in the time-changed s (phase 2), rejected step attempts
    over both phases, and why it stopped: "horizon", "radius" (|psi| reached
    r_max), "overflow" (the exp guard on the weighted points with weight in
    K^1..p) or "step_underflow" (blow-up declared when the step size
    underflowed). ``psi0_overflow`` is the last grid time with a finite
    psi_0 when psi_0 left float range while psi did not (psi_0 reads NaN
    after it), or None. Interpolants that eval builds after the solve are not
    counted in nfev."""

    nfev: int
    steps_t: int
    steps_s: int
    rejected: int
    stop_reason: str
    psi0_overflow: Optional[float] = None


class RiccatiSolution:
    """Dense solution of the Riccati system from psi(0) = u, psi_0(0) = 0.

    ``verdict`` is "solved" (reached the horizon) or "exploded" (|psi|
    crossed the blow-up radius R_MAX inside a bracket of relative width below
    BRACKET_TOL). The bracket holds that crossing, not the blow-up time T*,
    which comes later by the time psi takes from R_MAX to infinity: on
    psi' = psi^2 (``golden.squared_scalar``) its upper end lies 2.48e-9
    below T* (relative) at u = 0.5 and 1e-4 at u = 1e4. ``eval(t)``
    interpolates (psi_0(t), psi(t)) for any t up to the last solved time;
    ``grid`` holds the accepted times of both phases. Past
    ``stats.psi0_overflow``, psi_0 reads NaN, here and in ``psi0``.
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
        t_arr = _numbers(t, "t must hold real numbers").astype(float, copy=False)
        # Written so that a NaN time fails the check.
        if not np.all((t_arr >= -1e-12) & (t_arr <= self.t_last * (1.0 + 1e-12) + 1e-300)):
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


class _TimeChangedDense:
    """Dense output over both phases: the phase-1 run in t up to the switch
    time, then the phase-2 run in s at the s where its monotone last
    component t(s) - t_switch reaches t - t_switch."""

    def __init__(self, dense_t, dense_s, t_grid):
        self._dense_t = dense_t
        self._dense_s = dense_s
        self._s_grid = dense_s.grid
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
        hi = self._s_grid[k]
        if self._t_grid[k] == t:
            return hi
        t_switch = self._t_grid[0]

        def gap(s):
            return t_switch + self._dense_s.interpolate(k - 1, s)[-1] - t

        if gap(hi) <= 0.0:
            return hi
        return brentq(gap, self._s_grid[k - 1], hi)


def _make_events(model, radius):
    """Terminal stopping surfaces on a packed state whose first 2(p+1)
    components are the interleaved (psi_0, psi): the radius |psi| = radius,
    the exp-overflow guard on the weighted points with weight in K^1..p,
    and the integrability boundary of the model's exponential rays."""
    end = 2 * (model.dim + 1)

    def radius_event(x, y):
        return norm(y[2:end]) - radius

    events = [radius_event]
    kinds = ["radius"]

    zs = model.rhs_points.real.copy()  # the points whose exp reaches psi
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
    horizon = _check_positive(horizon, "horizon")
    u = _check_vector(model, u, "u", real=False)

    # Fails fast (DivergentIntegral) when the integral is undefined at u.
    with np.errstate(over="ignore", invalid="ignore"):
        r_u = riccati_rhs(model, u)
    if not np.isfinite(r_u[1:]).all():
        raise NonFiniteRHS("Riccati right-hand side is non-finite at t=0")
    r_switch = _SWITCH_FACTOR * (1.0 + float(np.linalg.norm(u)))

    rhs, rhs_s = _stages(model, r_switch)
    nfev_t = 0  # phase 1's calls, once phase 2 runs

    def check_budget(run, t):
        if nfev_t + run.nfev > MAX_STEPS * 20:
            raise StepLimitExceeded(f"exceeded {MAX_STEPS} steps at t={t:.6g}")

    # exp may overflow in a trial stage, which the step's error estimate judges.
    with np.errstate(over="ignore", invalid="ignore"):
        # Phase 1, in t. The stopping surfaces are built once per solve.
        events, kinds = _make_events(model, R_MAX)
        # Stop at the first step end past r_sw, where phase 2 watches R_MAX.
        watched = 1 if r_switch < R_MAX else 0

        # A super-exponential R steepens while |psi| stalls below r_sw. A
        # stiff linear part a^T psi alone does not blow up, so its nonlinear
        # rest must pass the bound too.
        def until(run):
            check_budget(run, run.t)
            if not watched:
                return False
            psi_norm = norm(run.y[_CORE])
            if psi_norm >= r_switch:
                return True
            bound = r_switch * (1.0 + psi_norm)
            if norm(run.f[_CORE]) < bound:
                return False
            rest = run.f.view(complex)[1:] - model.rhs_linear[1:] @ run.y.view(complex)[1:]
            return norm(rest.view(float)) >= bound

        y0 = np.concatenate([[0.0], u]).view(float)
        run = DOP853(rhs, 0.0, y0, horizon, REL_TOL, ABS_TOL, core=_CORE, f0=r_u.view(float))
        run.advance(events[watched:], until)
        grid, ys, dense = run.grid, run.ys, run
        steps_t, steps_s, rejected = run.n_steps, 0, run.rejected
        if run.event is None and not run.failed and grid[-1] < horizon:
            # Phase 2, in s, from the step end where phase 1 stopped. The
            # state carries t - t_switch, so REL_TOL applies to the time
            # spent in phase 2; its ABS_TOL shrinks with a t_switch below
            # 0.1, so that a blow-up time far below 1 stays accurate, down
            # to the smallest normal float, where a subnormal t_switch (a
            # phase 1 from DOP853's minimum step) would make it 0.
            t_switch, nfev_t = float(grid[-1]), run.nfev

            def at_horizon(s, y):
                return t_switch + y[-1] - horizon

            events.append(at_horizon)
            kinds.append("horizon")
            watched = 0
            atol = np.full(ys.shape[1] + 1, ABS_TOL)
            atol[-1] = max(ABS_TOL * min(1.0, 10.0 * t_switch), sys.float_info.min)
            run = DOP853(rhs_s, 0.0, np.append(ys[-1], 0.0), math.inf, REL_TOL, atol, core=_CORE)
            run.advance(events, lambda run: check_budget(run, t_switch + run.y[-1]))
            s_ys = run.ys
            steps_s, rejected = run.n_steps, rejected + run.rejected
            t_grid = t_switch + s_ys[:, -1]
            if run.event is not None and kinds[run.event] == "horizon":
                t_grid[-1] = horizon
            dense = _TimeChangedDense(dense, run, t_grid)
            grid = np.concatenate([grid, t_grid[1:]])
            ys = np.vstack([ys, s_ys[1:, :-1]])
        check_tails(model.K, ys.view(complex)[:, 1:])  # once per solve
    kind = None if run.event is None else kinds[watched + run.event]
    z = ys.view(complex)
    psi0, psi = z[:, 0], z[:, 1:]
    t_out = None
    if not np.isfinite(psi0[-1]):  # DOP853 dropped psi_0
        t_out = float(grid[np.flatnonzero(np.isfinite(psi0))[-1]])

    def result(verdict, bracket, stop_reason):
        stats = SolveStats(nfev_t + run.nfev, steps_t, steps_s, rejected, stop_reason, t_out)
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
            r_norm = float(np.linalg.norm(riccati_rhs(model, psi_end)[1:]))
        scale = 1.0 + float(np.linalg.norm(psi_end))
        if not np.isfinite(r_norm) or r_norm * max(t_end, 1e-12) > 1e10 * scale:
            half = 0.25 * BRACKET_TOL * t_end
            return result("exploded", (t_end - half, t_end + half), "step_underflow")
        raise StepLimitExceeded(f"integrator stalled at t={t_end:.6g}: {TOO_SMALL_STEP}")

    # The run located the crossing by brentq on the step's interpolant;
    # grid holds it in t in either phase.
    t_event = float(grid[-1])
    if kind == "ray":
        raise DivergentIntegral(
            f"psi reached the integrability boundary of an exponential ray at t={t_event:.9g}"
        )
    half = 0.25 * BRACKET_TOL * t_event
    return result("exploded", (t_event - half, t_event + half), kind)


def _solve_reaching(model, u, t):
    """solve_riccati(model, u, t) for a psi that reaches t; otherwise
    ExplosionBeforeHorizon names the blow-up bracket."""
    sol = solve_riccati(model, u, t)
    if sol.exploded:
        raise ExplosionBeforeHorizon(f"psi explodes before t={t} (bracket {sol.bracket})")
    return sol


@dataclass
class ExplosionResult:
    """Outcome of explosion probing up to a horizon. On "finite",
    ``bracket`` holds the time where |psi| crossed the blow-up radius R_MAX
    and ``estimate`` is its midpoint: both lie below the blow-up time T*
    (see RiccatiSolution)."""

    kind: str  # "finite" | "exceeds_horizon"
    t_max: float
    estimate: Optional[float] = None
    bracket: Optional[tuple] = None

    @property
    def finite(self):
        return self.kind == "finite"


def explosion_time(model, u, t_max):
    """Estimate the blow-up time of psi(., u) if it occurs before t_max, by
    the time where |psi| crosses the blow-up radius R_MAX.

    Returns ExplosionResult("finite", estimate, bracket) when |psi| crossed
    the blow-up radius, and ExplosionResult("exceeds_horizon") otherwise; in
    the latter case the true blow-up time may still be finite beyond t_max.
    The bracket holds the crossing, which lies below the blow-up time T*
    (by 1/R_MAX on psi' = psi^2, whose T* is 1/u), so it does not hold T*
    itself.
    """
    t_max = _check_positive(t_max, "t_max")
    sol = solve_riccati(model, u, t_max)
    if not sol.exploded:
        return ExplosionResult("exceeds_horizon", t_max=t_max)
    lo, hi = sol.bracket
    return ExplosionResult("finite", t_max=t_max, estimate=0.5 * (lo + hi), bracket=(lo, hi))


def mean_flow(model, x, t):
    """E_x X_t: the flow of the linear ODE x' = b(x) = a^0 + a x, computed
    through the matrix exponential of the augmented (p+1) system on (1, x)."""
    from scipy.linalg import expm

    x = _check_vector(model, x, "x")
    t = _check_positive(t, "t", zero_ok=True)
    p = model.dim
    aug = np.zeros((p + 1, p + 1))
    aug[1:, 0] = model.a0
    aug[1:, 1:] = model.a
    vec = np.concatenate([[1.0], x])
    return (expm(aug * t) @ vec)[1:]


def flow_identity_residual(model, u, s, t):
    """Residual of the semigroup property psi(t+s, u) = psi(t, psi(s, u)) and
    psi_0(t+s, u) = psi_0(s, u) + psi_0(t, psi(s, u))."""
    s = _check_positive(s, "s", zero_ok=True)
    t = _check_positive(t, "t")
    sol = _solve_reaching(model, u, s + t)
    psi0_st, psi_st = sol.eval(s + t)
    psi0_s, psi_s = sol.eval(s)
    psi0_2, psi_2 = _solve_reaching(model, psi_s, t).eval(t)
    # np.max keeps the NaN of a psi_0 past float range, where max may drop it.
    return float(np.max([np.linalg.norm(psi_st - psi_2), abs(psi0_st - psi0_s - psi0_2)]))


def variation_of_constants_residual(model, u, x, t):
    """Absolute difference between psi_0(t,u) + psi(t,u).x and
    u.E_x X_t + integral over [0,t] of k(E_x X_{t-s}, psi(s,u)) ds, with the
    right side computed by adaptive quadrature against the dense solution."""
    from scipy.integrate import quad

    u = _check_vector(model, u, "u")
    x = require_in_space(model, x)
    t = _check_positive(t, "t")
    sol = _solve_reaching(model, u, t)
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
    """CSV rows (t, Re psi0, Im psi0, Re psi_1, Im psi_1, ..., Re psi_p, Im psi_p)."""
    header = ["t", "re_psi0", "im_psi0"]
    header += [f"{part}_psi_{i}" for i in range(1, sol.u.size + 1) for part in ("re", "im")]
    packed = np.column_stack([sol.psi0, sol.psi]).view(float)
    rows = [",".join(map(repr, [float(t)] + row.tolist())) for t, row in zip(sol.grid, packed)]
    return "\n".join([",".join(header)] + rows) + "\n"
