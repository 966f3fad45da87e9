import hashlib
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import oracles
from affinejd import golden, riccati
from affinejd.errors import (
    DimensionMismatch,
    DivergentIntegral,
    ExplosionBeforeHorizon,
    NonFiniteRHS,
    QuadratureTailWarning,
    StepLimitExceeded,
)
from affinejd.integrator import DOP853, ROOT_TOL, select_initial_step
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel, diffusion_at
from affinejd.riccati import (
    ABS_TOL,
    BRACKET_TOL,
    R_MAX,
    REL_TOL,
    explosion_time,
    flow_identity_residual,
    k_eval,
    mean_flow,
    riccati_rhs,
    solution_to_csv,
    solve_riccati,
    variation_of_constants_residual,
)
from affinejd.statespace import Canonical, PSDCone, vech
from affinejd.transform import RAY_REL_TOL, effective_domain_ray, transform


def scalar_model(a0=0.0, a=0.0, A0=0.0, A1=0.0, K=None, space=None):
    return AffineModel(
        a0=[a0], a=[[a]], A=[[[A0]], [[A1]]], K=K, state_space=space or Canonical(1, 1)
    )


def self_exciting_model():
    # R_1(y) = e^y - 1 - y: explosive for u > 0, with an exactly computable
    # blow-up time by quadrature of 1/R_1.
    return scalar_model(a0=0.5, K=[None, FiniteAtomic([1.0], [[1.0]])])


def test_rhs_examples(squared_model, cir_model):
    assert np.allclose(riccati_rhs(squared_model, [0.0]), [0.0, 0.0])
    assert np.allclose(riccati_rhs(squared_model, [3.0]), [0.0, 9.0])
    assert np.allclose(riccati_rhs(cir_model, [2.0]), [2.0, 4.0])


def test_rhs_uses_columns_of_a():
    m = AffineModel(
        a0=[0.0, 0.0],
        a=[[1.0, 2.0], [3.0, 4.0]],  # columns a^1 = (1,3), a^2 = (2,4)
        A=np.zeros((3, 2, 2)),
        K=None,
        state_space=Canonical(0, 2),
    )
    y = np.array([1.0, 1.0])
    assert np.allclose(riccati_rhs(m, y)[1:], [y @ [1.0, 3.0], y @ [2.0, 4.0]])


def test_solve_squared_example(squared_model):
    sol = solve_riccati(squared_model, [1.0], 0.5)
    psi0, psi = sol.eval(0.5)
    assert abs(psi[0] - 2.0) < 1e-9
    assert abs(psi0) < 1e-12
    assert sol.verdict == "solved"


def test_zero_initial_condition_is_fixed_point(cir_model):
    sol = solve_riccati(cir_model, [0.0], 2.0)
    for t in np.linspace(0.0, 2.0, 7):
        psi0, psi = sol.eval(t)
        assert abs(psi0) < 1e-14
        assert np.all(np.abs(psi) < 1e-14)


def test_solve_cir_closed_form(cir_model):
    sol = solve_riccati(cir_model, [0.5], 1.0)
    psi0, psi = sol.eval(1.0)
    assert abs(psi[0] - 1.0) < 1e-9
    assert abs(psi0 - np.log(2.0)) < 1e-9
    for t in np.linspace(0.1, 1.0, 7):
        psi0, psi = sol.eval(t)
        assert abs(psi[0] - oracles.cir_psi(t, 0.5)) < 1e-9
        assert abs(psi0 - oracles.cir_psi0(t, 0.5)) < 1e-9


def test_wishart_matches_bru_closed_form(wishart_model):
    rng = np.random.default_rng(29)
    for _ in range(8):
        # Re U = -B B^T <= 0, Im U symmetric.
        b, c = rng.normal(size=(2, 2, 2)) * 0.8
        u = oracles.wishart_vech(-b @ b.T + 1j * (c + c.T))
        for t in (0.4, 1.5):
            psi0, psi = solve_riccati(wishart_model, u, t).terminal()
            assert np.allclose(psi, oracles.wishart_psi(t, u), rtol=1e-10, atol=1e-10)
            assert abs(psi0 - oracles.wishart_psi0(t, u)) <= 1e-10 * (1.0 + abs(psi0))
    # Real U with lambda_max from 0.6 to 3 blows up at T*. The bracket is
    # not asserted to hold T*: it may miss it by more than its own width.
    for lam_max in (0.6, 1.0, 3.0):
        q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        u = oracles.wishart_vech(q @ np.diag([lam_max, rng.uniform(-2.0, lam_max)]) @ q.T)
        res = explosion_time(wishart_model, u, 10.0)
        want = oracles.wishart_explosion_time(u)
        assert res.finite and abs(res.estimate - want) <= 1e-6 * want


def test_solution_invariants(cir_model):
    sol = solve_riccati(cir_model, [0.3 + 0.2j], 1.5)
    assert sol.psi[0, 0] == 0.3 + 0.2j
    assert sol.psi0[0] == 0.0
    assert np.all(np.diff(sol.grid) > 0.0)


def ode_residual(model, sol):
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


def test_ode_residual_small(cir_model, cp_model):
    for model, u in [(cir_model, [0.4]), (cp_model, [-0.5 + 1.0j])]:
        sol = solve_riccati(model, u, 1.0)
        scale = 1.0 + float(np.max(np.abs(sol.psi)))
        assert ode_residual(model, sol) < 10.0 * (REL_TOL * scale + ABS_TOL) + 1e-9


def test_explosion_examples(squared_model):
    for u in (0.5, 1.0, 2.0, 5.0):
        res = explosion_time(squared_model, [u], 10.0)
        assert res.finite
        assert abs(res.estimate - 1.0 / u) < 1e-6
        lo, hi = res.bracket
        assert lo <= hi
        assert hi - lo <= 1e-8 * hi
    for u in (0.0, -1.0, -4.0):
        res = explosion_time(squared_model, [u], 10.0)
        assert not res.finite
        assert res.t_max == 10.0


def test_exploded_solution_bracket_invariant(squared_model):
    sol = solve_riccati(squared_model, [1.0], 10.0)
    assert sol.exploded
    lo, hi = sol.bracket
    _, psi = sol.eval(lo)
    assert np.linalg.norm(psi) <= R_MAX
    assert hi - lo <= BRACKET_TOL * hi


def test_jump_explosion_matches_quadrature_oracle():
    m = self_exciting_model()
    u = 1.0
    want = oracles.explosion_time_1d(lambda y: np.exp(y) - 1.0 - y, u)
    res = explosion_time(m, [u], 10.0)
    assert res.finite
    assert abs(res.estimate - want) < 1e-6 * want


def test_ray_integrability_boundary_reported():
    m = scalar_model(a0=0.5, A1=2.0, K=[ExponentialRay(1.0, 3.0, [1.0]), None])
    # psi(t) = 1/(1-t) crosses the ray rate 3 at t = 2/3, before any blow-up.
    with pytest.raises(DivergentIntegral):
        solve_riccati(m, [1.0], 2.0)
    sol = solve_riccati(m, [-1.0], 2.0)
    assert sol.verdict == "solved"


@pytest.mark.parametrize("rate, want", [(5.0, 1.4280460968), (100.0, 1.9796851358)])
def test_ray_boundary_names_its_time(rate, want):
    # R_1(y) = y^2/2 + 0.7 y^2/(rate (rate - y)) takes psi from 1 to the rate
    # in phase 1 (rate 5) or in the time-changed phase 2 (rate 100). Trial
    # stages past the rate are rejected; the ray event names the time.
    m = scalar_model(a0=0.5, A1=1.0, K=[None, ExponentialRay(0.7, rate, [1.0])])
    def r_1(y):
        return 0.5 * y * y + 0.7 * y * y / (rate * (rate - y))

    assert abs(oracles.hitting_time_1d(r_1, 1.0, rate) - want) < 1e-9
    with pytest.raises(DivergentIntegral, match="integrability boundary") as info:
        solve_riccati(m, [1.0], 10.0)
    t_named = float(re.search(r"at t=(\S+)", str(info.value)).group(1))
    assert abs(t_named - want) < 1e-6


@pytest.mark.parametrize("u", [3.0, 40.0])
def test_overflowing_trial_stages_are_rejected(u):
    # exp(8 y) overflows in trial stages long before an accepted state meets
    # the exp guard; those stages are rejected and the solve reports blow-up.
    z, w = 8.0, 0.01
    m = scalar_model(a0=0.5, A1=1.0, K=[None, FiniteAtomic([w], [[z]])])
    want = oracles.explosion_time_1d(lambda y: 0.5 * y * y + w * (np.expm1(z * y) - z * y), u)
    sol = solve_riccati(m, [u], 1.0)
    assert sol.exploded
    assert abs(0.5 * sum(sol.bracket) - want) <= 1e-6 * want


def _steep_atom_rate(y):
    return 0.5 * y * y + 0.01 * (np.expm1(2.0 * y) - 2.0 * y)


STEEP_ATOM_MODEL = scalar_model(a0=0.5, A1=1.0, K=[None, FiniteAtomic([0.01], [[2.0]])])


@pytest.mark.parametrize("u", [170.0, 175.0, 180.0])
def test_blow_up_times_below_1e_145(u):
    # R_1(y) = y^2/2 + 0.01 (e^(2y) - 1 - 2y), so T* ~ 50 e^(-2u). The
    # first-step rule gives 0, so phase 1 starts from DOP853's minimum step
    # and phase 2 at a subnormal t_switch; from u = 175 on, |R_1(u)| / scale
    # overflows when squared and the rule has no nonzero guess at all.
    want = oracles.explosion_time_rel_1d(_steep_atom_rate, u)
    sol = solve_riccati(STEEP_ATOM_MODEL, [u], 1.0)
    assert sol.exploded and sol.stats.stop_reason == "overflow"
    assert abs(0.5 * sum(sol.bracket) - want) <= 1e-8 * want
    assert explosion_time(STEEP_ATOM_MODEL, [u], 1.0).bracket == sol.bracket
    assert transform(STEEP_ATOM_MODEL, [u], [1.0], 1.0).kind == "explosive"


@pytest.mark.parametrize("u", [190.0, 354.0])
def test_blow_up_past_the_error_norms_range(u):
    # |R_1| / scale passes ~1e154, so DOP853's error norm overflows on every
    # attempt and the step size underflows at t = 0. The bracket reads (0, 0),
    # below T*: only its lower end is a bound.
    sol = solve_riccati(STEEP_ATOM_MODEL, [u], 1.0)
    assert sol.exploded and sol.stats.stop_reason == "step_underflow"
    assert sol.bracket[0] <= oracles.explosion_time_rel_1d(_steep_atom_rate, u)


def test_ray_at_a_horizon_of_1e_140():
    # The doubling probe at lambda = 256 has no nonzero first-step guess.
    want = brentq(lambda lam: oracles.explosion_time_rel_1d(_steep_atom_rate, lam) - 1e-140, 150.0, 170.0,
                  xtol=1e-12)
    probe = effective_domain_ray(STEEP_ATOM_MODEL, [1.0], 1e-140)
    lo, hi = probe.bracket
    assert lo <= want <= hi and hi - lo <= RAY_REL_TOL * hi


def test_switch_at_a_step_end(squared_model):
    # Phase 2 starts from the step end where phase 1 stopped, so no step
    # is thrown away and no switch root is sought.
    sol = solve_riccati(squared_model, [1.0], 10.0)
    assert sol.exploded and sol.stats.stop_reason == "radius"
    assert sol.stats.steps_s > 0 and sol.stats.nfev < 1282
    n1 = sol.stats.steps_t
    assert abs(sol.psi[n1 - 1, 0]) < 60.0 <= abs(sol.psi[n1, 0])
    # A switch radius 30 (1 + |u|) past R_MAX: phase 1 stops on R_MAX itself.
    u = 1e7
    sol = solve_riccati(squared_model, [u], 10.0)
    assert sol.stats.stop_reason == "radius" and sol.stats.steps_s == 0
    lo, hi = sol.bracket
    assert lo <= 1.0 / u - 1.0 / R_MAX <= hi


def test_real_initial_conditions_stay_real(cir_model, cp_model):
    for model in (cir_model, cp_model):
        sol = solve_riccati(model, [0.4], 1.2)
        assert np.max(np.abs(sol.psi.imag)) < 1e-12
        assert np.max(np.abs(sol.psi0.imag)) < 1e-12


def test_conjugate_symmetry(cir_model, cp_model):
    for model in (cir_model, cp_model):
        u = 0.2 + 0.7j
        sol_u = solve_riccati(model, [u], 1.0)
        sol_c = solve_riccati(model, [np.conj(u)], 1.0)
        for t in np.linspace(0.2, 1.0, 5):
            p0u, pu = sol_u.eval(t)
            p0c, pc = sol_c.eval(t)
            assert abs(p0c - np.conj(p0u)) < 1e-9
            assert np.max(np.abs(pc - np.conj(pu))) < 1e-9


def test_monotone_domain_nesting(squared_model):
    # Solvable at t2 implies solvable at any t1 < t2.
    u = [0.9]
    t2 = 1.0
    assert solve_riccati(squared_model, u, t2).verdict == "solved"
    for t1 in (0.25, 0.5, 0.99):
        assert solve_riccati(squared_model, u, t1).verdict == "solved"


def test_mean_flow_examples():
    still = scalar_model()
    assert np.allclose(mean_flow(still, [2.0], 5.0), [2.0])
    const = scalar_model(a0=1.0)
    assert np.allclose(mean_flow(const, [2.0], 3.0), [5.0])
    decay = scalar_model(a=-1.0, space=Canonical(0, 1))
    got = mean_flow(decay, [4.0], 1.0)
    assert abs(got[0] - 4.0 * np.exp(-1.0)) < 1e-12


def test_wrong_lengths_are_named(cir_model):
    message = "{} has length 2, the model has dimension 1"
    with pytest.raises(DimensionMismatch, match=message.format("y")):
        riccati_rhs(cir_model, [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match=message.format("y")):
        k_eval(cir_model, [1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match=message.format("u")):
        solve_riccati(cir_model, [1.0, 2.0], 1.0)


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, 1.0)])
def test_non_finite_u_is_an_input_error(cir_model, u):
    # Refused by name before any right-hand-side call, not as NonFiniteRHS.
    with pytest.raises(ValueError, match="u must be finite"):
        solve_riccati(cir_model, [u], 1.0)


def test_mean_flow_matches_rk_oracle():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=3)
    a = rng.normal(size=(3, 3)) * 0.5
    m = AffineModel(a0=a0, a=a, A=np.zeros((4, 3, 3)), K=None, state_space=Canonical(0, 3))
    x = rng.normal(size=3)
    got = mean_flow(m, x, 1.7)
    want = oracles.mean_flow_rk(a0, a, x, 1.7)
    assert np.max(np.abs(got - want)) < 1e-9 * (1.0 + np.max(np.abs(want)))


def test_k_eval_examples(cir_model):
    assert k_eval(cir_model, [1.0], [0.0]) == 0.0
    m = scalar_model(A0=2.0, space=Canonical(0, 1))
    assert np.isclose(k_eval(m, [0.5], [3.0]), 9.0)
    jumped = scalar_model(A1=2.0, K=[None, FiniteAtomic([1.0], [[1.0]])])
    assert np.isclose(k_eval(jumped, [1.0], [1.0]), 1.0 + (np.e - 2.0), rtol=1e-14)
    # A ray in K^1 has weight zero at x_1 = 0 and is skipped past its rate.
    rayed = scalar_model(A0=2.0, K=[None, ExponentialRay(1.0, 2.0, [1.0])])
    assert k_eval(rayed, [0.0], [3.0]) == 9.0
    with pytest.raises(DivergentIntegral):
        k_eval(rayed, [1.0], [3.0])


@pytest.mark.parametrize("y", [1e-8, 1e-6, 1e-4])
def test_k_eval_small_argument_matches_series(cp_model, y):
    # k(x, y) = sum_j w_j (exp(y z_j) - 1 - y z_j) on compound Poisson (no
    # diffusion, weights in K^0) must not cancel as y -> 0.
    meas = cp_model.K[0]
    want = float(np.sum(meas.weights * oracles.compensator_series(meas.atoms[:, 0] * y)))
    assert abs(k_eval(cp_model, [1.0], [y]) - want) <= 1e-7 * want


def test_k_nonnegative_for_admissible_models(cir_model, cp_model, wishart_model):
    rng = np.random.default_rng(13)
    for model in (cir_model, cp_model, wishart_model):
        space = model.state_space
        for _ in range(40):
            x = space.project(rng.normal(size=model.dim) * 2.0)
            y = rng.normal(size=model.dim) * 1.5
            assert k_eval(model, x, y) >= -1e-12


def test_flow_identity_zero_shift(cir_model):
    assert flow_identity_residual(cir_model, [0.3 + 0.1j], 0.0, 0.7) == 0.0


def test_flow_identity_squared(squared_model):
    res = flow_identity_residual(squared_model, [0.5], 0.4, 0.4)
    assert res < 1e-8
    # Closed form at the composed time: psi(0.8) = 0.5 / 0.6.
    sol = solve_riccati(squared_model, [0.5], 0.8)
    assert abs(sol.eval(0.8)[1][0] - 0.5 / 0.6) < 1e-9


def test_flow_identity_cir(cir_model):
    assert flow_identity_residual(cir_model, [0.3], 0.5, 0.7) < 1e-8


def test_flow_identity_raises_past_explosion(squared_model):
    with pytest.raises(ExplosionBeforeHorizon):
        flow_identity_residual(squared_model, [2.0], 0.3, 0.3)


def test_nan_times_are_refused_by_name(cir_model):
    # A NaN passes a "t <= 0" guard; each check must name its own t rather
    # than fail later inside the solver on its horizon.
    from affinejd.cone import interior_preservation_check, monotonicity_check
    from affinejd.transform import infinite_divisibility_check

    nan = float("nan")
    with pytest.raises(ValueError, match="s must be nonnegative"):
        flow_identity_residual(cir_model, [0.3], nan, 0.5)
    for call in (
        lambda: flow_identity_residual(cir_model, [0.3], 0.5, nan),
        lambda: variation_of_constants_residual(cir_model, [0.3], [1.0], nan),
        lambda: infinite_divisibility_check(cir_model, [0.3], nan, 2),
        lambda: monotonicity_check(cir_model, [-1.0], [-0.5], nan),
        lambda: interior_preservation_check(cir_model, [-0.5], nan),
    ):
        with pytest.raises(ValueError, match="t must be positive"):
            call()


def test_step_budget_is_enforced(cir_model, monkeypatch):
    # CIR at u = 0.5 to T = 1 takes several DOP853 steps; a budget of two
    # ends the solve, and a ray whose first probe exhausts it raises the
    # error, which is no evidence of the domain's boundary.
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    with pytest.raises(StepLimitExceeded, match=r"^exceeded 2 steps at t="):
        solve_riccati(cir_model, [0.5], 1.0)
    with pytest.raises(StepLimitExceeded, match=r"^exceeded 2 steps at t="):
        effective_domain_ray(cir_model, [1.0], 0.7)


def test_a_solver_failure_never_bounds_a_ray(cir_model, monkeypatch):
    # With a budget of one step every probe fails. Read as leaving the
    # domain, the failures would bound this ray near 0 (lambda_star 4.95e-7).
    monkeypatch.setattr(riccati, "MAX_STEPS", 1)
    with pytest.raises(StepLimitExceeded):
        effective_domain_ray(cir_model, [1.0], 0.7)


def test_infinite_times_are_refused_by_name(cir_model):
    # An infinite horizon would step until the step limit (or leak a
    # ZeroDivisionError from the ray's secant), an infinite lambda_max would
    # double a ray's probes without end, and mean_flow would return NaN;
    # each entry point names its own bound before any solve.
    from affinejd.cone import interior_preservation_check, monotonicity_check
    from affinejd.transform import transform

    inf = float("inf")
    for call, name in (
        (lambda: solve_riccati(cir_model, [-1.0], inf), "horizon"),
        (lambda: transform(cir_model, [0.5j], [1.0], inf), "t"),
        (lambda: explosion_time(cir_model, [1.0], inf), "t_max"),
        (lambda: effective_domain_ray(cir_model, [1.0], inf), "horizon"),
        (lambda: effective_domain_ray(cir_model, [-1.0], 0.7, lambda_max=inf), "lambda_max"),
        (lambda: mean_flow(cir_model, [1.0], inf), "t"),
        (lambda: monotonicity_check(cir_model, [-1.0], [-0.5], inf), "t"),
        (lambda: interior_preservation_check(cir_model, [-0.5], inf), "t"),
        (lambda: flow_identity_residual(cir_model, [0.5j], inf, 0.5), "s"),
        (lambda: flow_identity_residual(cir_model, [0.5j], 0.5, inf), "t"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be (positive|nonnegative) and finite$"):
            call()


def test_eval_refuses_nan_times(cir_model, squared_model):
    # In phase 1 (cir) and in the time-changed phase 2 (squared, exploding).
    for sol in (solve_riccati(cir_model, [0.5j], 1.0), solve_riccati(squared_model, [1.0], 10.0)):
        for t in (float("nan"), [0.5 * sol.t_last, float("nan")]):
            with pytest.raises(ValueError, match="dense evaluator is valid on"):
                sol.eval(t)


def test_eval_refuses_times_that_are_no_real_numbers(cir_model):
    # numpy would read True as 1.0 and "0.5" as 0.5, and drop the
    # imaginary part of a complex time with a ComplexWarning.
    sol = solve_riccati(cir_model, [0.5j], 1.0)
    for t in (True, np.bool_(False), "0.5", 0.5j, np.array([0.5 + 0j]), [0.5, True], [None]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^t must hold real numbers$"):
                sol.eval(t)


def test_variation_of_constants_trivial(cir_model):
    assert variation_of_constants_residual(cir_model, [0.0], [1.0], 1.0) < 1e-12


def test_variation_of_constants_pure_drift():
    m = scalar_model(a0=1.0, a=-0.5)
    assert variation_of_constants_residual(m, [0.7], [2.0], 1.5) < 1e-10


def test_variation_of_constants_cir(cir_model):
    res = variation_of_constants_residual(cir_model, [0.5], [1.0], 1.0)
    assert res < 1e-7
    sol = solve_riccati(cir_model, [0.5], 1.0)
    psi0, psi = sol.eval(1.0)
    assert abs((psi0.real + psi[0].real * 1.0) - (np.log(2.0) + 1.0)) < 1e-8


def test_csv_serialization(cir_model):
    sol = solve_riccati(cir_model, [0.5], 1.0)
    text = solution_to_csv(sol)
    lines = text.strip().split("\n")
    assert lines[0] == "t,re_psi0,im_psi0,re_psi_1,im_psi_1"
    assert len(lines) == sol.grid.size + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.5, 0.0]


def atom_model(z):
    # R_1(y) = e^(z y) - 1 - z y with psi_0' = psi / 2.
    return scalar_model(a0=0.5, K=[None, FiniteAtomic([1.0], [[z]])])


def test_eval_continuous_across_switch(cir_model):
    # psi = u/(1 - u t) passes the switch radius 30 (1 + |u|) near t = 0.983
    # and reaches 999 at t = 1: the solve ends in the time-changed phase.
    u = 0.999
    sol = solve_riccati(cir_model, [u], 1.0)
    assert sol.verdict == "solved" and sol.stats.stop_reason == "horizon"
    assert sol.stats.steps_t > 0 and sol.stats.steps_s > 0
    assert sol.t_last == 1.0 and np.all(np.diff(sol.grid) > 0.0)
    # Phase 2 starts at the first phase-1 step end with |psi| >= r_sw.
    n1 = sol.stats.steps_t
    t_switch = sol.grid[n1]
    r_switch = 30.0 * (1.0 + u)
    assert np.all(np.abs(sol.psi[:n1, 0]) < r_switch) and abs(sol.psi[n1, 0]) >= r_switch
    near = t_switch + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
    # The error grows with psi towards t = 1; test_near_boundary_accuracy
    # bounds it there.
    for tol, ts in ((1e-8, near), (1.7e-8, np.concatenate([sol.grid[-6:], [0.99, 0.999]]))):
        for t in ts:
            psi0, psi = sol.eval(t)
            assert abs(psi[0] - oracles.cir_psi(t, u)) <= tol * abs(oracles.cir_psi(t, u))
            assert abs(psi0 - oracles.cir_psi0(t, u)) <= tol * (1.0 + abs(oracles.cir_psi0(t, u)))
    # The array form of eval agrees with the scalar form on both phases.
    psi0_arr, psi_arr = sol.eval(near)
    for k, t in enumerate(near):
        psi0, psi = sol.eval(t)
        assert psi0_arr[k] == psi0 and psi_arr[k, 0] == psi[0]


def s_of_by_bisection(dense, t):
    """The first s with t(s) >= t, by bisection inside the phase-2 step
    that holds t: how eval located phase-2 times before Brent's method."""
    t_grid = dense._t_grid
    k = min(max(int(np.searchsorted(t_grid, t)), 1), t_grid.size - 1)
    lo, hi = dense._s_grid[k - 1], dense._s_grid[k]
    if t_grid[k] == t:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if t_grid[0] + dense._dense_s(mid)[-1] >= t:
            hi = mid
        else:
            lo = mid


@pytest.mark.parametrize("model_name, u, ulps", [("cir", 0.999, 0), ("cir", 0.99999, 4), ("squared_scalar", 1.0, 4)])
def test_phase2_eval_matches_bisection(model_name, u, ulps):
    # Where |psi| grows past ~1e4, psi moves by more than 1e-12 |psi| within
    # one float spacing of t; both roots may then differ by a few spacings.
    model = getattr(golden, model_name)()
    sol = solve_riccati(model, [u], 1.0 if model_name == "cir" else 10.0)
    dense = sol._dense
    assert isinstance(dense, riccati._TimeChangedDense)
    n1 = sol.stats.steps_t
    t2 = sol.grid[n1:]
    # Grid points return their stored state.
    for k, t in enumerate(t2):
        psi0, psi = sol.eval(t)
        assert psi0 == sol.psi0[n1 + k] and np.array_equal(psi, sol.psi[n1 + k])
    # Interior times, up to the last one, agree with the bisection.
    inner = np.concatenate([t2[:-1] + f * np.diff(t2) for f in (1e-9, 0.25, 0.5, 0.9, 1.0 - 1e-12)])
    for t in list(inner) + [np.nextafter(sol.t_last, 0.0)]:
        want = dense._dense_s(s_of_by_bisection(dense, t))[:-1].view(complex)
        got = np.concatenate([[sol.eval(t)[0]], sol.eval(t)[1]])
        slope = np.abs(riccati_rhs(model, want[1:]))
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)) + ulps * np.spacing(t) * slope)


def test_near_boundary_accuracy(cir_model):
    # Relative errors of the single-phase solver these bounds were set from:
    # 1.7e-8 at u = 0.999 and 1.7e-6 at u = 0.99999 (psi(1) = 999 and 99999).
    for u, bound in ((0.999, 1.7e-8), (0.99999, 1.7e-6)):
        psi = solve_riccati(cir_model, [u], 1.0).eval(1.0)[1][0]
        want = u / (1.0 - u)
        assert abs(psi - want) <= bound * want


@pytest.mark.parametrize("kappa", [1e3, 1e4])
def test_stiff_linear_drift_stays_in_phase_1(kappa):
    # dX = kappa (1 - X) dt + sqrt(2X) dW: the linear rate kappa |psi| passes
    # r_sw (1 + |psi|), but psi decays, so the solve must not switch.
    m = scalar_model(a0=kappa, a=-kappa, A1=2.0)
    u = 0.5j
    sol = solve_riccati(m, [u], 1.0)
    assert sol.stats.steps_s == 0 and sol.stats.stop_reason == "horizon"
    psi0, psi = sol.eval(1.0)
    assert abs(psi[0] - oracles.mean_reverting_cir_psi(1.0, u, kappa)) < 1e-10
    assert abs(psi0 - oracles.mean_reverting_cir_psi0(1.0, u, kappa)) < 1e-10


def test_stop_reasons(cir_model, squared_model):
    assert solve_riccati(cir_model, [0.5], 1.0).stats.stop_reason == "horizon"
    sol = solve_riccati(squared_model, [1.0], 10.0)
    assert sol.exploded and sol.stats.stop_reason == "radius"
    assert sol.stats.steps_s > 0
    # A slowly steepening exponential: phase 2 reaches the exp guard z y = 600.
    z = 0.2
    sol = solve_riccati(atom_model(z), [1.0], 100.0)
    want = oracles.explosion_time_1d(lambda y: np.exp(z * y) - 1.0 - z * y, 1.0)
    assert sol.exploded and sol.stats.stop_reason == "overflow"
    assert abs(0.5 * sum(sol.bracket) - want) < 1e-6 * want
    # e^y - 1 - y steepens so fast that |psi| stalls below the switch radius;
    # phase 1 hands over on |R| instead, and phase 2 reaches the exp guard.
    sol = solve_riccati(self_exciting_model(), [1.0], 10.0)
    assert sol.exploded and sol.stats.stop_reason == "overflow"
    assert sol.stats.steps_s > 0 and sol.stats.nfev <= 1000
    for s in (sol, solve_riccati(cir_model, [0.5], 1.0)):
        assert s.stats.nfev > 12 * (s.stats.steps_t + s.stats.steps_s)


def test_constant_psi_with_huge_psi0_rate_is_not_blow_up(cp_model):
    # psi stays at u while psi_0' = R_0(u) ~ exp(0.8 u) is astronomically
    # large; the first step must follow psi, not the quadrature psi_0.
    for u in (460.0, 506.9, 560.0):
        res = explosion_time(cp_model, [u], 1.0)
        assert res.kind == "exceeds_horizon"
        sol = solve_riccati(cp_model, [u], 1.0)
        assert sol.psi[-1, 0] == u and sol.stats.steps_t < 20


def counting_solves(monkeypatch):
    """The stats of every solve_riccati call made through the riccati module
    or by effective_domain_ray."""
    stats = []
    solve = riccati.solve_riccati

    def counted(*args):
        sol = solve(*args)
        stats.append(sol.stats)
        return sol

    monkeypatch.setattr(riccati, "solve_riccati", counted)
    # The package re-exports the function transform, which shadows the module.
    monkeypatch.setattr(sys.modules["affinejd.transform"], "solve_riccati", counted)
    return stats


@pytest.mark.parametrize("u", [886.75, 887.0, 888.0, 1e6])
def test_psi0_overflow_is_not_blow_up(cp_model, u, monkeypatch):
    # R_0(u) ~ 0.25 e^(0.8 u) is near or past the largest float while R_1 = 0:
    # psi stays at u, and psi_0 is out of range from t = 0 (at 886.75 and 887
    # R_0 is finite, but the error estimate of a step overflows).
    stats = counting_solves(monkeypatch)
    assert riccati.explosion_time(cp_model, [u], 1.0).kind == "exceeds_horizon"
    assert len(stats) == 1 and stats[0].nfev <= 300
    assert stats[0].stop_reason == "horizon" and stats[0].psi0_overflow == 0.0
    sol = solve_riccati(cp_model, [u], 1.0)
    psi0, psi = sol.terminal()
    assert psi[0] == u and np.isnan(psi0) and np.isnan(sol.psi0[1:]).all()
    if u >= 888.0:
        # exp(0.8 u) overflows on the atoms of K^0, which reach R_0 alone.
        with np.errstate(over="ignore", invalid="ignore"):
            r = riccati_rhs(cp_model, [u])
        assert r[1] == 0.0 and not np.isfinite(r[0])
    assert sol.eval(0.0)[0] == 0.0
    # An identity that reads psi_0 cannot hold there, and does not pass.
    assert np.isnan(flow_identity_residual(cp_model, [u], 0.5, 0.5))


@pytest.mark.parametrize("horizon", [0.5, 0.7, 2.0])
def test_compound_poisson_ray_is_unbounded(cp_model, horizon, monkeypatch):
    # The probe at 1 and the certificate at lambda_max = 1e6, which holds
    # psi_0 past its float range, decide the ray.
    stats = counting_solves(monkeypatch)
    ray = effective_domain_ray(cp_model, [1.0], horizon)
    assert not ray.bounded and ray.bracket is None and len(ray.probes) == 2
    assert len(stats) == len(ray.probes) and sum(s.nfev for s in stats) <= 3500


def wishart_rays():
    """The three directions and horizons of test_transform's Wishart rays."""
    rng = np.random.default_rng(17)
    rays = []
    for _ in range(3):
        b = rng.normal(size=(2, 2)) * 0.7
        direction = vech(b @ b.T + 0.1 * np.eye(2))
        rays.append((direction / np.linalg.norm(direction), rng.uniform(0.5, 1.5)))
    return rays


def ray_pin(ray, ordered=True):
    """lambda_star and the bracket as hex floats, the (lambda, estimate) rows
    of the probes other than the certificate at the default lambda_max (NaN
    for no estimate) by pin_text, in probe order or sorted, and the
    initials of their verdicts."""
    probes = [probe for probe in ray.probes if probe[0] != 1e6]
    rows = [(lam, math.nan if est is None else est) for lam, est, _ in probes]
    return (ray.lambda_star.hex(), tuple(b.hex() for b in ray.bracket),
            pin_text(rows if ordered else sorted(rows)), "".join(kind[0] for _, _, kind in probes))


# Bounded rays, with the values that the doubling alone found: the
# certificate adds a probe but moves no other.
RAY_PINS = {
    ("cir", 0.6): ("0x1.aaaaada65510dp+0", ("0x1.aaaaaa1b9e23cp+0", "0x1.aaaab1310bfdep+0"),
                   "2d68f26c81c8fa5671d3bd89", "efef"),
    ("cir", 0.7): ("0x1.6db6de0396bafp+0", ("0x1.6db6daf319d58p+0", "0x1.6db6e11413a06p+0"),
                   "3b0a7729fcb1190d6b15be4c", "efef"),
    ("cir", 1.0): ("0x1.fffffba3603d0p-1", ("0x1.fffff746c07a1p-1", "0x1.0000000000000p+0"),
                   "0x1.0000000000000p+0 0x1.ffffffaa3c490p-1 0x1.fffff746c07a1p-1 0x1.00000431bdfa7p+0", "fe"),
    ("cir", 1.7): ("0x1.2d2d2f7cbdf46p-1", ("0x1.2d2d2cfaba0cep-1", "0x1.2d2d31fec1dbep-1"),
                   "f875fb317f608d3ce39fe03b", "fef"),
    ("wishart_2d", 0): ("0x1.0308a59ec4a09p+0", ("0x1.0308a1604d3a1p+0", "0x1.0308a9dd3c071p+0"),
                        "1f36d77dd4a11303c8339c82", "efffefef"),
    ("wishart_2d", 1): ("0x1.23e9b460059f0p+0", ("0x1.23e9af97a685bp+0", "0x1.23e9b92864b85p+0"),
                        "734415db55746d250dbab665", "effeffef"),
    ("wishart_2d", 2): ("0x1.347ec95d9a993p+0", ("0x1.347ec44fae55cp+0", "0x1.347ece6b86dcap+0"),
                        "2008e1d7e9981a945b33491c", "efeffef"),
}


def probed_lambdas(monkeypatch, fail_at=None):
    """The lambda of every solve made by effective_domain_ray, failing with
    StepLimitExceeded at fail_at."""
    calls = []

    def probe(model, u, horizon):
        calls.append(u[0])
        if u[0] == fail_at:
            raise StepLimitExceeded("exceeded 1 steps at t=0")
        return solve_riccati(model, u, horizon)

    # The package re-exports the function transform, which shadows the module.
    monkeypatch.setattr(sys.modules["affinejd.transform"], "solve_riccati", probe)
    return calls


@pytest.mark.parametrize("name, direction, horizon", [("cir", -1.0, 1.3), ("compound_poisson", 1.0, 0.7)])
def test_unbounded_ray_takes_two_solves(name, direction, horizon, monkeypatch):
    stats = counting_solves(monkeypatch)
    ray = effective_domain_ray(getattr(golden, name)(), [direction], horizon)
    assert not ray.bounded and ray.bracket is None and len(stats) == 2
    assert ray.probes == [(1.0, None, "exceeds_horizon"), (1e6, None, "exceeds_horizon")]


@pytest.mark.parametrize("key", list(RAY_PINS), ids=lambda key: f"{key[0]}-{key[1]}")
def test_bounded_rays_keep_their_brackets(key, monkeypatch):
    name, which = key
    direction, horizon = ([1.0], which) if name == "cir" else wishart_rays()[which]
    stats = counting_solves(monkeypatch)
    ray = effective_domain_ray(getattr(golden, name)(), direction, horizon)
    assert ray_pin(ray) == RAY_PINS[key]
    assert len(stats) == len(ray.probes)
    # Only a ray whose first probe stays inside gets a certificate, which
    # follows that probe and leaves the domain.
    lams = [lam for lam, _, _ in ray.probes]
    if ray.probes[0][2] == "exceeds_horizon":
        assert lams.count(1e6) == 1 and ray.probes[1][0] == 1e6 and ray.probes[1][2] == "finite"
    else:
        assert 1e6 not in lams


def test_failed_certificate_falls_back(monkeypatch):
    # exp(2 lambda) overflows at lambda_max = 1e6 on the atom of K^1, so the
    # certificate's solve fails; the doubling goes on, and the ray keeps its
    # bracket and probes.
    with pytest.raises(NonFiniteRHS):
        explosion_time(STEEP_ATOM_MODEL, [1e6], 1e-3)
    calls = probed_lambdas(monkeypatch)
    ray = effective_domain_ray(STEEP_ATOM_MODEL, [1.0], 1e-3)
    assert ray_pin(ray) == ("0x1.59b907d5137e9p+2", ("0x1.59b9022b027d9p+2", "0x1.59b90d7f247f9p+2"),
                            "e7ea79fab5f392c679eb651f", "eeeffefeeefef")
    lams = [lam for lam, _, _ in ray.probes]
    assert calls == lams[:1] + [1e6] + lams[1:]


def test_no_lambda_is_solved_twice(cir_model, monkeypatch):
    # lambda_star = 48, so the doubling reaches lambda_max = 64 and reads the
    # certificate's verdict; the probes are the doubling's, in another order.
    stats = counting_solves(monkeypatch)
    ray = effective_domain_ray(cir_model, [1.0], 1.0 / 48.0, lambda_max=64.0)
    lams = [lam for lam, _, _ in ray.probes]
    assert lams[:2] == [1.0, 64.0] and len(stats) == len(set(lams)) == len(lams)
    assert ray_pin(ray, ordered=False) == ("0x1.7ffff50da6a66p+5", ("0x1.7fffefe4f2fe2p+5", "0x1.7ffffa365a4e9p+5"),
                                           "091af431460631314ad088bb", "efeeeeeef")
    # A certificate whose solve fails raises its error where the doubling
    # reaches lambda_max, without a second solve there.
    calls = probed_lambdas(monkeypatch, fail_at=64.0)
    with pytest.raises(StepLimitExceeded):
        effective_domain_ray(cir_model, [1.0], 1.0 / 48.0, lambda_max=64.0)
    assert calls == [1.0, 64.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_ray_bracket_horizon_stays_in_float_range(cir_model, monkeypatch):
    # Twice a horizon above ~9e307 is inf, which no solve takes as a horizon:
    # the bracket probes integrate to the largest float instead. The stub
    # blows up the first probe, as cir does at lambda = 1 near t = 1, and
    # stalls every later one, as the solver does on its way to 1e308.
    horizons = []

    def probe(model, u, horizon):
        horizons.append(horizon)
        if len(horizons) > 1:
            raise StepLimitExceeded("integrator stalled at t=2.3e18")
        return solve_riccati(model, u, 2.0)

    monkeypatch.setattr(sys.modules["affinejd.transform"], "solve_riccati", probe)
    with pytest.raises(StepLimitExceeded):
        effective_domain_ray(cir_model, [1.0], 1e308)
    # A probe that fails past the horizon is decided on the horizon itself.
    assert horizons == [1e308, sys.float_info.max, 1e308]


def test_psi0_overflow_by_accumulation(cp_model):
    # psi = 883 is constant and R_0(883) ~ 2.6e306 is finite, but psi_0 =
    # t R_0 passes the largest float near t = 68. From the accepted state
    # that overflows on, psi_0 reads NaN, and the solve goes on with psi.
    r0 = riccati_rhs(cp_model, [883.0])[0]
    sol = solve_riccati(cp_model, [883.0], 400.0)
    psi0, psi = sol.terminal()
    assert sol.stats.stop_reason == "horizon" and sol.t_last == 400.0
    assert sol.psi[-1, 0] == 883.0 and np.isnan(psi0)
    t_out = sol.stats.psi0_overflow
    k = int(np.flatnonzero(sol.grid == t_out)[0])
    assert 67.8 < t_out < 67.9 and np.isnan(sol.psi0[k + 1:]).all()
    assert np.all(np.abs(sol.psi0[1:k + 1] - sol.grid[1:k + 1] * r0) <= 1e-9 * sol.grid[1:k + 1] * r0.real)
    # Inside the step that overflowed, psi_0 reads NaN without a
    # RuntimeWarning (the suite turns one into an error).
    psi0, psi = sol.eval(0.5 * (t_out + sol.grid[k + 1]))
    assert np.isnan(psi0) and psi[0] == 883.0
    tv = transform(cp_model, [883.0], [1.0], 400.0)
    assert tv.kind == "finite" and tv.value is None and tv.log_value is None and tv.psi0 is None
    assert f"t={t_out!r}" in tv.diagnostic
    # At 880, psi_0 = 5.5e307 is in range, as it was before.
    sol = solve_riccati(cp_model, [880.0], 400.0)
    assert sol.stats.psi0_overflow is None and sol.stats.nfev == 146
    assert sol.terminal()[0].real.hex() == "0x1.3b6d7587f64b3p+1022"


def k0_atom_model():
    """psi = e^t, and R_0 = psi^2 / 2 + expm1(psi / 10) - psi / 10 leaves
    float range near t = 8.8653."""
    return AffineModel(a0=[0.0], a=[[1.0]], A=[[[1.0]], [[0.0]]], K=[FiniteAtomic([1.0], [[0.1]]), None],
                       state_space=Canonical(0, 1))


def k0_atom_r0(y):
    return 0.5 * y * y + np.expm1(0.1 * y) - 0.1 * y


def test_exp_guard_watches_the_points_that_reach_psi():
    # An atom of K^0 reaches R_0 only: psi = e^t, while R_0 = expm1(psi/10) -
    # psi/10 overflows near t = 8.87. The exp guard of the atom (psi/10 =
    # 600) must not end the solve.
    m = k0_atom_model()
    sol = solve_riccati(m, [1.0], 10.0)
    assert not sol.exploded and sol.stats.stop_reason == "horizon"
    psi0, psi = sol.terminal()
    assert abs(psi[0] - np.exp(10.0)) <= 1e-8 * np.exp(10.0)
    t_out = sol.stats.psi0_overflow
    assert t_out is not None and 8.0 < t_out < 8.87 and np.isnan(psi0)
    # psi_0 = integral of R_0 is carried up to that time.
    assert np.isfinite(sol.eval(0.5 * t_out)[0]) and np.isnan(sol.eval(0.5 * (t_out + 10.0))[0])
    # Each step's interpolant uses the right-hand side that made it: a step
    # before the hold carries R_0, and inside the first held step psi_0
    # reads NaN. (test_interpolant_near_the_psi0_overflow covers the last
    # steps before the hold, where R_0 ~ 1e305.)
    k = int(np.searchsorted(sol.grid, t_out))
    assert sol.grid[k] == t_out and k - 20 > sol.stats.steps_t  # held in phase 2
    t = 0.5 * (sol.grid[k - 21] + sol.grid[k - 20])
    want = solve_riccati(m, [1.0], t).terminal()[0]
    assert np.isfinite(want) and abs(want) > 1e290
    assert abs(sol.eval(t)[0] - want) <= 1e-8 * abs(want)
    assert np.isnan(sol.eval(0.5 * (t_out + sol.grid[k + 1]))[0])


def test_interpolant_near_the_psi0_overflow():
    # In the last ~9 steps before the hold, the stages of psi_0 are near
    # 1e305 and the sums of the dense output overflow unless rescaled. The
    # suite turns the RuntimeWarning into an error.
    m = k0_atom_model()
    sol = solve_riccati(m, [1.0], 10.0)
    t_out = sol.stats.psi0_overflow
    for t in np.linspace(8.859, t_out, 25):
        psi0, psi = sol.eval(t)
        want = oracles.psi0_quadrature(k0_atom_r0, np.exp, t, scale=1e300)
        assert psi0.imag == 0.0 and abs(psi0.real - want) <= 1e-8 * want, t
        assert abs(psi[0] - np.exp(t)) <= 1e-8 * np.exp(t)
    # A horizon there ends on that interpolant: a finite psi_0, no hold.
    sol = solve_riccati(m, [1.0], 8.8605)
    psi0 = sol.terminal()[0]
    assert sol.stats.psi0_overflow is None
    assert abs(psi0 - oracles.psi0_quadrature(k0_atom_r0, np.exp, 8.8605, scale=1e300)) <= 1e-8 * abs(psi0)


def test_overflow_on_a_k0_point_leaves_the_psi_rates_exact():
    # exp(800) overflows on the K^0 atom at z = 1; R_1 reads the K^1 atom
    # at z = 0.1 alone.
    k1 = FiniteAtomic([1.0], [[0.1]])
    m = scalar_model(a0=0.5, a=-1.0, A1=0.5, K=[FiniteAtomic([1.0], [[1.0]]), k1])
    with np.errstate(over="ignore", invalid="ignore"):
        r = riccati_rhs(m, [800.0])
    want = rhs_per_measure(scalar_model(a0=0.5, a=-1.0, A1=0.5, K=[None, k1]), np.array([800.0 + 0j]))
    assert not np.isfinite(r[0]) and abs(r[1] - want[1]) <= 1e-13 * abs(want[1])


def test_non_finite_psi_rate_at_u_is_refused():
    # R_1(800) = e^800 - 1 - 800 overflows: that is not a psi_0 overflow.
    with pytest.raises(NonFiniteRHS):
        solve_riccati(atom_model(1.0), [800.0], 1.0)


def test_solve_counts_steps_and_builds_no_interpolant(monkeypatch):
    # Every evaluation of R, on the kernel's stages or the scalar ones.
    calls = counting_evaluations(monkeypatch)
    cases = [(golden.cir(), [0.5]), (golden.ou(), [0.3 - 1.0j]), (golden.compound_poisson(), [2.0j]),
             (golden.wishart_2d(), [-0.4, 0.1j, -0.3]), (golden.lorentz_drift(), [0.2, 0.1, -0.1j])]
    for model, u in cases:
        calls.clear()
        sol = solve_riccati(model, u, 1.0)
        psi0, psi = sol.terminal()
        stats = sol.stats
        assert stats.stop_reason == "horizon" and stats.steps_s == 0
        # Start-up: the first-step probe and the stepper's initial derivative;
        # then 12 calls per attempted step and none for an interpolant.
        assert stats.nfev == 2 + 12 * (stats.steps_t + stats.rejected)
        assert len(calls) == stats.nfev  # the fail-fast check at u is the first
        assert (psi0, psi[0]) == (sol.psi0[-1], sol.psi[-1, 0])
    # Phase 1 of a blow-up rejects steps as psi steepens.
    sol = solve_riccati(golden.squared_scalar(), [1.0], 10.0)
    assert sol.stats.rejected > 0 and sol.stats.steps_s > 0


def test_stage_kernel_is_riccati_rhs_bit_for_bit():
    # One formula for R: riccati_rhs checks y, then calls the kernel that
    # every trial stage of a solve calls.
    ray_model = scalar_model(a0=0.5, A1=1.0, K=[None, ExponentialRay(0.7, 5.0, [1.0])])
    models = [golden.cir(), golden.ou(), golden.compound_poisson(), golden.wishart_2d(), golden.lorentz_drift(),
              ray_model, k0_atom_model(), STEEP_ATOM_MODEL]
    rng = np.random.default_rng(31)
    for model in models:
        kernel = riccati._stage_kernel(model)
        for scale in (0.1, 1.0, 3.0):
            y = scale * (rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim))
            assert kernel(y).tobytes() == riccati_rhs(model, y).tobytes()
    # Past a ray's rate the kernel reads NaN where riccati_rhs raises.
    y = np.array([5.5 + 0.1j])
    with pytest.raises(DivergentIntegral):
        riccati_rhs(ray_model, y)
    assert not np.isfinite(riccati._stage_kernel(ray_model)(y)[1:]).any()
    # exp(2 y) overflows on the K^1 atom of STEEP_ATOM_MODEL.
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(riccati._stage_kernel(STEEP_ATOM_MODEL)(np.array([400.0 + 0.5j]))[1:]).any()


def reference_stages(model, r_switch):
    """The trial stages as frames around riccati._stage_kernel, phase 2 by
    its formula g (R_0, R, 1): |psi| by np.linalg.norm's two dots, |R| by
    math.hypot over np.abs of R_1..p."""
    kernel = riccati._stage_kernel(model)

    def rhs(t, y):
        return kernel(y.view(complex)[1:]).view(float)

    def rhs_s(s, y):
        psi = y[2:-1].view(complex)
        r = kernel(psi)
        re, im = psi.real, psi.imag
        psi_norm = math.sqrt(re.dot(re) + im.dot(im))
        g = 1.0 / (1.0 + math.hypot(*np.abs(r[1:]).tolist()) / (r_switch * (1.0 + psi_norm)))
        return g * np.append(r.view(float), 1.0)

    return rhs, rhs_s


def test_the_stages_of_a_solve_are_the_kernels_bit_for_bit():
    # A model with p = 1 and no jumps takes the stages in Python complex
    # arithmetic; they must give the kernel's bits, signed zeros and NaNs
    # included, on random psi and at the edges: zeros of either sign before
    # negative and -0.0 coefficients, subnormals, |psi| from 1e154 up, where
    # the squares overflow, and inf and NaN. Every other model keeps the
    # kernel, and models with jumps must not take the scalar path.
    scalar = [golden.squared_scalar(), golden.cir(), golden.ou(),
              scalar_model(a0=-0.0, a=-0.0, A1=2.0), scalar_model(a0=-1.5, a=-2.0, A0=0.3, space=Canonical(0, 1)),
              scalar_model(a0=0.0, a=-0.0, A0=0.0, A1=0.0, space=Canonical(0, 1))]
    ray_model = scalar_model(a0=0.5, A1=1.0, K=[None, ExponentialRay(0.7, 5.0, [1.0])])
    kernel_only = [golden.compound_poisson(), k0_atom_model(), ray_model, STEEP_ATOM_MODEL, golden.wishart_2d()]
    edges = [0.0, -0.0, 5e-324, -2.5e-320, 1e-310, -1.0, 1.0, 1e154, -3e154, 1e200, -1e308, 1.7e308,
             math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(45)
    for model, is_scalar in [(m, True) for m in scalar] + [(m, False) for m in kernel_only]:
        p = model.dim
        parts = [np.array([(re, im) for re in edges for im in edges])] if p == 1 else []
        parts.append(rng.normal(size=(400, 2 * p)) * 10.0 ** rng.uniform(-4.0, 3.0, size=(400, 1)))
        parts.append(rng.normal(size=(50, 2 * p)) * 10.0 ** rng.uniform(150.0, 307.0, size=(50, 1)))
        states = np.hstack([rng.normal(size=(sum(map(len, parts)), 2)), np.vstack(parts)])
        r_switch = 30.0 * (1.0 + rng.uniform(0.0, 5.0))
        stages = [riccati._stages(model, r_switch)]
        if is_scalar:
            stages.append(riccati._scalar_stages(model, r_switch))
        ref_rhs, ref_rhs_s = reference_stages(model, r_switch)
        with np.errstate(over="ignore", invalid="ignore"):
            for y in states:
                y_s = np.append(y, rng.uniform())
                want, want_s = ref_rhs(0.5, y).tobytes(), ref_rhs_s(0.5, y_s).tobytes()
                for rhs, rhs_s in stages:
                    assert rhs(0.5, y).tobytes() == want, (model, y)
                    assert rhs_s(0.5, y_s).tobytes() == want_s, (model, y_s)


def test_the_scalar_stages_leave_every_solve_and_ray_unchanged(monkeypatch):
    # Solves of the p = 1 models without jumps, once on the scalar stages and
    # once with the selection sending every model to the kernel's stages: the
    # same grid, states, brackets, stats and interior values, bit for bit,
    # in both phases, exploding and solved, and the same rays of CIR.
    rng = np.random.default_rng(2045)
    cases = []
    for k in range(150):
        model = (golden.squared_scalar(), golden.cir(), golden.ou())[k % 3]
        kind, u = k % 4, rng.uniform(0.05, 6.0)
        if kind == 0:  # past the blow-up time 1/u of psi' = psi^2
            cases.append((model, [u], rng.uniform(1.1, 4.0) / u))
        elif kind == 1:  # short of it, past the switch radius
            cases.append((model, [u], (1.0 - 10.0 ** -rng.uniform(1.5, 3.0)) / u))
        elif kind == 2:
            cases.append((model, [complex(rng.normal(), rng.normal(0.0, 10.0))], rng.uniform(0.1, 2.0)))
        else:
            cases.append((model, [-u], rng.uniform(0.01, 3.0)))
    times = np.sort(rng.uniform(0.0, 1.0, 5))

    def records():
        out, kinds = [], set()
        for model, u, horizon in cases:
            sol = solve_riccati(model, u, horizon)
            psi0, psi = sol.eval(times * sol.t_last)
            out.append((sol.grid.tobytes(), sol.psi0.tobytes(), sol.psi.tobytes(), repr(sol.bracket), sol.stats,
                        psi0.tobytes(), psi.tobytes()))
            kinds.add((sol.verdict, sol.stats.steps_s > 0))
        assert kinds == {("exploded", True), ("solved", True), ("solved", False)}
        rays = [effective_domain_ray(golden.cir(), d, t) for d in ([1.0], [-1.0]) for t in (0.1, 2.0)]
        return out + [(ray.lambda_star, ray.bracket, ray.probes) for ray in rays]

    build, built = riccati._scalar_stages, []
    monkeypatch.setattr(riccati, "_scalar_stages", lambda *args: built.append(1) or build(*args))
    scalar = records()
    assert len(built) > len(cases)
    monkeypatch.setattr(riccati, "_scalar_stages", riccati._kernel_stages)
    assert records() == scalar


def counting_evaluations(monkeypatch):
    """A list that grows by one on each evaluation of R in a solve: the
    fail-fast riccati_rhs at u and each call of a trial stage that
    riccati._stages builds, on the kernel's path or the scalar one."""
    calls = []

    def counted(fun):
        return lambda *args: calls.append(1) or fun(*args)

    rhs, stages = riccati.riccati_rhs, riccati._stages
    monkeypatch.setattr(riccati, "riccati_rhs", counted(rhs))
    monkeypatch.setattr(riccati, "_stages", lambda model, r_switch: tuple(map(counted, stages(model, r_switch))))
    return calls


def test_two_phase_solves_count_every_kernel_call(squared_model, monkeypatch):
    # The runs count their calls: the first derivative (the fail-fast check
    # at u, handed to phase 1), the first-step probes, 12 per attempt and 3
    # for the interpolant that locates the stopping event.
    calls = counting_evaluations(monkeypatch)
    for u, horizon, verdict in (([2.0], 10.0, "exploded"), ([0.5], 1.99, "solved")):
        calls.clear()
        sol = solve_riccati(squared_model, u, horizon)
        stats = sol.stats
        assert sol.verdict == verdict and stats.steps_t > 0 and stats.steps_s > 0
        assert stats.stop_reason == ("radius" if verdict == "exploded" else "horizon")
        assert stats.nfev == 2 + 2 + 12 * (stats.steps_t + stats.steps_s + stats.rejected) + 3
        assert len(calls) == stats.nfev


def test_step_budget_is_checked_in_phase_two(squared_model, monkeypatch):
    # Each phase of psi' = psi^2 from u = 2 fits a budget that the two
    # phases together pass two steps before the end, which has 3 calls for
    # the event's interpolant: the solve ends in phase 2, past the switch
    # time.
    sol = solve_riccati(squared_model, [2.0], 10.0)
    stats = sol.stats
    max_steps = (stats.nfev - 3 - 2 * 12) // 20
    for steps in (stats.steps_t, stats.steps_s):
        assert 0 < steps and 2 + 12 * (steps + stats.rejected) + 3 <= 20 * max_steps
    monkeypatch.setattr(riccati, "MAX_STEPS", max_steps)
    with pytest.raises(StepLimitExceeded, match=rf"^exceeded {max_steps} steps at t=") as info:
        solve_riccati(squared_model, [2.0], 10.0)
    assert float(str(info.value).split("t=")[1]) >= float(f"{sol.grid[stats.steps_t]:.6g}")


def test_no_stray_runtime_warnings(cp_model):
    # exp(0.8 u) in R_0 overflows at t = 0 on the compound-Poisson +1 ray
    # beyond lambda ~ 886, and e^y - 1 - y overflows where its step size
    # underflows: both outcomes are typed, without a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ray = effective_domain_ray(cp_model, [1.0], 0.7)
        sol = solve_riccati(self_exciting_model(), [1.0], 10.0)
    # An overflow of psi_0 alone is not blow-up: psi = u is constant, so the
    # ray never leaves the domain, and the certificate at lambda_max says so.
    assert ray.bracket is None and ray.lambda_star == np.inf
    assert ray.probes == [(1.0, None, "exceeds_horizon"), (1e6, None, "exceeds_horizon")]
    assert sol.exploded and sol.stats.stop_reason == "overflow"
    want = oracles.explosion_time_1d(lambda y: np.exp(y) - 1.0 - y, 1.0)
    assert sol.bracket[0] < want < sol.bracket[1]
    assert abs(0.5 * sum(sol.bracket) - want) < 1e-10 * want


def rhs_per_measure(model, y):
    # The right-hand side as one term per coefficient and per jump measure.
    p = model.dim
    out = np.empty(p + 1, dtype=complex)
    out[0] = model.a0 @ y + 0.5 * (y @ model.A[0] @ y)
    out[1:] = model.a.T @ y + 0.5 * np.einsum("i,kij,j->k", y, model.A[1:], y)
    for i, meas in enumerate(model.K):
        if meas is not None:
            out[i] += meas.exp_moment(y)
    return out


def random_measure(rng, p, family):
    direction = rng.normal(size=p)
    direction /= np.linalg.norm(direction)
    ray = ExponentialRay(rng.uniform(0.1, 2.0), rng.uniform(3.0, 6.0), direction)
    if family == "atoms":
        n = int(rng.integers(1, 4))
        return FiniteAtomic(rng.normal(size=n), 0.5 * rng.normal(size=(n, p)))
    if family == "ray":
        return ray
    if family == "tabulated":
        return ray.tabulated(n_nodes=int(rng.integers(8, 64)))
    return None


def random_model(seed, wishart):
    rng = np.random.default_rng(seed)
    p = 3 if wishart else int(rng.integers(2, 4))
    space = PSDCone(2) if wishart else Canonical(int(rng.integers(0, p + 1)), p)
    b = rng.normal(size=(p, p))
    sym = rng.normal(size=(p, p, p))
    A = np.concatenate([[b @ b.T], sym + sym.transpose(0, 2, 1)])
    # All three families on distinct indices, random measures on the rest.
    families = ["atoms", "ray", "tabulated"]
    families += list(rng.choice(["atoms", "ray", "tabulated", "none"], size=p - 2))
    K = [random_measure(rng, p, f) for f in rng.permutation(families)]
    return AffineModel(rng.normal(size=p), rng.normal(size=(p, p)), A, K, space)


def k_per_measure(model, x, y):
    # k(x, y) as one term per coefficient and per jump measure.
    out = 0.5 * (y @ diffusion_at(model, x) @ y)
    for coeff, meas in zip(np.concatenate([[1.0], x]), model.K):
        if meas is not None:
            out += coeff * meas.exp_moment(y).real
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wishart=st.booleans(), y_seed=st.integers(0, 2**32 - 1))
def test_fused_rhs_matches_per_measure_formula(seed, wishart, y_seed):
    model = random_model(seed, wishart)
    rng = np.random.default_rng(y_seed)
    y = rng.uniform(-1.0, 1.0, model.dim) + 1j * rng.uniform(-1.0, 1.0, model.dim)
    y *= rng.uniform(0.0, 1.0) / np.linalg.norm(y)
    x = model.state_space.project(rng.normal(size=model.dim))
    y_real = rng.uniform(-1.0, 1.0, model.dim)
    y_real *= rng.uniform(0.0, 1.0) / np.linalg.norm(y_real)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureTailWarning)
        got = riccati_rhs(model, y)
        want = rhs_per_measure(model, y)
        got_k = k_eval(model, x, y_real)
        want_k = k_per_measure(model, x, y_real)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
    assert abs(got_k - want_k) <= 1e-13 * (1.0 + abs(want_k))


def test_fused_rhs_reads_merged_sources():
    # One (rate, direction) ray in K^0 and K^2, one atom in K^1 and K^3, and
    # a tabulated node (K^4) on an atom of K^3: each pair shares a source.
    z1, z2, z3 = [0.2, -0.1, 0.3, 0.0], [0.0, 0.4, -0.2, 0.1], [-0.3, 0.0, 0.1, 0.2]
    d = np.array([1.0, 1.0, -1.0, 1.0]) / 2.0
    K = [
        ExponentialRay(0.5, 3.0, d),
        FiniteAtomic([0.3, 0.2], [z1, z2]),
        ExponentialRay(0.7, 3.0, d),
        FiniteAtomic([0.4, 0.1], [z1, z3]),
        TabulatedDensity([0.2, 0.3, 0.1], [z3, [0.1, 0.1, 0.1, 0.1], [0.2, 0.2, 0.2, 0.2]]),
    ]
    rng = np.random.default_rng(3)
    A = np.zeros((5, 4, 4))
    A[0] = np.eye(4)
    model = AffineModel(rng.normal(size=4), rng.normal(size=(4, 4)), A, K, Canonical(4, 4))
    assert model.jump_points.shape == (5, 4) and len(model.jump_rays) == 1
    assert np.array_equal(model.jump_coefs[[0, 2]], [[0, 0.3, 0, 0.4, 0], [0, 0, 0, 0.1, 0.2]])
    assert np.array_equal(model.jump_rays[0][2], [0.5, 0.0, 0.7, 0.0, 0.0])
    x = np.array([0.5, 1.0, 0.2, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureTailWarning)
        for _ in range(10):
            y = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
            want = rhs_per_measure(model, y)
            assert np.all(np.abs(riccati_rhs(model, y) - want) <= 1e-13 * (1.0 + np.abs(want)))
            want_k = k_per_measure(model, x, y.real)
            assert abs(k_eval(model, x, y.real) - want_k) <= 1e-13 * (1.0 + abs(want_k))


def test_fused_rhs_keeps_measure_checks():
    ray = ExponentialRay(1.0, 2.0, [1.0])
    m = scalar_model(A1=1.0, K=[FiniteAtomic([1.0], [[0.5]]), ray])
    with pytest.raises(DivergentIntegral):
        riccati_rhs(m, [2.5])
    # A solve checks the tail of a tabulated density once, not every call.
    short = TabulatedDensity([1.0, 1.0], [[0.5], [1.0]])
    m = scalar_model(A1=1.0, K=[FiniteAtomic([1.0], [[0.5]]), short])
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureTailWarning)
        riccati_rhs(m, [0.3])
    with pytest.warns(QuadratureTailWarning) as record:
        solve_riccati(m, [0.3], 0.1)
    assert len(record) == 1


def packed_rhs(model):
    def fun(t, y):
        return riccati_rhs(model, y.view(complex)[1:]).view(float)
    return fun


def reference_run(model, u, horizon, radius):
    """The own stepping loop and solve_ivp on the same packed right-hand
    side, first step and terminal events, and the number of accepted steps
    they share: those of a bare DOP853 run up to and including the first
    one with a rejected attempt (all of them without one), after which the
    loop's predictive limit may shorten the next step."""
    fun = packed_rhs(model)
    y0 = np.concatenate([[0.0], np.asarray(u, dtype=complex)]).view(float)
    first = select_initial_step(
        fun, 0.0, y0, horizon, fun(0.0, y0), REL_TOL, ABS_TOL, (slice(None), slice(2, None))
    )
    events, _ = riccati._make_events(model, radius)
    for event in events:
        event.terminal, event.direction = True, 1
    own = DOP853(fun, 0.0, y0, horizon, REL_TOL, ABS_TOL, first, slice(2, None)).advance(events)
    ref = solve_ivp(fun, (0.0, horizon), y0, method="DOP853", rtol=REL_TOL, atol=ABS_TOL,
                    first_step=first, dense_output=True, events=events)
    grid, _ = bare_run(fun, y0, horizon, first)
    return own, ref, len(grid) - 1


def bare_run(fun, y0, horizon, first):
    """The grid and states of a bare DOP853 run (scipy's steps), up to the
    horizon or the end of the first step with a rejected attempt."""
    solver = DOP853(fun, 0.0, y0, horizon, REL_TOL, ABS_TOL, first)
    grid, ys = [0.0], [y0]
    while not solver.finished and not solver.rejected and solver.step():
        grid.append(solver.t)
        ys.append(solver.y)
    return np.array(grid), np.array(ys)


def close(a, b):
    return np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1e-300) + 1e-300)


@pytest.mark.parametrize("name, u", [
    ("cir", [0.5]), ("cir", [-1.0 + 3.0j]), ("ou", [0.3 - 1.0j]), ("compound_poisson", [0.7 + 2.0j]),
    ("wishart_2d", [-0.4, 0.1j, -0.3]), ("lorentz_drift", [0.2, 0.1, -0.1j]),
])
def test_own_loop_matches_solve_ivp(name, u):
    # Only cir at 0.5 rejects an attempt (in its fifth step); the other runs
    # are solve_ivp's step for step.
    model = getattr(golden, name)()
    own, ref, n = reference_run(model, u, 1.5, R_MAX)
    assert ref.status == 0 and own.event is None and not own.failed
    assert own.rejected == (1 if (name, u) == ("cir", [0.5]) else 0)
    assert np.array_equal(own.grid[:n + 1], ref.t[:n + 1])
    assert own.rejected or np.array_equal(own.grid, ref.t)
    assert close(own.ys[-1], ref.y[:, -1])
    mid = 0.5 * (ref.t[1:n + 1] + ref.t[:n])
    assert close(np.array([own(x) for x in mid]), ref.sol(mid).T)
    # solve_riccati takes the loop's steps and ends at the same value.
    sol = solve_riccati(model, u, 1.5)
    assert np.array_equal(sol.grid, own.grid)
    psi0, psi = sol.eval(mid)
    assert close(np.column_stack([psi0, psi]), ref.sol(mid).T.copy().view(complex))


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0, 5.0])
def test_own_loop_matches_solve_ivp_on_blow_up(squared_model, u):
    own, ref, n = reference_run(squared_model, [u], 10.0, R_MAX)
    assert ref.status == 1 and own.event == 0 and 0 < n < own.n_steps
    assert np.array_equal(own.grid[:n + 1], ref.t[:n + 1])
    t_event = ref.t_events[0][0]
    assert close(own.grid[-1], t_event) and own.ys[-1][0] == ref.y[0, -1] == 0.0
    # The event state lies on |psi| = R_MAX to brentq's tolerance in t,
    # times the slope |psi|^2.
    assert abs(own.ys[-1][2] - R_MAX) <= R_MAX**2 * ROOT_TOL * (1.0 + t_event)
    inner = ref.t[n - 1] + np.linspace(0.0, 1.0, 7) * (ref.t[n] - ref.t[n - 1])
    assert close(np.array([own(x) for x in inner]), ref.sol(inner).T)


@pytest.mark.parametrize("name", ["cir", "ou", "compound_poisson", "wishart_2d", "lorentz_drift"])
def test_rejection_free_solves_are_the_steppers_own(name):
    # The predictive limit engages only after a rejected attempt, so a solve
    # without one is a bare DOP853 run bit for bit, as before the limit.
    model = getattr(golden, name)()
    fun = packed_rhs(model)
    for v in (0.25j, 0.5j, 1j, 2j, 4j, 16j, -0.5, 0.1, 0.3):
        sol = solve_riccati(model, v * np.ones(model.dim), 1.0)
        y0 = np.concatenate([[0.0], sol.u]).view(float)
        first = select_initial_step(
            fun, 0.0, y0, 1.0, fun(0.0, y0), REL_TOL, ABS_TOL, (slice(None), slice(2, None))
        )
        grid, ys = bare_run(fun, y0, 1.0, first)
        assert sol.stats.rejected == 0 and np.array_equal(sol.grid, grid), (name, v)
        assert np.array_equal(np.column_stack([sol.psi0, sol.psi]).view(float), ys), (name, v)


# Bit-for-bit values of the solver on the golden models, as float.hex
# strings of interleaved real and imaginary parts: for u = scale * (1, ..., 1),
# riccati_rhs(model, u), the terminal (psi_0, psi) of solve_riccati(model, u,
# 1.0) and its stats.nfev.
GOLDEN_PINS = {
    ("squared_scalar", 0.3): (
        "0x0.0p+0 0x0.0p+0 0x1.70a3d70a3d70ap-4 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.b6db6db6d05e0p-2 0x0.0p+0",
        62,
    ),
    ("squared_scalar", 0.5j): (
        "0x0.0p+0 0x0.0p+0 -0x1.0000000000000p-2 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 -0x1.999999999c5b8p-3 0x1.999999999b3c9p-2",
        74,
    ),
    ("cir", 0.3): (
        "0x1.3333333333333p-2 0x0.0p+0 0x1.70a3d70a3d70ap-4 0x0.0p+0",
        "0x1.6d3c324e02977p-2 0x0.0p+0 0x1.b6db6db6d3244p-2 0x0.0p+0",
        50,
    ),
    ("cir", 0.5j): (
        "0x0.0p+0 0x1.0000000000000p-1 -0x1.0000000000000p-2 0x0.0p+0",
        "-0x1.c8ff7c79aa0fcp-4 0x1.dac670561d3c8p-2 -0x1.999999999af55p-3 "
        "0x1.9999999999384p-2",
        86,
    ),
    ("ou", 0.3): (
        "0x1.70a3d70a3d70ap-5 0x0.0p+0 -0x1.3333333333333p-2 0x0.0p+0",
        "0x1.3ec00013ee023p-6 0x0.0p+0 0x1.c40cdda9c725fp-4 0x0.0p+0",
        74,
    ),
    ("ou", 0.5j): (
        "-0x1.0000000000000p-3 0x0.0p+0 0x0.0p+0 -0x1.0000000000000p-1",
        "-0x1.bab5557102f0ap-5 0x0.0p+0 0x0.0p+0 0x1.78b56362cfff8p-3",
        74,
    ),
    ("compound_poisson", 0.3): (
        "0x1.3f09c58a922c6p-2 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.3f09c58a922c8p-2 0x0.0p+0 0x1.3333333333333p-2 0x0.0p+0",
        38,
    ),
    ("compound_poisson", 0.5j): (
        "-0x1.e6a0f69acc0a0p-6 0x1.fc9c1b64d81bdp-2 0x0.0p+0 0x0.0p+0",
        "-0x1.e6a0f69acc0a0p-6 0x1.fc9c1b64d81c2p-2 0x0.0p+0 0x1.0000000000000p-1",
        38,
    ),
    ("wishart_2d", 0.3): (
        "0x1.cccccccccccccp+0 0x0.0p+0 -0x1.eb851eb851eb8p-6 0x0.0p+0 0x1.eb851eb851eb8p-5 "
        "0x0.0p+0 -0x1.eb851eb851eb8p-6 0x0.0p+0",
        "0x1.bd923af3e6a9ep+0 0x0.0p+0 0x1.243cf17a2e45fp-2 0x0.0p+0 0x1.68a030bc01b45p-2 "
        "0x0.0p+0 0x1.243cf17a2e45fp-2 0x0.0p+0",
        62,
    ),
    ("wishart_2d", 0.5j): (
        "0x0.0p+0 0x1.8000000000000p+1 -0x1.8000000000000p-1 -0x1.0000000000000p-1 "
        "-0x1.0000000000000p+0 -0x1.0000000000000p-1 -0x1.8000000000000p-1 "
        "-0x1.0000000000000p-1",
        "-0x1.35744cb570d84p-1 0x1.827e74b1a9033p+0 -0x1.545cc17ec87fdp-4 "
        "0x1.93ca166d6cd4ep-4 -0x1.a97b277586f90p-4 0x1.0d4fce197476ap-4 "
        "-0x1.545cc17ec87fdp-4 0x1.93ca166d6cd4ep-4",
        182,
    ),
    ("lorentz_drift", 0.3): (
        "0x1.3333333333333p-2 0x0.0p+0 -0x1.3333333333333p-2 0x0.0p+0 -0x1.3333333333333p-2 "
        "0x0.0p+0 -0x1.3333333333333p-2 0x0.0p+0",
        "0x1.845ff7917fc5ep-3 0x0.0p+0 0x1.c40cdda9cd40fp-4 0x0.0p+0 0x1.c40cdda9cd40fp-4 "
        "0x0.0p+0 0x1.c40cdda9cd40fp-4 0x0.0p+0",
        62,
    ),
    ("lorentz_drift", 0.5j): (
        "0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0 -0x1.0000000000000p-1 0x0.0p+0 "
        "-0x1.0000000000000p-1 0x0.0p+0 -0x1.0000000000000p-1",
        "0x0.0p+0 0x1.43a54e4e9556ap-2 0x0.0p+0 0x1.78b56362d552cp-3 0x0.0p+0 "
        "0x1.78b56362d552cp-3 0x0.0p+0 0x1.78b56362d552cp-3",
        62,
    ),
    ("nonadmissible_2d", 0.3): (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.70a3d70a3d70ap-4 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.20a4f0897824ep-2 0x0.0p+0 0x1.9c59579fc7b33p-2 0x0.0p+0",
        38,
    ),
    ("nonadmissible_2d", 0.5j): (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.0000000000000p-2 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 -0x1.f81f81f81e3b3p-6 0x1.1b91b91b91be4p-1 -0x1.f81f81f81f8eap-3 "
        "0x1.b91b91b91baa4p-2",
        98,
    ),
}


def hex_floats(z):
    return " ".join(float(v).hex() for v in np.asarray(z, dtype=complex).view(float))


def test_golden_solves_pinned():
    for (name, scale), (rhs, terminal, nfev) in GOLDEN_PINS.items():
        model = getattr(golden, name)()
        u = scale * np.ones(model.dim)
        sol = solve_riccati(model, u, 1.0)
        psi0, psi = sol.terminal()
        assert hex_floats(riccati_rhs(model, u)) == rhs, (name, scale)
        assert hex_floats(np.concatenate([[psi0], psi])) == terminal, (name, scale)
        assert sol.stats.nfev == nfev, (name, scale)


def test_predictive_limit_stops_alternating_rejections(squared_model, cir_model):
    # Without the limit, phase 1 of y' = y^2 rejected every other attempt
    # (33 steps, 32 rejected, 1,267 RHS calls) and CIR at 0.999 took 895
    # RHS calls.
    sol = solve_riccati(squared_model, [1.0], 10.0)
    assert sol.exploded and sol.stats.rejected <= 3 and sol.stats.nfev <= 950
    assert abs(0.5 * sum(sol.bracket) - 1.0) < 1e-6
    assert solve_riccati(cir_model, [0.999], 1.0).stats.nfev < 895


# Solves that switch to the time-changed phase, pinned bit for bit: the
# blow-up bracket as hex floats and (nfev, steps_t, steps_s, rejected).
SWITCHING_PINS = {
    ("squared_scalar", 1.0): (("0x1.ffffff94c751ap-1", "0x1.ffffffbfba6f6p-1"), (919, 33, 41, 2)),
    ("cir", 3.1): (("0x1.4a5293eb99ec8p-2", "0x1.4a5294074f8c0p-2"), (859, 30, 38, 3)),
}


def test_switching_solves_pinned():
    for (name, u), (bracket, counts) in SWITCHING_PINS.items():
        sol = solve_riccati(getattr(golden, name)(), [u], 10.0)
        stats = sol.stats
        assert tuple(b.hex() for b in sol.bracket) == bracket, (name, u)
        assert (stats.nfev, stats.steps_t, stats.steps_s, stats.rejected) == counts, (name, u)
        assert stats.stop_reason == "radius"
    # A phase-2 solve that ends at its horizon: psi(1) = u / (1 - u) = 999.
    sol = solve_riccati(golden.cir(), [0.999], 1.0)
    psi0, psi = sol.terminal()
    assert sol.stats.stop_reason == "horizon" and sol.stats.steps_s == 10
    assert sol.grid[sol.stats.steps_t].hex() == "0x1.f840e9401e3abp-1"  # the switch time
    assert sol.grid[-1] == 1.0
    assert hex_floats(np.concatenate([[psi0], psi])) == "0x1.ba18a98879710p+2 0x0.0p+0 0x1.f37fff7fce3dep+9 0x0.0p+0"
    # A complex psi in phase 2: the last step end before the radius event
    # moves if |R| is computed with Python's complex abs instead of numpy's.
    sol = solve_riccati(golden.nonadmissible_2d(), [1 + 1j, 1 + 1j], 1.0)
    assert (sol.stats.nfev, sol.stats.steps_s) == (955, 43)
    assert sol.grid[-2].hex() == "0x1.ffffff7064952p-1"
    assert hex_floats(sol.psi[-2]) == (
        "0x1.c7fcf5837cb5ep+25 0x1.5d48aa04a8e6fp-2 0x1.515bab8d48080p-1 0x1.c7fcf6037cb5fp+25"
    )
    # The bracket of a ray, whose probes run to blow-up.
    ray = effective_domain_ray(golden.cir(), [1.0], 0.7)
    assert tuple(b.hex() for b in ray.bracket) == ("0x1.6db6daf319d58p+0", "0x1.6db6e11413a06p+0")


def two_atom_model():
    """Atoms in K^0 (weight 1 at z = 1) and K^1 (weight 0.3 at z = 0.1): at
    u = 700, psi_0 leaves float range within the first steps, and psi goes
    on into the time-changed phase."""
    return scalar_model(a0=0.1, a=-0.5, A0=0.2, A1=0.5,
                        K=[FiniteAtomic([1.0], [[1.0]]), FiniteAtomic([0.3], [[0.1]])])


def pin_text(values):
    """Hex floats of a real array, or a digest of them when they are long."""
    text = " ".join(float(v).hex() for v in np.ravel(values))
    return text if len(text) <= 120 else hashlib.sha256(text.encode()).hexdigest()[:24]


def held_pin(model, u, horizon):
    sol = solve_riccati(model, [u], horizon)
    s = sol.stats
    out = None if s.psi0_overflow is None else s.psi0_overflow.hex()
    if out is not None:  # from its drop on, psi_0 reads NaN in both halves
        dropped = sol.psi0[sol.grid > s.psi0_overflow]
        assert np.isnan(dropped.real).all() and np.isnan(dropped.imag).all()
    psi0, psi = sol.eval(np.linspace(0.0, sol.t_last, 37))
    return ((s.nfev, s.steps_t, s.steps_s, s.rejected, s.stop_reason, out), pin_text(sol.grid),
            pin_text(np.column_stack([psi0, psi]).view(float)))


# Solves in which psi_0 leaves float range and the stepper drops it, pinned
# bit for bit: (nfev, steps_t, steps_s, rejected, stop_reason,
# psi0_overflow), the grid and eval at 37 even times up to the last solved
# time (hex floats, or their digest). A drop costs no rejected attempt.
HELD_MODELS = {"k0_atom": k0_atom_model, "compound_poisson": golden.compound_poisson, "two_atom": two_atom_model}
HELD_PINS = {
    ('k0_atom', 1.0, 10.0): (
        (17599, 22, 1443, 1, 'horizon', '0x1.1bb02b4cb7666p+3'),
        '0bd6356b2573d8e94e8a6879',
        '75a388d2c4dee76a97e43d30',
    ),
    ('k0_atom', 1.0, 8.8605): (
        (17455, 22, 1431, 1, 'horizon', None),
        '28efd466824ff6f7ea26fe60',
        'ec96e9fe10b35705787f8e3f',
    ),
    ('compound_poisson', 500.0, 1.0): (
        (122, 10, 0, 0, 'horizon', None),
        '184fe35659e8835ee9cd6dc3',
        'b9dbc40ab10b36e81c9ba24a',
    ),
    ('compound_poisson', 886.75, 1.0): (
        (86, 7, 0, 0, 'horizon', '0x0.0p+0'),
        '1cc213d5da3f153ffe44cde3',
        '4573ae62e56f3ea8d5750dd6',
    ),
    ('compound_poisson', 887.0, 1.0): (
        (86, 7, 0, 0, 'horizon', '0x0.0p+0'),
        '1cc213d5da3f153ffe44cde3',
        '97dd14464ea5e0c23270b1fb',
    ),
    ('compound_poisson', 888.0, 1.0): (
        (86, 7, 0, 0, 'horizon', '0x0.0p+0'),
        '1cc213d5da3f153ffe44cde3',
        'b4648887e1cb23116c169834',
    ),
    ('compound_poisson', 1000000.0, 1.0): (
        (86, 7, 0, 0, 'horizon', '0x0.0p+0'),
        '1cc213d5da3f153ffe44cde3',
        '3e4ad9d56e05a97ba94f0c41',
    ),
    ('two_atom', 700.0, 1.0): (
        (583, 1, 41, 6, 'overflow', '0x1.4a06f30e42f10p-97'),
        'ad7185d5e58c69e96b75e118',
        'eceac6e606fa7fd8b4060537',
    ),
}


def test_held_solves_pinned():
    for (name, u, horizon), pin in HELD_PINS.items():
        assert held_pin(HELD_MODELS[name](), u, horizon) == pin, (name, u, horizon)
