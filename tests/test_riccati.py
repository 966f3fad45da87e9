import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import oracles
from affinejd import golden, riccati
from affinejd.errors import (
    DimensionMismatch,
    DivergentIntegral,
    ExplosionBeforeHorizon,
    QuadratureTailWarning,
)
from affinejd.integrator import select_initial_step
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
from affinejd.statespace import Canonical, PSDCone
from affinejd.transform import effective_domain_ray


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
    with pytest.raises(ValueError, match="s >= 0 and t > 0"):
        flow_identity_residual(cir_model, [0.3], nan, 0.5)
    with pytest.raises(ValueError, match="s >= 0 and t > 0"):
        flow_identity_residual(cir_model, [0.3], 0.5, nan)
    for call in (
        lambda: variation_of_constants_residual(cir_model, [0.3], [1.0], nan),
        lambda: infinite_divisibility_check(cir_model, [0.3], nan, 2),
        lambda: monotonicity_check(cir_model, [-1.0], [-0.5], nan),
        lambda: interior_preservation_check(cir_model, [-0.5], nan),
    ):
        with pytest.raises(ValueError, match="t must be positive"):
            call()


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
    lo, hi = dense._dense_s.x[k - 1], dense._dense_s.x[k]
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
    # e^y - 1 - y outruns every surface before the switch: the step underflows.
    sol = solve_riccati(self_exciting_model(), [1.0], 10.0)
    assert sol.exploded and sol.stats.stop_reason == "step_underflow"
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


def test_solve_counts_steps_and_builds_no_interpolant(monkeypatch):
    # Every right-hand-side call goes through the module-global riccati_rhs.
    calls = []
    rhs = riccati.riccati_rhs
    monkeypatch.setattr(riccati, "riccati_rhs", lambda model, y: calls.append(1) or rhs(model, y))
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
        assert len(calls) == 1 + stats.nfev  # plus the fail-fast check at u
        assert (psi0, psi[0]) == (sol.psi0[-1], sol.psi[-1, 0])
    # Phase 1 of a blow-up rejects steps as psi steepens.
    sol = solve_riccati(golden.squared_scalar(), [1.0], 10.0)
    assert sol.stats.rejected > 0 and sol.stats.steps_s > 0


def test_no_stray_runtime_warnings(cp_model):
    # exp(0.8 u) in R_0 overflows at t = 0 on the compound-Poisson +1 ray
    # beyond lambda ~ 886, and e^y - 1 - y overflows where its step size
    # underflows: both outcomes are typed, without a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ray = effective_domain_ray(cp_model, [1.0], 0.7)
        sol = solve_riccati(self_exciting_model(), [1.0], 10.0)
    # The ray's verdicts pin the current behaviour, which reads the overflow
    # of psi_0 alone as blow-up (ROADMAP correctness backlog).
    assert ray.bracket == (886.65185546875, 886.65234375)
    assert ray.lambda_star == 886.652099609375
    assert [kind for _, _, kind in ray.probes].count("NonFiniteRHS") == 3
    assert sol.exploded and sol.stats.stop_reason == "step_underflow"
    assert abs(sol.bracket[0] - 0.7791182046695493) < 1e-12


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
    side, first step and terminal events."""
    fun = packed_rhs(model)
    y0 = np.concatenate([[0.0], np.asarray(u, dtype=complex)]).view(float)
    first = select_initial_step(
        fun, 0.0, y0, horizon, fun(0.0, y0), REL_TOL, ABS_TOL, (slice(None), slice(2, None))
    )
    events, _ = riccati._make_events(model, radius)
    for event in events:
        event.terminal, event.direction = True, 1
    own = riccati._integrate(fun, 0.0, y0, horizon, events, first)
    ref = solve_ivp(fun, (0.0, horizon), y0, method="DOP853", rtol=REL_TOL, atol=ABS_TOL,
                    first_step=first, dense_output=True, events=events)
    return own, ref, events


def close(a, b):
    return np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1e-300) + 1e-300)


@pytest.mark.parametrize("name, u", [
    ("cir", [0.5]), ("cir", [-1.0 + 3.0j]), ("ou", [0.3 - 1.0j]), ("compound_poisson", [0.7 + 2.0j]),
    ("wishart_2d", [-0.4, 0.1j, -0.3]), ("lorentz_drift", [0.2, 0.1, -0.1j]),
])
def test_own_loop_matches_solve_ivp(name, u):
    model = getattr(golden, name)()
    own, ref, _ = reference_run(model, u, 1.5, R_MAX)
    assert ref.status == 0 and own.event is None and not own.failed
    assert np.array_equal(own.grid, ref.t)
    assert close(own.ys[-1], ref.y[:, -1])
    mid = 0.5 * (ref.t[1:] + ref.t[:-1])
    assert close(np.array([own(x) for x in mid]), ref.sol(mid).T)
    # solve_riccati takes the same steps and ends at the same value.
    sol = solve_riccati(model, u, 1.5)
    assert np.array_equal(sol.grid, ref.t)
    psi0, psi = sol.eval(mid)
    assert close(np.column_stack([psi0, psi]), ref.sol(mid).T.copy().view(complex))


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0, 5.0])
def test_own_loop_matches_solve_ivp_on_blow_up(squared_model, u):
    own, ref, _ = reference_run(squared_model, [u], 10.0, R_MAX)
    assert ref.status == 1 and own.event == 0
    assert np.array_equal(own.grid[:-1], ref.t[:-1])
    t_event = ref.t_events[0][0]
    assert close(own.grid[-1], t_event) and close(own.ys[-1], ref.y[:, -1])
    inner = ref.t[-2] + np.linspace(0.0, 1.0, 7) * (t_event - ref.t[-2])
    assert close(np.array([own(x) for x in inner]), ref.sol(inner).T)


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
        "0x0.0p+0 0x0.0p+0 -0x1.f81f81f81dc1cp-6 0x1.1b91b91b91c46p-1 -0x1.f81f81f81fa66p-3 "
        "0x1.b91b91b91bb2fp-2",
        110,
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
