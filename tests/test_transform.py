import math
import sys

import numpy as np
import pytest

import oracles
from affinejd import golden
from affinejd.errors import DimensionMismatch, ExplosionBeforeHorizon, StateSpaceMismatch, UnsupportedFamily
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel
from affinejd.riccati import REL_TOL, solve_riccati
from affinejd.statespace import Canonical, vech
from affinejd.transform import (
    damped_model,
    damped_transform_sequence,
    effective_domain_ray,
    infinite_divisibility_check,
    scaled_model,
    transform,
)


def test_transform_trivial(cir_model):
    tv = transform(cir_model, [0.0], [1.0], 1.0)
    assert tv.finite
    assert abs(tv.value - 1.0) < 1e-12


def test_transform_cir_closed_form(cir_model):
    tv = transform(cir_model, [0.5], [1.0], 1.0)
    assert tv.finite
    assert abs(tv.value - 2.0 * np.e) < 1e-7


def test_transform_explosive_branch(cir_model):
    tv = transform(cir_model, [2.0], [1.0], 1.0)  # blow-up at t = 1/2 < 1
    assert tv.kind == "explosive"
    assert tv.value is None


def test_transform_complex_blow_up_raises(bad_model):
    # In v = u_1 + i u_2 the fixture's equation is v' = v^2/2; u = (0, -i)
    # gives v(0) = 1 and blow-up at t = 2, while psi stays 0 at Re u = 0:
    # T*(u) >= T*(Re u) fails, as it cannot on an admissible model.
    u = [0.0, -1.0j]
    before = transform(bad_model, u, [0.3, -0.2], 1.5)
    want = oracles.planar_quadratic_psi(1.5, u)
    assert before.finite
    assert np.max(np.abs(before.psi - want)) < 1e-8
    with pytest.raises(ExplosionBeforeHorizon, match=r"bracket \(1\.99999") as err:
        transform(bad_model, u, [0.3, -0.2], 2.5)
    assert "Re u reaches t=2.5" in str(err.value) and "affinejd validate" in str(err.value)


def test_transform_complex_blow_up_raises_at_later_times(bad_model):
    u = [0.0, -1.0j]
    for t in (2.1, 3.0, 5.0):
        with pytest.raises(ExplosionBeforeHorizon, match=r"bracket \(1\.99999"):
            transform(bad_model, u, [0.0, 0.0], t)


def test_transform_complex_blow_up_with_real_part_raises(bad_model):
    # v(0) = 1 again (u_1 - i u_2 = -0.6 stays bounded), but Re u != 0; the
    # real solve at Re u = (0.2, 0) runs first and reaches t = 2.5 (it blows
    # up at t = 10); the complex solve then blows up at t = 2.
    with pytest.raises(ExplosionBeforeHorizon, match=r"bracket \(1\.99999") as err:
        transform(bad_model, [0.2, -0.8j], [0.0, 0.0], 2.5)
    assert "Re u reaches t=2.5" in str(err.value)


def test_transform_solves_re_u_once_and_first(cir_model, monkeypatch):
    calls = []

    def recording(model, u, t):
        calls.append(complex(u[0]))
        return solve_riccati(model, u, t)

    # The package's `transform` attribute is the function, not the module.
    monkeypatch.setattr(sys.modules["affinejd.transform"], "solve_riccati", recording)
    cases = {0.5: [0.5], 0.5j: [0.5j], 2.0: [2.0], 0.5 + 1j: [0.5, 0.5 + 1j], 2.0 + 1j: [2.0]}
    for u, want in cases.items():
        calls.clear()
        transform(cir_model, [u], [1.0], 1.0)
        assert calls == want, u


def test_transform_not_integrable_branch(cir_model, bad_model):
    # The complex solution at u = 2 + i reaches t = 1 (|1 - u t| > 0), but
    # T*(Re u) = 1/2 < 1: E exp(2 X_1) = inf, so E exp(u X_1) does not exist.
    tv = transform(cir_model, [2.0 + 1.0j], [1.0], 1.0)
    assert tv.kind == "not_integrable"
    assert tv.value is None and tv.log_value is None
    assert "bracket" in tv.diagnostic
    # The complex solution at u = 2 + 1e-9 i would blow up next to
    # T*(2) = 1/2; the real one at Re u = 2, solved first, does.
    tv = transform(cir_model, [2.0 + 1e-9j], [1.0], 1.0)
    assert tv.kind == "not_integrable"
    assert tv.value is None and tv.log_value is None
    assert "bracket (0.49999" in tv.diagnostic
    # u = (1.5, 0.5i) on the fixture: u_1 - i u_2 = 2 blows up at t = 1, and
    # the real solution at Re u = (1.5, 0) at t = 4/3 < 2.5.
    tv = transform(bad_model, [1.5, 0.5j], [0.0, 0.0], 2.5)
    assert tv.kind == "not_integrable"
    assert "bracket (1.33333" in tv.diagnostic
    # T*(1/2) = 2 > 1: the closed form holds.
    u = 0.5 + 1.0j
    tv = transform(cir_model, [u], [1.0], 1.0)
    assert tv.finite
    assert abs(tv.psi[0] - oracles.cir_psi(1.0, u)) < 1e-8
    assert abs(tv.psi0 - oracles.cir_psi0(1.0, u)) < 1e-8


def test_transform_psi0_overflow_is_finite(cp_model):
    # psi = u stays finite, so the moment exists; psi_0 = R_0(u) t with
    # R_0(1000) ~ 0.25 e^800 is past float range and no value is asserted.
    tv = transform(cp_model, [1000.0], [1.0], 1.0)
    assert tv.kind == "finite" and tv.psi[0] == 1000.0
    assert tv.value is None and tv.log_value is None and tv.psi0 is None
    assert "psi_0 is out of float range after t=0.0" in tv.diagnostic


def test_transform_near_a_psi0_overflow_has_a_finite_log_value():
    # psi = e^t, and R_0 = psi^2 / 2 + expm1(psi / 10) - psi / 10 leaves float
    # range at t ~ 8.86526; at t = 8.8605, psi_0 ~ 1.75e303 is representable,
    # and the horizon falls in a step whose dense output needs rescaling.
    m = AffineModel(a0=[0.0], a=[[1.0]], A=[[[1.0]], [[0.0]]], K=[FiniteAtomic([1.0], [[0.1]]), None],
                    state_space=Canonical(0, 1))
    tv = transform(m, [1.0], [0.0], 8.8605)
    assert tv.kind == "finite" and tv.value is None
    assert np.isfinite(tv.log_value) and 1e303 < tv.log_value.real < 1e304
    assert "exp(log_value) overflows" in tv.diagnostic


def test_transform_rejects_states_outside_space(cir_model):
    from affinejd.errors import StateSpaceMismatch

    with pytest.raises(StateSpaceMismatch):
        transform(cir_model, [0.5], [-1.0], 1.0)


def test_nan_horizon_names_the_argument(cir_model):
    from affinejd.riccati import explosion_time

    nan = math.nan
    for call, name in [
        (lambda: solve_riccati(cir_model, [0.5], nan), "horizon"),
        (lambda: explosion_time(cir_model, [0.5], nan), "t_max"),
        (lambda: transform(cir_model, [0.5], [1.0], nan), "t must"),
        (lambda: effective_domain_ray(cir_model, [1.0], nan), "horizon"),
    ]:
        with pytest.raises(ValueError, match=name):
            call()


def test_bad_arguments_are_refused_up_front(cir_model):
    # A wrong-length or NaN direction would fail every probe, and bisection
    # would drive lambda towards 0 without end; u is checked at t = 0 too.
    with pytest.raises(DimensionMismatch, match="direction has length 2"):
        effective_domain_ray(cir_model, [1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="direction must be finite"):
        effective_domain_ray(cir_model, [math.nan], 1.0)
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        effective_domain_ray(cir_model, [0.0], 1.0)
    with pytest.raises(DimensionMismatch, match="u has length 2"):
        transform(cir_model, [1.0, 2.0], [1.0], 0.0)
    # A NaN u is no overflow of exp(log_value), at t = 0 or later.
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="u must be finite"):
            transform(cir_model, [math.nan], [1.0], t)


@pytest.mark.parametrize("name", ["cir", "ou", "compound_poisson", "wishart_2d", "lorentz_drift"])
def test_complex_moment_bounded_by_real_moment(name):
    # On an admissible model T*(u) >= T*(Re u) and |E exp(u.X_t)| <=
    # E exp(Re u.X_t) (Keller-Ressel & Mayerhofer, AAP 2015): where the real
    # solve reaches t, transform is finite. The bound is compared on the log
    # scale to the solver's accuracy, since lorentz_drift is deterministic
    # and meets it with equality.
    model = getattr(golden, name)()
    rng = np.random.default_rng(2015)
    kept = 0
    for _ in range(12):
        u = rng.normal(size=model.dim) + 2j * rng.normal(size=model.dim)
        x = model.state_space.project(rng.normal(size=model.dim))
        t = rng.uniform(0.2, 1.5)
        if solve_riccati(model, u.real, t).exploded:
            continue
        kept += 1
        tv, real = transform(model, u, x, t), transform(model, u.real, x, t)
        assert tv.finite and real.finite
        scale = 1.0 + abs(real.psi0) + np.abs(real.psi) @ np.abs(x)
        assert tv.log_value.real <= real.log_value.real + REL_TOL * scale
    assert kept >= 6


def test_characteristic_function_bound(cir_model, cp_model, ou_model):
    rng = np.random.default_rng(21)
    for model in (cir_model, cp_model, ou_model):
        for _ in range(40):
            y = rng.normal(size=model.dim) * 3.0
            x = model.state_space.project(rng.normal(size=model.dim) * 2.0)
            t = 0.1 + 1.4 * rng.random()
            tv = transform(model, 1j * y, x, t)
            assert tv.finite
            assert abs(tv.value) <= 1.0 + 1e-9


def test_transform_conjugate_symmetry(cp_model):
    u = np.array([-0.4 + 1.3j])
    a = transform(cp_model, u, [1.0], 0.8)
    b = transform(cp_model, np.conj(u), [1.0], 0.8)
    assert a.finite and b.finite
    assert abs(b.value - np.conj(a.value)) < 1e-10


def test_transform_monotone_in_horizon(cir_model):
    # Finite at t implies finite at every earlier time (real argument).
    u = [0.8]
    assert transform(cir_model, u, [1.0], 1.2).finite
    for t in (0.3, 0.6, 0.9, 1.19):
        assert transform(cir_model, u, [1.0], t).finite


def test_transform_tower_property(cir_model):
    u = np.array([0.4 + 0.5j])
    s, t = 0.35, 0.45
    x = np.array([1.0])
    whole = transform(cir_model, u, x, s + t)
    sol = solve_riccati(cir_model, u, s)
    psi0_s, psi_s = sol.eval(s)
    inner = transform(cir_model, psi_s, x, t)
    composed = np.exp(psi0_s) * inner.value
    assert abs(whole.value - composed) < 1e-9


def test_ray_probe_cir(cir_model):
    probe = effective_domain_ray(cir_model, [1.0], 1.0)
    assert probe.bounded
    assert abs(probe.lambda_star - 1.0) < 1e-5
    assert probe.bracket_width <= 1e-6 * probe.bracket[1] * 1.001


def test_ray_probe_unbounded_direction(cir_model):
    probe = effective_domain_ray(cir_model, [-1.0], 1.0, lambda_max=64.0)
    assert not probe.bounded
    assert math.isinf(probe.lambda_star)
    # Below 2, the doubling reaches lambda_max before any certificate.
    probe = effective_domain_ray(cir_model, [-1.0], 1.0, lambda_max=1.5)
    assert math.isinf(probe.lambda_star)
    assert [(lam, verdict) for lam, _, verdict in probe.probes] == [(1.0, "exceeds_horizon"), (1.5, "exceeds_horizon")]


def test_ray_probe_propagates_programming_errors(cir_model, monkeypatch):
    # Only the errors of a solve count as leaving the domain; a bug must
    # surface.
    def broken(*args, **kwargs):
        raise TypeError("bug inside the probe")

    # The package re-exports the function transform, which shadows the module.
    monkeypatch.setattr(sys.modules["affinejd.transform"], "solve_riccati", broken)
    with pytest.raises(TypeError, match="bug inside the probe"):
        effective_domain_ray(cir_model, [1.0], 1.0)


def test_ray_probe_grows_as_horizon_shrinks(cir_model):
    probe = effective_domain_ray(cir_model, [1.0], 1e-6, lambda_max=1e7)
    # lambda_star = 1/T for this model; at T = 1e-6 it is far out on the ray.
    assert probe.lambda_star > 1e5


def test_damped_model_atom_example():
    m = AffineModel(
        a0=[0.0], a=[[0.0]], A=np.zeros((2, 1, 1)),
        K=[FiniteAtomic([1.0], [[1.0]]), None], state_space=Canonical(1, 1),
    )
    d = damped_model(m, 1)
    assert np.isclose(d.K[0].weights[0], np.exp(-1.0))
    assert np.isclose(d.a0[0], np.exp(-1.0) - 1.0)
    big = damped_model(m, 10**6)
    assert abs(big.K[0].weights[0] - 1.0) < 1e-6
    assert abs(big.a0[0]) < 1e-6


DRIFT_JUMP_MODEL = AffineModel(
    a0=[0.5], a=[[-0.3]], A=[[[0.0]], [[0.4]]],
    K=[None, FiniteAtomic([0.5, 0.2], [[0.6], [1.5]])], state_space=Canonical(1, 1),
)


def test_damped_model_shifts_the_drift_column_of_its_measure():
    # A measure in K^1 shifts a^1, the first column of a, by
    # sum_j w_j z_j (exp(-z_j^2/n) - 1), and leaves a^0 alone.
    w, z = np.array([0.5, 0.2]), np.array([0.6, 1.5])
    for n in (1, 10, 100):
        d = damped_model(DRIFT_JUMP_MODEL, n)
        assert np.isclose(d.a[0, 0], -0.3 + np.sum(w * z * (np.exp(-z * z / n) - 1.0)), rtol=1e-14, atol=0.0)
        assert d.a0[0] == 0.5 and np.allclose(d.K[1].weights, w * np.exp(-z * z / n), rtol=1e-14, atol=0.0)
    assert np.isclose(damped_model(DRIFT_JUMP_MODEL, 10).a[0, 0], -0.37105, atol=1e-5)


def test_damped_sequence_with_state_dependent_jumps_converges():
    u = [-0.3 + 1.0j]
    undamped = transform(DRIFT_JUMP_MODEL, u, [1.0], 1.0)
    diag = damped_transform_sequence(DRIFT_JUMP_MODEL, u, [1.0], 1.0, [1, 10, 100, 1000, 10000])
    errs = [abs(v - undamped.value) for v in diag.values]
    # The damping moves the law by O(1/n).
    assert all(0.05 < b / a < 0.25 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 5e-5


def test_transform_at_t_zero(cir_model):
    tv = transform(cir_model, [-0.5 + 2.0j], [1.5], 0.0)
    assert tv.finite and tv.psi0 == 0.0 and np.array_equal(tv.psi, [-0.5 + 2.0j])
    assert tv.log_value == -0.75 + 3.0j and tv.value == np.exp(-0.75 + 3.0j)
    big = transform(cir_model, [800.0], [1.0], 0.0)
    assert big.finite and big.value is None and big.log_value == 800.0
    assert "exp(log_value) overflows" in big.diagnostic


def test_damped_model_without_jumps_is_identity(cir_model):
    assert damped_model(cir_model, 7) is cir_model


def test_damped_model_ray_unsupported():
    m = AffineModel(
        a0=[1.0], a=[[0.0]], A=np.zeros((2, 1, 1)),
        K=[ExponentialRay(1.0, 3.0, [1.0]), None], state_space=Canonical(1, 1),
    )
    with pytest.raises(UnsupportedFamily):
        damped_model(m, 10)


def test_damped_sequence_constant_for_pure_diffusion(cir_model):
    diag = damped_transform_sequence(cir_model, [-0.5 + 1.0j], [1.0], 1.0, [10, 100])
    assert diag.values[0] == diag.values[1]
    assert diag.cauchy_diffs == [0.0]


def test_damped_sequence_at_zero_is_one(cp_model):
    diag = damped_transform_sequence(cp_model, [0.0], [1.0], 1.0, [10, 100])
    assert all(abs(v - 1.0) < 1e-12 for v in diag.values)


def test_damped_sequence_converges_to_undamped(cp_model):
    u = [-1.0 + 2.0j]
    undamped = transform(cp_model, u, [1.0], 1.0)
    diag = damped_transform_sequence(cp_model, u, [1.0], 1.0, [10, 100, 1000])
    errs = [abs(v - undamped.value) for v in diag.values]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_damped_sequence_checks_x_and_t_without_a_damping(cp_model):
    # An empty n_list calls no transform, so the state and the time are
    # checked before the loop.
    with pytest.raises(ValueError, match="^state"):
        damped_transform_sequence(cp_model, [0.3j], [math.nan], math.nan, [])
    with pytest.raises(StateSpaceMismatch):
        damped_transform_sequence(cp_model, [0.3j], [-1.0], 0.5, [])
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^t must be nonnegative and finite$"):
            damped_transform_sequence(cp_model, [0.3j], [0.5], t, [])
    assert damped_transform_sequence(cp_model, [0.3j], [0.5], 0.5, []).values == []


def test_damped_sequence_requires_u_in_U(cp_model):
    with pytest.raises(ValueError):
        damped_transform_sequence(cp_model, [1.0 + 1.0j], [1.0], 1.0, [10])


def test_scaled_model_identity_and_examples(cir_model):
    same = scaled_model(cir_model, 1)
    assert np.array_equal(same.A, cir_model.A)
    doubled = scaled_model(cir_model, 2)
    assert np.array_equal(doubled.A, 2.0 * cir_model.A)
    m = AffineModel(
        a0=[0.0], a=[[0.0]], A=np.zeros((2, 1, 1)),
        K=[FiniteAtomic([3.0], [[0.5]]), None], state_space=Canonical(1, 1),
    )
    s = scaled_model(m, 2)
    assert np.allclose(s.K[0].weights, [1.5])
    assert np.allclose(s.K[0].atoms, [[1.0]])


def test_scaled_model_tabulated_unsupported():
    m = AffineModel(
        a0=[1.0], a=[[0.0]], A=np.zeros((2, 1, 1)),
        K=[TabulatedDensity([0.5], [[0.5]]), None], state_space=Canonical(1, 1),
    )
    with pytest.raises(UnsupportedFamily):
        scaled_model(m, 2)


def test_divisibility_residual_trivial(cir_model):
    assert infinite_divisibility_check(cir_model, [0.3], 0.5, 1) < 1e-13


def test_divisibility_residual_gaussian(ou_model):
    for u in (0.4, -1.2, 0.3 + 0.8j):
        assert infinite_divisibility_check(ou_model, [u], 0.8, 3) < 1e-9


def test_divisibility_residual_cir(cir_model):
    assert infinite_divisibility_check(cir_model, [0.3], 0.5, 2) < 1e-8


def test_divisibility_residual_compound_poisson(cp_model):
    assert infinite_divisibility_check(cp_model, [-0.6 + 0.9j], 0.7, 4) < 1e-9


def test_transform_log_value(cir_model):
    tv = transform(cir_model, [0.5], [1.0], 1.0)
    assert abs(tv.log_value - (np.log(2.0) + 1.0)) < 1e-9
    assert tv.value == np.exp(tv.log_value)
    # exp(log_value) overflows: the verdict stays finite, the value is None.
    big = transform(cir_model, [0.9], [1000.0], 1.0)
    assert big.finite and big.value is None
    assert abs(big.log_value - (np.log(10.0) + 9000.0)) < 1e-5
    assert "overflows" in big.diagnostic


def test_ray_probe_cir_secant(cir_model):
    # 1/T*(lambda) = lambda here, so the secant lands on lambda_star at once.
    for horizon in (0.6, 1.0, 1.7):
        probe = effective_domain_ray(cir_model, [1.0], horizon)
        assert len(probe.probes) <= 8
        assert abs(probe.lambda_star - 1.0 / horizon) <= 1e-5 / horizon
        lo, hi = probe.bracket
        assert lo <= probe.lambda_star <= hi and hi - lo <= 1e-6 * hi


def test_ray_probe_wishart_secant(wishart_model):
    rng = np.random.default_rng(17)
    for _ in range(3):
        b = rng.normal(size=(2, 2)) * 0.7
        direction = vech(b @ b.T + 0.1 * np.eye(2))
        direction /= np.linalg.norm(direction)
        probe = effective_domain_ray(wishart_model, direction, rng.uniform(0.5, 1.5))
        assert len(probe.probes) <= 10
        lo, hi = probe.bracket
        assert lo <= probe.lambda_star <= hi and hi - lo <= 1e-6 * hi
        # Verdicts are monotone in lambda and agree with the bracket.
        verdicts = sorted((lam, kind == "finite") for lam, _, kind in probe.probes)
        leaves = [v for _, v in verdicts]
        assert leaves == sorted(leaves)
        assert all(leave == (lam >= hi) for lam, leave in verdicts)


def test_ray_probe_integrability_boundary_past_horizon():
    # psi = lambda/(1 - lambda t) reaches the ray rate 3 at t = 1 when
    # lambda = 3/4; probes just below that fail past the horizon only.
    m = AffineModel(a0=[0.5], a=[[0.0]], A=[[[0.0]], [[2.0]]],
                    K=[ExponentialRay(1.0, 3.0, [1.0]), None], state_space=Canonical(1, 1))
    probe = effective_domain_ray(m, [1.0], 1.0)
    assert abs(probe.lambda_star - 0.75) <= 1e-5 * 0.75
    for lam, _, kind in probe.probes:
        assert (kind == "DivergentIntegral") == (lam >= probe.bracket[1])
