import math
import sys

import numpy as np
import pytest

import oracles
from affinejd.errors import DimensionMismatch, UnsupportedFamily
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel
from affinejd.riccati import solve_riccati
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


def test_transform_zero_region_branch(bad_model):
    # In v = u_1 + i u_2 the fixture's equation is v' = v^2/2; u = (0, -i)
    # gives v(0) = 1 and blow-up at t = 2, with Re u = 0 so u lies in U.
    u = [0.0, -1.0j]
    before = transform(bad_model, u, [0.3, -0.2], 1.5)
    want = oracles.planar_quadratic_psi(1.5, u)
    assert before.finite
    assert np.max(np.abs(before.psi - want)) < 1e-8
    after = transform(bad_model, u, [0.3, -0.2], 2.5)
    assert after.kind == "zero_region"
    assert after.value == 0.0


def test_transform_zero_region_absorbing(bad_model):
    u = [0.0, -1.0j]
    for t in (2.1, 3.0, 5.0):
        assert transform(bad_model, u, [0.0, 0.0], t).kind == "zero_region"


def test_transform_unknown_branch(bad_model):
    # v(0) = 1 again (u_1 - i u_2 = -0.6 stays bounded), but Re u != 0, so u
    # is outside U and non-real; the real solution at Re u = (0.2, 0) reaches
    # t = 2.5, blowing up at t = 10.
    tv = transform(bad_model, [0.2, -0.8j], [0.0, 0.0], 2.5)
    assert tv.kind == "unknown"
    assert "1.99999" in tv.diagnostic


def test_transform_not_integrable_branch(cir_model, bad_model):
    # The complex solution at u = 2 + i reaches t = 1 (|1 - u t| > 0), but
    # T*(Re u) = 1/2 < 1: E exp(2 X_1) = inf, so E exp(u X_1) does not exist.
    tv = transform(cir_model, [2.0 + 1.0j], [1.0], 1.0)
    assert tv.kind == "not_integrable"
    assert tv.value is None and tv.log_value is None
    assert "bracket" in tv.diagnostic
    # Blow-up branch: the complex solution at u = 2 + 1e-9 i blows up next
    # to T*(2) = 1/2, and so does the real one at Re u = 2.
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
    with pytest.raises(DimensionMismatch, match="u has length 2"):
        transform(cir_model, [1.0, 2.0], [1.0], 0.0)


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


def test_ray_probe_propagates_programming_errors(cir_model, monkeypatch):
    # Only the errors of a solve count as leaving the domain; a bug must
    # surface.
    def broken(*args, **kwargs):
        raise TypeError("bug inside the probe")

    # The package re-exports the function transform, which shadows the module.
    monkeypatch.setattr(sys.modules["affinejd.transform"], "explosion_time", broken)
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
