import warnings

import numpy as np
import pytest

import oracles
from affinejd import golden
from affinejd.errors import (
    DimensionMismatch,
    DivergentIntegral,
    ModelFormatError,
    QuadratureTailWarning,
    UnsupportedFamily,
)
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel
from affinejd.statespace import Canonical


def test_zero_argument_vanishes():
    measures = [
        FiniteAtomic([2.0, -0.5], [[1.0], [0.3]]),
        ExponentialRay(1.0, 3.0, [1.0]),
        TabulatedDensity([0.1, 0.2], [[0.5], [1.0]]),
    ]
    for m in measures:
        assert m.exp_moment([0.0]) == 0.0


def test_atomic_hand_value():
    m = FiniteAtomic([2.0], [[1.0]])
    assert np.isclose(m.exp_moment([1.0]), 2.0 * (np.e - 2.0), rtol=1e-15)


def test_ray_closed_form_value():
    m = ExponentialRay(1.0, 3.0, [1.0])
    assert np.isclose(m.exp_moment([1.0]), 1.0 / 6.0, rtol=1e-14)


@pytest.mark.parametrize("a", [0.5, -2.0, 1.5 + 2.0j, -0.3 + 4.0j, 2.9])
def test_ray_matches_quadrature_oracle(a):
    mass, rate = 1.7, 3.0
    m = ExponentialRay(mass, rate, [1.0])
    got = m.exp_moment([a])
    want = oracles.ray_exp_moment_quadrature(mass, rate, a)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_ray_divergence_raises():
    m = ExponentialRay(1.0, 3.0, [1.0])
    with pytest.raises(DivergentIntegral):
        m.exp_moment([3.0])
    with pytest.raises(DivergentIntegral):
        m.exp_moment([4.0 + 1.0j])


@pytest.mark.filterwarnings("ignore::affinejd.errors.QuadratureTailWarning")
def test_real_argument_gives_real_nonnegative_for_nonnegative_measures():
    rng = np.random.default_rng(0)
    measures = [
        FiniteAtomic(rng.random(4), rng.normal(size=(4, 2))),
        ExponentialRay(0.7, 2.5, [0.6, 0.8]),
        TabulatedDensity(rng.random(8), rng.normal(size=(8, 2)) * 0.2),
    ]
    for m in measures:
        for _ in range(25):
            y = rng.normal(size=2)
            if isinstance(m, ExponentialRay) and np.dot(y, m.direction) >= m.rate:
                continue
            val = m.exp_moment(y)
            assert abs(val.imag) < 1e-14 * max(1.0, abs(val))
            assert val.real >= -1e-14


def test_non_finite_argument_is_refused_by_name():
    measures = [FiniteAtomic([1.0], [[1.0]]), ExponentialRay(1.0, 3.0, [1.0]), TabulatedDensity([0.5], [[1.0]])]
    measures += [m for m in golden.compound_poisson().K if m is not None]
    for m in measures:
        for y in ([np.nan], [np.inf], [complex(0.0, np.inf)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^y must be finite$"):
                    m.exp_moment(y)


def test_wrong_length_argument_is_named():
    message = "y has length 2, the measure has dimension 1"
    measures = [FiniteAtomic([1.0], [[1.0]]), ExponentialRay(1.0, 3.0, [1.0]), TabulatedDensity([0.5], [[1.0]])]
    for m in measures:
        with pytest.raises(DimensionMismatch, match=message):
            m.exp_moment([1.0, 2.0])


def test_damping_shifts():
    m = FiniteAtomic([1.0], [[1.0]])
    damped, shift = m.damped(1)
    assert np.isclose(damped.weights[0], np.exp(-1.0), rtol=1e-15)
    assert np.isclose(shift[0], np.exp(-1.0) - 1.0, rtol=1e-14)
    damped_big, shift_big = m.damped(10**6)
    assert abs(damped_big.weights[0] - 1.0) < 1e-6
    assert abs(shift_big[0]) < 1e-6


def test_damping_unsupported_for_ray():
    with pytest.raises(UnsupportedFamily):
        ExponentialRay(1.0, 3.0, [1.0]).damped(10)


def test_scaling_pushforward():
    m = FiniteAtomic([3.0], [[0.5]])
    s = m.scaled(2)
    assert np.allclose(s.weights, [1.5])
    assert np.allclose(s.atoms, [[1.0]])
    with pytest.raises(UnsupportedFamily):
        TabulatedDensity([0.5], [[1.0]]).scaled(2)


def test_scaling_preserves_exp_moment_identity():
    # integral (e^{y z'} - 1 - y z') dK_n(z') = (1/n) integral at n y of dK.
    m = FiniteAtomic([0.4, 1.1], [[0.3], [0.9]])
    n = 5
    y = 0.37
    lhs = m.scaled(n).exp_moment([y])
    rhs = m.exp_moment([n * y]) / n
    assert abs(lhs - rhs) < 1e-14


def test_ray_tabulation_matches_closed_form():
    ray = ExponentialRay(1.2, 3.0, [1.0])
    tab = ray.tabulated(n_nodes=4000)
    got = tab.exp_moment([0.8])
    want = ray.exp_moment([0.8])
    assert abs(got - want) < 5e-4 * abs(want) + 1e-8


def test_tabulated_tail_warning():
    # A grid that stops where the integrand is still large.
    nodes = np.linspace(0.1, 1.0, 10)[:, None]
    m = TabulatedDensity(np.full(10, 0.1), nodes)
    with pytest.warns(QuadratureTailWarning):
        m.exp_moment([3.0])


def test_weighted_point_families_share_one_implementation():
    weights, points = [0.1, 0.2], [[0.5], [1.5]]
    atomic, tabulated = FiniteAtomic(weights, points), TabulatedDensity(weights, points)
    for y in ([0.3], [-1.0 + 2.0j]):
        with pytest.warns(QuadratureTailWarning):  # two nodes: a short grid
            assert atomic.exp_moment(y) == tabulated.exp_moment(y)
    for m in (atomic, tabulated):
        damped, shift = m.damped(4)
        assert type(damped) is type(m)
        assert damped.to_dict()["family"] == m.family
    # The quadrature tail warning belongs to tabulated densities only.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        atomic.exp_moment([3.0])
    with pytest.warns(QuadratureTailWarning):
        tabulated.exp_moment([3.0])


def test_atoms_must_be_nonzero():
    with pytest.raises(ModelFormatError):
        FiniteAtomic([1.0], [[0.0]])


def test_ray_validation():
    with pytest.raises(ModelFormatError):
        ExponentialRay(1.0, -3.0, [1.0])
    with pytest.raises(ModelFormatError):
        ExponentialRay(1.0, 3.0, [1.0, 1.0])


def _jump_table_model(K):
    p = len(K) - 1
    return AffineModel(a0=np.zeros(p), a=np.zeros((p, p)), A=np.zeros((p + 1, p, p)), K=K,
                       state_space=Canonical(p, p))


def test_combined_sources_groups_matching_atoms():
    k0 = FiniteAtomic([2.0], [[1.0, 0.0]])
    k1 = FiniteAtomic([-1.0, 0.5], [[1.0, 0.0], [0.0, 2.0]])
    m = _jump_table_model([k0, k1, None])
    locs, coefs, rays = m.jump_points, m.jump_coefs, m.jump_rays
    assert locs.shape == (2, 2)
    assert not rays
    # Combined weight at the shared atom: 2 - x_1.
    shared = np.where((locs == [1.0, 0.0]).all(axis=1))[0][0]
    assert np.allclose(coefs[shared], [2.0, -1.0, 0.0])


@pytest.mark.parametrize("points", [[[-1e308], [-5e307]], [[3e296], [2e296]]])
def test_distinct_huge_atoms_keep_their_own_rows(points):
    # Rounding to 12 decimals scales by 1e12, which once took both atoms to
    # the same infinite key and merged them into one row, with a warning.
    m = _jump_table_model([FiniteAtomic([0.5, 0.25], points), None])
    assert m.jump_points.tolist() == points
    assert m.jump_coefs[:, 0].tolist() == [0.5, 0.25]
    # Atoms that agree to 12 decimals still share a row.
    m = _jump_table_model([FiniteAtomic([0.5, 0.25], [[0.1], [0.1 + 1e-14]]), None])
    assert m.jump_points.tolist() == [[0.1]] and m.jump_coefs[:, 0].tolist() == [0.75]


def test_combined_sources_rays_grouped_by_rate_and_direction():
    r0 = ExponentialRay(1.0, 2.0, [1.0])
    r1 = ExponentialRay(0.5, 2.0, [1.0])
    rays = _jump_table_model([r0, r1]).jump_rays
    assert len(rays) == 1
    rate, _, coef = rays[0]
    assert rate == 2.0
    assert np.allclose(coef, [1.0, 0.5])
