import numpy as np
import pytest

from affinejd.cone import cone_leq, interior_preservation_check, monotonicity_check, regularity_Lu_check
from affinejd.errors import UnsupportedFamily, UnsupportedSpace
from affinejd.jumps import FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel
from affinejd.statespace import Canonical, HalfSpaceIntersection, Lorentz, Parabolic, PSDCone, vech

# Each self-dual cone with the homogeneity degree of its boundary function.
CONES_WITH_DEGREE = [(Canonical(2, 2), 2), (Canonical(3, 3), 3), (PSDCone(2), 2), (Lorentz(3), 2)]
CONES = [cone for cone, _ in CONES_WITH_DEGREE]
CONE_IDS = [repr(cone) for cone in CONES]


def _sample_in_cone(cone, rng):
    return cone.project(rng.normal(size=cone.dim) * 2.0)


def test_cone_leq_examples():
    orth = Canonical(2, 2)
    assert cone_leq(orth, [1.0, 1.0], [1.0, 1.0])
    assert cone_leq(orth, [1.0, 1.0], [2.0, 1.0])
    assert not cone_leq(orth, [1.0, 1.0], [0.0, 3.0])
    lor = Lorentz(3)
    assert cone_leq(lor, [0.0, 0.0, 0.0], [2.0, 1.0, 1.0])
    assert not cone_leq(lor, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_phi_examples():
    assert Canonical(3, 3).phi([1.0, 2.0, 3.0]) == 6.0
    assert np.isclose(PSDCone(2).phi(vech(np.eye(2))), 1.0)
    assert Lorentz(3).phi([2.0, 1.0, 1.0]) == 2.0


@pytest.mark.parametrize("cone, degree", CONES_WITH_DEGREE, ids=CONE_IDS)
def test_phi_sign_pattern(cone, degree):
    rng = np.random.default_rng(31)
    for _ in range(60):
        x = _sample_in_cone(cone, rng)
        if cone._margin_rows(x[None, :])[0] > 1e-8:
            assert cone.phi(x) > 0.0
        elif cone.contains(x, tol=1e-12):
            assert abs(cone.phi(x)) < 1e-10 * max(1.0, np.linalg.norm(x)) ** degree


@pytest.mark.parametrize("cone, degree", CONES_WITH_DEGREE, ids=CONE_IDS)
def test_phi_homogeneity_degree(cone, degree):
    rng = np.random.default_rng(32)
    for _ in range(30):
        x = rng.normal(size=cone.dim)
        alpha = 0.3 + 2.0 * rng.random()
        lhs = cone.phi(alpha * x)
        rhs = alpha**degree * cone.phi(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("cone", CONES, ids=CONE_IDS)
def test_partial_order_on_samples(cone):
    rng = np.random.default_rng(33)
    for _ in range(40):
        u = _sample_in_cone(cone, rng)
        v = u + _sample_in_cone(cone, rng)
        w = v + _sample_in_cone(cone, rng)
        assert cone_leq(cone, u, u, tol=1e-12)  # reflexive
        assert cone_leq(cone, u, v, tol=1e-9) and cone_leq(cone, v, w, tol=1e-9)
        assert cone_leq(cone, u, w, tol=1e-8)  # transitive
        if cone_leq(cone, v, u, tol=1e-12):  # antisymmetric
            assert np.linalg.norm(u - v) < 1e-12


@pytest.mark.parametrize("cone", CONES, ids=CONE_IDS)
def test_self_duality_sampled(cone):
    rng = np.random.default_rng(34)
    members = [_sample_in_cone(cone, rng) for _ in range(40)]
    for x in members:
        for y in members[:10]:
            assert np.dot(x, y) >= -1e-10
    for _ in range(40):
        z = rng.normal(size=cone.dim) * 2.0
        if not cone.contains(z, tol=1e-8):
            # Moreau decomposition: the projection residual is a separating
            # cone member with inner product -dist(z, cone)^2.
            w = cone.project(z) - z
            assert cone.contains(w, tol=1e-8)
            assert np.dot(z, w) < -1e-12


def test_non_cone_spaces_rejected():
    for space in (Canonical(1, 2), Parabolic(2), HalfSpaceIntersection([[1.0, 0.0]], [1.0])):
        assert not space.self_dual
        with pytest.raises(UnsupportedSpace):
            space.phi(np.ones(2))
        model = AffineModel(a0=np.zeros(2), a=np.zeros((2, 2)), A=np.zeros((3, 2, 2)), K=None,
                            state_space=space)
        # Refused before any solve: these arguments would also fail the -E
        # precondition, which raises ValueError.
        with pytest.raises(UnsupportedSpace):
            monotonicity_check(model, np.ones(2), np.ones(2), 1.0)
        with pytest.raises(UnsupportedSpace):
            interior_preservation_check(model, np.ones(2), 1.0)
        with pytest.raises(UnsupportedSpace):
            regularity_Lu_check(model, np.ones(2))


def test_monotonicity_cir_closed_form(cir_model):
    res = monotonicity_check(cir_model, [-2.0], [-1.0], 1.0)
    assert res.passed
    assert res.psi0_margin >= 0.0
    same = monotonicity_check(cir_model, [-1.5], [-1.5], 1.0)
    assert same.passed
    assert abs(same.psi0_margin) < 1e-12
    assert same.cone_slack < 1e-12


def test_monotonicity_precondition():
    m = AffineModel(
        a0=[1.0], a=[[0.0]], A=[[[0.0]], [[2.0]]], K=None, state_space=Canonical(1, 1)
    )
    with pytest.raises(ValueError):
        monotonicity_check(m, [1.0], [2.0], 1.0)  # not in -E
    with pytest.raises(ValueError):
        monotonicity_check(m, [-1.0], [-2.0], 1.0)  # wrong order


def test_monotonicity_wishart_random_pairs(wishart_model):
    rng = np.random.default_rng(35)
    for _ in range(10):
        b = rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2))
        v = -vech(c @ c.T)
        u = v - vech(b @ b.T)
        res = monotonicity_check(wishart_model, u, v, 0.8)
        assert res.passed, (res.psi0_margin, res.cone_slack, res.slack_tol)


def test_interior_preservation_cir(cir_model):
    res = interior_preservation_check(cir_model, [-1.0], 5.0)
    assert res.passed
    # Closed form psi(t) = -1/(1+t): still interior at t = 5.
    assert res.min_phi > 0.0
    res_c = interior_preservation_check(cir_model, [-1.0 + 4.0j], 5.0)
    assert res_c.passed


def test_interior_preservation_precondition(cir_model):
    with pytest.raises(ValueError):
        interior_preservation_check(cir_model, [0.0], 1.0)  # boundary case


def test_interior_preservation_wishart(wishart_model):
    rng = np.random.default_rng(36)
    for _ in range(5):
        b = rng.normal(size=(2, 2))
        u = -vech(b @ b.T + 0.05 * np.eye(2))
        res = interior_preservation_check(wishart_model, u, 1.0)
        assert res.passed, (res.cone_slack, res.slack_tol)


def test_regularity_examples(cir_model):
    assert not regularity_Lu_check(cir_model, [1.0])  # no jumps
    base = dict(a0=[1.0], a=[[0.0]], A=np.zeros((2, 1, 1)), state_space=Canonical(1, 1))
    on = AffineModel(K=[None, FiniteAtomic([1.0], [[1.0]])], **base)
    assert regularity_Lu_check(on, [1.0])
    lattice = AffineModel(K=[None, FiniteAtomic([1.0], [[2.0 * np.pi]])], **base)
    assert not regularity_Lu_check(lattice, [1.0])
    # Only the K^1 weight of an atom that K^0 also holds counts.
    shared = AffineModel(K=[FiniteAtomic([5.0], [[1.0]]), FiniteAtomic([-1.0], [[1.0]])], **base)
    assert not regularity_Lu_check(shared, [1.0])


def test_regularity_needs_atomic_measures():
    m = AffineModel(
        a0=[1.0], a=[[0.0]], A=np.zeros((2, 1, 1)),
        K=[None, TabulatedDensity([0.5], [[1.0]])], state_space=Canonical(1, 1),
    )
    with pytest.raises(UnsupportedFamily):
        regularity_Lu_check(m, [1.0])
