import ast
import math
import pathlib
import warnings

import numpy as np
import pytest

from affinejd import golden
from affinejd import model as model_mod
from affinejd.errors import DimensionMismatch, ModelFormatError, StateSpaceMismatch
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity, measure_from_dict
from affinejd.model import (
    AffineModel,
    check_admissibility,
    diffusion_at,
    drift_at,
    exponential_moment_condition,
    in_U,
)
from affinejd.riccati import variation_of_constants_residual
from affinejd.simulate import SimConfig, simulate_paths
from affinejd.statespace import Canonical, Lorentz, PSDCone, unvech
from affinejd.transform import transform


def scalar_model(a0=0.0, a=0.0, A0=0.0, A1=0.0, K=None, space=None):
    return AffineModel(
        a0=[a0], a=[[a]], A=[[[A0]], [[A1]]], K=K, state_space=space or Canonical(1, 1)
    )


def test_drift_examples():
    assert np.allclose(drift_at(scalar_model(a0=1.0), [5.0]), [1.0])
    assert np.allclose(drift_at(scalar_model(a=-2.0), [3.0]), [-6.0])
    m = AffineModel(
        a0=[1.0, 0.0],
        a=[[0.0, 1.0], [1.0, 0.0]],
        A=np.zeros((3, 2, 2)),
        K=None,
        state_space=Canonical(0, 2),
    )
    assert np.allclose(drift_at(m, [2.0, 3.0]), [4.0, 2.0])


def test_model_arrays_are_read_only_copies():
    a0, a = np.array([1.0, 0.0]), np.zeros((2, 2))
    m = AffineModel(
        a0=a0,
        a=a,
        A=np.zeros((3, 2, 2)),
        K=[FiniteAtomic([2.0], [[1.0, 0.0]]), ExponentialRay(0.5, 3.0, [0.0, 1.0]), None],
        state_space=Canonical(2, 2),
    )
    a0[0], a[0, 0] = 7.0, 7.0
    assert m.a0[0] == 1.0 and m.a[0, 0] == 0.0
    arrays = [m.a0, m.a, m.A, m.jump_points, m.jump_coefs, m.jump_mean, m.jump_mass,
              m.rhs_linear, m.rhs_quadratic, m.rhs_points, m.rhs_coefs, m.rhs_points0,
              m.rhs_coefs0] + [arr for _, d, c in m.jump_rays for arr in (d, c)]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_diffusion_examples(bad_model):
    ident = AffineModel(
        a0=[0.0, 0.0],
        a=np.zeros((2, 2)),
        A=[np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))],
        K=None,
        state_space=Canonical(0, 2),
    )
    assert np.array_equal(diffusion_at(ident, [7.0, -3.0]), np.eye(2))
    c = diffusion_at(bad_model, [0.4, -1.3])
    assert np.allclose(c, [[0.4, -1.3], [-1.3, -0.4]])
    assert np.array_equal(c, c.T)
    assert np.allclose(diffusion_at(scalar_model(A1=2.0), [3.0]), [[6.0]])


def test_affine_property():
    rng = np.random.default_rng(7)
    m = AffineModel(
        a0=rng.normal(size=3),
        a=rng.normal(size=(3, 3)),
        A=np.stack([np.eye(3)] + [_sym(rng) for _ in range(3)]),
        K=None,
        state_space=Canonical(0, 3),
    )
    for _ in range(50):
        x, y = rng.normal(size=3), rng.normal(size=3)
        alpha = rng.random()
        mix = alpha * x + (1 - alpha) * y
        assert np.allclose(
            drift_at(m, mix),
            alpha * drift_at(m, x) + (1 - alpha) * drift_at(m, y),
            atol=1e-13,
        )
        assert np.allclose(
            diffusion_at(m, mix),
            alpha * diffusion_at(m, x) + (1 - alpha) * diffusion_at(m, y),
            atol=1e-13,
        )


def _sym(rng):
    b = rng.normal(size=(3, 3))
    return b + b.T


def test_dimension_mismatch():
    m = scalar_model()
    cases = [
        (lambda: drift_at(m, [1.0, 2.0]), "^x has length 2"),
        (lambda: diffusion_at(m, [1.0, 2.0]), "^x has length 2"),
        (lambda: AffineModel(a0=[0.0], a=[[0.0]], A=np.zeros((1, 1, 1)), K=None, state_space=Canonical(1, 1)),
         r"^A must hold p\+1=2 matrices of shape \(1,1\), got \(1, 1, 1\)$"),
        (lambda: scalar_model(K=[FiniteAtomic([1.0], [[1.0, 0.0]]), None]),
         r"^K\^0 lives in dimension 2, model has 1$"),
        (lambda: scalar_model(space=Canonical(1, 2)), "^state space has dimension 2, parameters have 1$"),
        (lambda: measure_from_dict(FiniteAtomic([1.0], [[1.0, 0.0]]).to_dict(), 1),
         "^jump measure lives in dimension 2, model has 1$"),
        (lambda: unvech([1.0, 0.0], 2), r"^vech vector has shape \(2,\), expected \(\.\.\., 3\)$"),
        (lambda: Canonical(1, 2).project([1.0]), r"^point has shape \(1,\), expected \(2,\)$"),
    ]
    for build, named in cases:
        with pytest.raises(DimensionMismatch, match=named):
            build()


def test_a_model_without_coordinates_refused():
    # It once reached the symmetry check's max over an empty array, numpy's
    # untyped "zero-size array to reduction operation maximum".
    with pytest.raises(DimensionMismatch, match="^a0 is empty: a model needs dimension p >= 1$"):
        AffineModel(a0=[], a=np.zeros((0, 0)), A=np.zeros((1, 0, 0)), K=None, state_space=Canonical(0, 1))


def test_asymmetric_A_rejected():
    with pytest.raises(ModelFormatError):
        AffineModel(
            a0=[0.0, 0.0],
            a=np.zeros((2, 2)),
            A=[np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2))],
            K=None,
            state_space=Canonical(0, 2),
        )


def test_indefinite_A0_rejected():
    with pytest.raises(ModelFormatError):
        scalar_model(A0=-1.0)


def test_malformed_parameters_are_named():
    from affinejd.modelio import model_from_dict, model_to_dict
    from affinejd.statespace import HalfSpaceIntersection, space_from_dict

    nan = math.nan
    cir = model_to_dict(golden.cir())
    cases = [
        (lambda: scalar_model(a0=nan), "^a0:"),
        (lambda: scalar_model(a=None), "^a:"),
        # numpy would read [true, 0.0, 1.0] as [1.0, 0.0, 1.0].
        (lambda: model_from_dict(dict(model_to_dict(golden.wishart_2d()), a0=[True, 0.0, 1.0])), "^field 'a0':"),
        (lambda: scalar_model(A1=math.inf), "^A:"),
        (lambda: scalar_model(K=5), "K must list"),
        # Each once failed with "AttributeError: ... has no attribute 'dim'".
        (lambda: scalar_model(K=[1, None]), r"^K\^0 must be a jump measure or None, not int$"),
        (lambda: scalar_model(space="canonical"), "^state_space must be a StateSpace, not str$"),
        (lambda: FiniteAtomic([None], [[0.4]]), "finite_atomic: weights"),
        (lambda: TabulatedDensity([0.1], [[nan]]), "tabulated_density: points"),
        (lambda: ExponentialRay(nan, 1.0, [1.0]), "mass"),
        (lambda: ExponentialRay(1.0, "2", [1.0]), "rate"),
        (lambda: ExponentialRay(1.0, 2.0, [nan]), "direction"),
        (lambda: HalfSpaceIntersection([[1.0, None]], [1.0]), "normals"),
        (lambda: space_from_dict({"kind": "psd_cone", "d": 1.5}), "'d'"),
        (lambda: space_from_dict({"kind": "lorentz", "p": True}), "'p'"),
        # Rank-3 atoms once reached numpy's "matmul: ... mismatch in its core
        # dimension" while the model compiled its jumps.
        (lambda: FiniteAtomic([0.5], [[[0.4]]]), r"^finite_atomic: points must form a \(count, dim\) array"),
        (lambda: TabulatedDensity([0.1, 0.2], [[0.4]]), "^tabulated_density: weights and points disagree in count$"),
        (lambda: measure_from_dict({"atoms": []}, 1), "needs a 'family' tag"),
        (lambda: measure_from_dict({"family": "exponential_ray", "mass": 1.0}, 1),
         "^malformed 'exponential_ray' record: 'rate'$"),
        (lambda: model_from_dict([cir]), "^model file must hold a JSON object$"),
        (lambda: model_from_dict(dict(cir, a0=1.0)), r"^field 'a0' has the wrong type \(float\)$"),
        (lambda: model_from_dict(dict(cir, A=[[0.0]])), "^field 'A' must list 2 upper triangles$"),
        (lambda: HalfSpaceIntersection([[1.0], [-1.0]], [1.0]), "disagree in count$"),
        (lambda: HalfSpaceIntersection([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0]), "normal must be nonzero$"),
        (lambda: space_from_dict({"p": 1}), "expected a record with a 'kind' tag$"),
        (lambda: space_from_dict({"kind": "canonical", "p": 1}), "^state_space: missing field 'm' for kind"),
    ]
    for build, named in cases:
        with pytest.raises(ModelFormatError, match=named):
            build()


def test_linear_drift_of_the_wrong_shape_is_named():
    # numpy once refused it with "cannot reshape array of size 2 into shape (1,1)".
    with pytest.raises(DimensionMismatch, match=r"^a must have shape \(1,1\), got \(1, 2\)$"):
        AffineModel(a0=[0.0], a=[[0.0, 1.0]], A=[[[0.0]], [[0.0]]], K=None, state_space=Canonical(1, 1))


def test_in_U_examples():
    assert in_U(Canonical(1, 2), [-1.0, 3.0j])
    assert not in_U(Canonical(1, 2), [-1.0, 1.0])
    assert in_U(Lorentz(3), [-2.0, 1.0, 0.0])
    assert not in_U(Lorentz(3), [-1.0, 2.0, 0.0])
    assert in_U(Canonical(1, 1), [0.0])


def test_in_U_psd_cone_trace_pairing():
    from affinejd.statespace import vech

    space = PSDCone(2)
    m = np.array([[1.0, 0.75], [0.75, 1.0]])
    assert in_U(space, -vech(m) + 1j * np.ones(3))
    assert not in_U(space, vech(m))


def test_exponential_moment_condition(cp_model):
    assert exponential_moment_condition(cp_model) == [True, True]
    ray_model = scalar_model(a0=1.0, K=[ExponentialRay(1.0, 3.0, [1.0]), None])
    assert exponential_moment_condition(ray_model) == [False, True]
    tab_model = scalar_model(a0=1.0, K=[TabulatedDensity([0.5], [[0.5]]), None])
    assert exponential_moment_condition(tab_model) == [True, True]
    state_ray_model = scalar_model(a0=1.0, K=[None, ExponentialRay(1.0, 3.0, [1.0])])
    assert exponential_moment_condition(state_ray_model) == [True, False]


def test_admissibility_cir_passes(cir_model):
    report = check_admissibility(cir_model, n_samples=200, seed=0)
    assert report.verdict
    assert report.min_eigen_c >= -1e-12


def test_admissibility_planar_example_fails(bad_model):
    report = check_admissibility(bad_model, n_samples=100, seed=1)
    assert not report.verdict
    assert report.min_eigen_c < -1e-3
    # The failure is witnessed at some sampled x != 0.
    assert any(np.linalg.norm(x) > 1e-8 for x in report.sampled_points)


def test_admissibility_negative_weight_fails():
    m = scalar_model(
        a0=1.0,
        K=[FiniteAtomic([0.0], [[1.0]]), FiniteAtomic([-1.0], [[1.0]])],
    )
    report = check_admissibility(m, n_samples=100, seed=2)
    assert not report.verdict
    assert report.min_jump_weight < -1e-6


def test_admissibility_support_closure():
    # A jump pointing out of the half line is caught by the closure check.
    m = scalar_model(a0=1.0, K=[FiniteAtomic([1.0], [[-0.5]]), None])
    report = check_admissibility(m, n_samples=50, seed=3)
    assert not report.verdict
    assert report.support_violations
    # So is a ray pointing out of it, through three quantiles of its jump
    # length; a one-point sample is the state 0.
    m = scalar_model(a0=1.0, K=[ExponentialRay(1.0, 2.0, [-1.0]), None])
    report = check_admissibility(m, n_samples=1)
    assert not report.verdict
    lengths = [-z[0] for _, z in report.support_violations]
    assert np.allclose(lengths, np.log([2.0, 10.0, 100.0]) / 2.0, rtol=1e-15, atol=0.0)
    # An atom shared by K^0 and K^1 is one point of the closure.
    atom = FiniteAtomic([1.0], [[-0.5]])
    report = check_admissibility(scalar_model(a0=1.0, K=[atom, atom]), n_samples=1)
    assert [z[0] for _, z in report.support_violations] == [-0.5]


def test_admissibility_samples_k_where_the_rest_passes(cir_model, bad_model, monkeypatch):
    report = check_admissibility(cir_model, seed=4)
    assert report.verdict and 0.0 <= report.k_min < math.inf
    assert check_admissibility(bad_model, seed=4).k_min == math.inf
    # A sampled k below -1e-9 fails the verdict, which the CLI reports.
    monkeypatch.setattr(model_mod, "k_eval", lambda model, x, y: -2e-9)
    report = check_admissibility(cir_model, seed=4)
    assert report.k_min == -2e-9 and not report.verdict


def test_admissibility_deterministic(cir_model):
    r1 = check_admissibility(cir_model, n_samples=64, seed=9)
    r2 = check_admissibility(cir_model, n_samples=64, seed=9)
    assert r1.min_eigen_c == r2.min_eigen_c
    assert all(np.array_equal(a, b) for a, b in zip(r1.sampled_points, r2.sampled_points))


def test_k_length_validated():
    with pytest.raises(DimensionMismatch):
        scalar_model(K=[None])


@pytest.mark.parametrize("name, x", [
    ("ou", [math.nan]), ("ou", [math.inf]), ("cir", [math.nan]), ("cir", [math.inf]),
    ("wishart_2d", [math.nan, 0.0, 0.0]), ("wishart_2d", [1.0, math.inf, 1.0]),
])
def test_non_finite_states_are_refused(name, x):
    # contains alone is no guard: eigvalsh reads diag(nan, 0) as [0, -0].
    model = getattr(golden, name)()
    y = np.zeros(model.dim)
    entry = f"state entry {int(np.flatnonzero(~np.isfinite(x))[0])}"
    for call in (lambda: transform(model, 0.5j * np.ones(model.dim), x, 1.0),
                 lambda: simulate_paths(model, x, SimConfig(n_paths=4, dt=0.1, horizon=1.0)),
                 lambda: model_mod.k_eval(model, x, y),
                 lambda: variation_of_constants_residual(model, y, x, 1.0)):
        with pytest.raises(StateSpaceMismatch, match=entry):
            call()


def _rule_tables():
    """The entry points of the argument rule, each with the call that takes
    the bad argument. Vectors: (entry point, call, name, dimension, real);
    times and scales: (entry point, call, name, zero allowed); counts, sizes
    and tolerances: (entry point, call, name, error, least), where least is a
    count's least value, or "positive" or "nonnegative" for a tolerance."""
    from affinejd.cone import cone_leq, interior_preservation_check, monotonicity_check, regularity_Lu_check
    from affinejd.riccati import explosion_time, flow_identity_residual, mean_flow, riccati_rhs, solve_riccati
    from affinejd.modelio import model_from_dict, model_to_dict
    from affinejd.simulate import martingale_diagnostic
    from affinejd.statespace import Parabolic
    from affinejd.transform import (
        damped_model,
        damped_transform_sequence,
        effective_domain_ray,
        infinite_divisibility_check,
        scaled_model,
    )

    cir, cp, wishart = golden.cir(), golden.compound_poisson(), golden.wishart_2d()
    cfg = SimConfig(n_paths=4, dt=0.1, horizon=1.0)
    voc = variation_of_constants_residual
    vectors = [
        ("riccati_rhs", lambda v: riccati_rhs(cir, v), "y", 1, False),
        ("solve_riccati", lambda v: solve_riccati(cir, v, 1.0), "u", 1, False),
        ("explosion_time", lambda v: explosion_time(cir, v, 1.0), "u", 1, False),
        ("mean_flow", lambda v: mean_flow(cir, v, 1.0), "x", 1, True),
        ("flow_identity_residual", lambda v: flow_identity_residual(cir, v, 0.2, 0.3), "u", 1, False),
        ("variation_of_constants_residual", lambda v: voc(cir, v, [1.0], 0.5), "u", 1, True),
        ("transform", lambda v: transform(cir, v, [1.0], 1.0), "u", 1, False),
        ("transform(wishart_2d)", lambda v: transform(wishart, v, [1.0, 0.0, 1.0], 1.0), "u", 3, False),
        ("effective_domain_ray", lambda v: effective_domain_ray(cir, v, 1.0), "direction", 1, True),
        ("damped_transform_sequence", lambda v: damped_transform_sequence(cp, v, [0.5], 1.0, [1, 2]), "u", 1,
         False),
        ("infinite_divisibility_check", lambda v: infinite_divisibility_check(cp, v, 1.0, 2), "u", 1, False),
        ("cone_leq", lambda v: cone_leq(Canonical(1, 2), v, [1.0, 1.0]), "u", 2, True),
        ("cone_leq", lambda v: cone_leq(Canonical(1, 2), [0.0, 0.0], v), "v", 2, True),
        ("monotonicity_check", lambda v: monotonicity_check(cir, v, [-0.5], 1.0), "u", 1, True),
        ("monotonicity_check", lambda v: monotonicity_check(cir, [-1.0], v, 1.0), "v", 1, True),
        ("interior_preservation_check", lambda v: interior_preservation_check(cir, v, 1.0), "u", 1, False),
        ("regularity_Lu_check", lambda v: regularity_Lu_check(wishart, v), "u", 3, True),
        ("drift_at", lambda v: drift_at(cir, v), "x", 1, True),
        ("diffusion_at", lambda v: diffusion_at(cir, v), "x", 1, True),
        ("k_eval", lambda v: model_mod.k_eval(cir, [1.0], v), "y", 1, True),
        ("in_U", lambda v: in_U(Lorentz(3), v), "u", 3, False),
        ("martingale_diagnostic", lambda v: martingale_diagnostic(cir, v, [1.0], cfg), "u", 1, False),
    ]
    times = [
        ("solve_riccati", lambda t: solve_riccati(cir, [0.5j], t), "horizon", False),
        ("explosion_time", lambda t: explosion_time(cir, [0.5], t), "t_max", False),
        ("mean_flow", lambda t: mean_flow(cir, [1.0], t), "t", True),
        ("flow_identity_residual", lambda t: flow_identity_residual(cir, [0.5j], t, 0.3), "s", True),
        ("flow_identity_residual", lambda t: flow_identity_residual(cir, [0.5j], 0.2, t), "t", False),
        ("variation_of_constants_residual", lambda t: voc(cir, [0.3], [1.0], t), "t", False),
        ("transform", lambda t: transform(cir, [0.5j], [1.0], t), "t", True),
        ("effective_domain_ray", lambda t: effective_domain_ray(cir, [1.0], t), "horizon", False),
        ("effective_domain_ray", lambda t: effective_domain_ray(cir, [-1.0], 0.7, lambda_max=t), "lambda_max",
         False),
        ("damped_model", lambda t: damped_model(cp, t), "n", False),
        ("damped_transform_sequence", lambda t: damped_transform_sequence(cp, [0.3j], [0.5], t, [1, 2]), "t",
         True),
        ("damped_transform_sequence", lambda t: damped_transform_sequence(cp, [0.3j], [0.5], 1.0, [1, t]), "n",
         False),
        ("scaled_model", lambda t: scaled_model(cp, t), "n", False),
        ("infinite_divisibility_check", lambda t: infinite_divisibility_check(cp, [0.1], t, 2), "t", False),
        ("infinite_divisibility_check", lambda t: infinite_divisibility_check(cp, [0.1], 1.0, t), "n", False),
        ("monotonicity_check", lambda t: monotonicity_check(cir, [-1.0], [-0.5], t), "t", False),
        ("interior_preservation_check", lambda t: interior_preservation_check(cir, [-0.5], t), "t", False),
    ]
    ray = ExponentialRay(1.0, 2.0, [1.0])
    scalars = [
        ("SimConfig", lambda n: SimConfig(n_paths=n, dt=0.1, horizon=1.0), "n_paths", ValueError, 1),
        ("SimConfig", lambda n: SimConfig(n_paths=4, dt=0.1, horizon=1.0, seed=n), "seed", ValueError, 0),
        ("SimConfig", lambda n: SimConfig(n_paths=4, dt=0.1, horizon=1.0, threads=n), "threads", ValueError, 1),
        ("SimConfig", lambda t: SimConfig(n_paths=4, dt=t, horizon=1.0), "dt", ValueError, "positive"),
        ("SimConfig", lambda t: SimConfig(n_paths=4, dt=0.1, horizon=t), "horizon", ValueError, "positive"),
        ("check_admissibility", lambda n: check_admissibility(cir, n_samples=n), "n_samples", ValueError, 1),
        ("check_admissibility", lambda n: check_admissibility(cir, seed=n), "seed", ValueError, 0),
        ("ExponentialRay.tabulated", lambda n: ray.tabulated(n_nodes=n), "n_nodes", ValueError, 2),
        ("Canonical", lambda n: Canonical(n, 2), "canonical: 'm'", ModelFormatError, 0),
        ("Canonical", lambda n: Canonical(1, n), "canonical: 'p'", ModelFormatError, 1),
        ("PSDCone", lambda n: PSDCone(n), "psd_cone: 'd'", ModelFormatError, 1),
        ("Lorentz", lambda n: Lorentz(n), "lorentz: 'p'", ModelFormatError, 2),
        ("Parabolic", lambda n: Parabolic(n), "parabolic: 'p'", ModelFormatError, 2),
        ("StateSpace.contains", lambda t: Canonical(1, 1).contains([1.0], tol=t), "tol", ValueError, "nonnegative"),
        ("cone_leq", lambda t: cone_leq(Canonical(1, 2), [0.0, 0.0], [1.0, 1.0], tol=t), "tol", ValueError,
         "nonnegative"),
        ("model_from_dict", lambda n: model_from_dict(dict(model_to_dict(cir), dim=n)), "field 'dim'",
         ModelFormatError, 1),
    ]
    return vectors, times, scalars


_VECTORS, _TIMES, _SCALARS = _rule_tables()


def _refused(call, arg, error, message):
    # No untyped TypeError and no ComplexWarning: the rule names the argument.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call(arg)


@pytest.mark.parametrize("call, name, dim, real", [row[1:] for row in _VECTORS],
                         ids=[f"{row[0]}-{row[2]}" for row in _VECTORS])
def test_every_vector_argument_is_checked_by_name(call, name, dim, real):
    rest = [0.0] * (dim - 1)
    _refused(call, [math.nan] + rest, ValueError, f"^{name} must be finite$")
    _refused(call, rest + [math.inf], ValueError, f"^{name} must be finite$")
    _refused(call, [0.5] * (dim + 1), DimensionMismatch, f"^{name} has length {dim + 1}, ")
    if real:
        _refused(call, [0.5j] + rest, ValueError, f"^{name} must be real$")
        _refused(call, np.array(rest + [-1.0 + 1.0j]), ValueError, f"^{name} must be real$")
    _refused(call, [True] * dim, ValueError, f"^{name} must hold numbers$")
    # Among numbers numpy reads a bool as 1.0; the rule does not.
    _refused(call, [True] + rest, ValueError, f"^{name} must hold numbers$")
    _refused(call, rest + [np.bool_(False)], ValueError, f"^{name} must hold numbers$")


@pytest.mark.parametrize("call, name, zero_ok", [row[1:] for row in _TIMES],
                         ids=[f"{row[0]}-{row[2]}" for row in _TIMES])
def test_every_time_and_scale_is_checked_by_name(call, name, zero_ok):
    message = f"^{name} must be {'nonnegative' if zero_ok else 'positive'} and finite$"
    for bad in [math.nan, math.inf, -1.0, 0.5j, True, np.bool_(True)] + ([] if zero_ok else [0.0]):
        _refused(call, bad, ValueError, message)


@pytest.mark.parametrize("call, name, error, least", [row[1:] for row in _SCALARS],
                         ids=[f"{row[0]}-{row[2]}" for row in _SCALARS])
def test_every_count_size_and_tolerance_is_checked_by_name(call, name, error, least):
    # A count is a Python or numpy integer, never a bool or a float; a
    # tolerance is a real number, never a bool.
    if isinstance(least, int):
        message = f"^{name} must be an integer at least {least}$"
        bads = [1.5, True, np.bool_(True), "2", least - 1, np.int64(least - 1)]
    else:
        message = f"^{name} must be {least} and finite$"
        bads = [True, np.bool_(True), "2", -1.0, math.nan, math.inf] + ([0.0] if least == "positive" else [])
    for bad in bads:
        _refused(call, bad, error, message)


def test_a_state_is_a_real_vector_of_the_model_dimension():
    # A state's non-finite entries are its space's to name; its length and
    # realness are checked by the same rule as every other vector.
    cir, cfg = golden.cir(), SimConfig(n_paths=4, dt=0.1, horizon=1.0)
    for call in (lambda x: transform(cir, [0.5j], x, 1.0), lambda x: simulate_paths(cir, x, cfg),
                 lambda x: model_mod.k_eval(cir, x, [0.5]),
                 lambda x: variation_of_constants_residual(cir, [0.3], x, 1.0)):
        _refused(call, [1.0, 1.0], DimensionMismatch, "^state has length 2, the model has dimension 1$")
        for x in ([1.0 + 1.0j], np.array([1.0 + 1.0j])):
            _refused(call, x, ValueError, "^state must be real$")


def test_only_errors_converts_an_argument_or_reads_its_dtype():
    # errors._numbers alone decides what holds numbers: no other module
    # converts with np.asarray or tests a dtype's kind, which would read a
    # bool among numbers as 1.0.
    found = []
    for path in sorted(pathlib.Path(model_mod.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            if (isinstance(node, ast.Attribute) and node.attr in ("asarray", "asanyarray")
                    or "asarray" in names or "asanyarray" in names
                    or isinstance(node, ast.Attribute) and node.attr == "kind"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
