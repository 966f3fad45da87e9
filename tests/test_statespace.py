import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

import oracles
from affinejd import statespace
from affinejd.errors import DimensionMismatch, ModelFormatError, StateSpaceMismatch
from affinejd.statespace import (
    Canonical,
    HalfSpaceIntersection,
    Lorentz,
    Parabolic,
    PSDCone,
    StateSpace,
    row_sq_sums,
    space_from_dict,
    unvech,
    vech,
)


def _wedge(degrees, apex=0.0):
    """The planar wedge {x : 0 <= x_2 <= tan(a) (x_1 - apex)} of opening a."""
    slope = np.tan(np.radians(degrees))
    return HalfSpaceIntersection([[0.0, -1.0], [-slope, 1.0]], [0.0, -slope * apex])


SPACES = [
    Canonical(1, 1),
    Canonical(1, 2),
    Canonical(0, 2),
    PSDCone(2),
    PSDCone(3),
    Lorentz(3),
    Parabolic(3),
    HalfSpaceIntersection([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [2.0, 2.0, 1.0]),
    # Its apex is set back so that a few of the rows drawn at scale 3 lie inside.
    _wedge(1.0, apex=-10.0),
]


def _families(cls=StateSpace):
    for sub in cls.__subclasses__():
        yield sub
        yield from _families(sub)


def test_every_family_is_in_spaces():
    # SPACES carries the projection properties below, bit for bit on
    # members and non-expansive, to every state-space family.
    families = {cls for cls in _families() if cls.__module__.startswith("affinejd.")}
    assert families and families <= {type(space) for space in SPACES}


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_projection_lands_in_space(space):
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.normal(size=space.dim) * 3.0
        y = space.project(x)
        assert space.contains(y, tol=1e-8)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_projection_idempotent_and_fixed_inside(space):
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = space.project(rng.normal(size=space.dim) * 2.0)
        assert np.allclose(space.project(y), y, atol=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_interior_implies_membership(space):
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=space.dim) * 2.0
        if space.interior_contains(x):
            assert space.contains(x, tol=0.0)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_a_point_with_a_nan_entry_lies_nowhere(space):
    # Nor does one with an infinite entry: every public entry refuses the
    # point, and project_batch the row, naming the entry before a family
    # reads it.
    # Families once answered apart: PSDCone(2) read [nan, 0, 0] as a member,
    # Canonical(1, 2) [inf, 1]; PSDCone(3) raised LinAlgError, and Lorentz(3)
    # projected [-inf, 0, 0] to 0 with a RuntimeWarning.
    rng = np.random.default_rng(6)
    inner = next(x for x in rng.normal(size=(1000, space.dim)) if space.interior_contains(x))
    finite = rng.normal(size=(4, space.dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in (inner, np.zeros(space.dim)):
            for i in range(space.dim):
                for bad in (np.inf, -np.inf, np.nan):
                    x = base.copy()
                    x[i] = bad
                    entry = rf"state entry {i}\b"
                    for call in (lambda: space.contains(x, tol=1e300), lambda: space.interior_contains(x),
                                 lambda: space.project(x), lambda: space.distance(x)):
                        with pytest.raises(StateSpaceMismatch, match=entry + " is"):
                            call()
                    with pytest.raises(StateSpaceMismatch, match=entry + " of row 2 is"):
                        space.project_batch(np.insert(finite, 2, x, axis=0))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_a_point_of_bools_or_strings_lies_nowhere(space):
    # A bool or a string is no coordinate, even where numpy would read one
    # as a number: Canonical(1, 1) once held ["1"].
    message = "^a state must hold real numbers, not "
    for call in (lambda: space.contains(["1"] * space.dim), lambda: space.project([True] * space.dim),
                 lambda: space.project_batch([["2"] * space.dim]), lambda: space.distance([False] * space.dim),
                 lambda: space.interior_contains(np.ones(space.dim, dtype=bool))):
        with pytest.raises(StateSpaceMismatch, match=message):
            call()


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_projection_optimality(space):
    # Variational inequality: (x - Px) . (y - Px) <= 0 for y in the set.
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.normal(size=space.dim) * 3.0
        px = space.project(x)
        y = space.project(rng.normal(size=space.dim) * 2.0)
        assert float((x - px) @ (y - px)) <= 1e-7


def _reference_project(space, x):
    """Per-point projection formulas, kept independent of the batched code."""
    if isinstance(space, Canonical):
        y = x.copy()
        y[: space.m] = np.maximum(y[: space.m], 0.0)
        return y
    if isinstance(space, PSDCone):
        w, v = np.linalg.eigh(unvech(x, space.d))
        return vech((v * np.maximum(w, 0.0)) @ v.T)
    if isinstance(space, Lorentz):
        tail = np.linalg.norm(x[1:])
        if x[0] >= tail:
            return x.copy()
        if x[0] <= -tail:
            return np.zeros_like(x)
        alpha = 0.5 * (x[0] + tail)
        return np.concatenate([[alpha], x[1:] * (alpha / tail)])
    if isinstance(space, Parabolic):
        tail_sq = float(np.dot(x[1:], x[1:]))
        if x[0] >= tail_sq:
            return x.copy()

        def g(mu):
            return (x[0] + mu) * (1.0 + 2.0 * mu) ** 2 - tail_sq

        lo = max(0.0, -x[0])
        hi = max(lo + 1.0, 1.0)
        while g(hi) < 0.0:
            hi *= 2.0
        y_bar = x[1:] / (1.0 + 2.0 * brentq(g, lo, hi, xtol=1e-14, rtol=1e-14))
        return np.concatenate([[y_bar @ y_bar], y_bar])
    return oracles.polyhedron_projection_exact(space.normals, space.offsets, x)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_project_batch_rows(space):
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(257, space.dim)) * 3.0
    full = space.project_batch(xs)
    assert full.shape == xs.shape
    # A row's image does not depend on which rows share its batch.
    for k in (1, 100):
        assert np.array_equal(space.project_batch(xs[:k]), full[:k])
    assert np.array_equal(space.project_batch(xs[::-1]), full[::-1])
    for x, row in zip(xs, full):
        assert np.array_equal(space.project(x), row)
        assert np.allclose(row, _reference_project(space, x), rtol=0.0, atol=1e-12)
    # Members of the space are returned bit for bit.
    members = xs[space._margin_rows(xs) > 1e-9]
    assert len(members) >= 3
    assert np.array_equal(space.project_batch(members), members)
    assert space.project_batch(np.empty((0, space.dim))).shape == (0, space.dim)
    with pytest.raises(DimensionMismatch):
        space.project_batch(np.zeros((3, space.dim + 1)))
    with pytest.raises(DimensionMismatch):
        space.project_batch(np.zeros(space.dim))


def _near_boundary(space, rng, margin, n):
    """n points whose margin is close to ``margin``; at margin 0 they lie on
    the boundary up to the rounding of their construction."""
    x = rng.normal(size=(n, space.dim))
    if isinstance(space, Canonical):
        if space.m:
            x[np.arange(n), rng.integers(space.m, size=n)] = margin
            x[:, : space.m] = np.maximum(x[:, : space.m], margin)
        return x
    if isinstance(space, PSDCone):
        # vech(B B^T + margin I) with B of rank d - 1.
        b = rng.normal(size=(n, space.d, space.d - 1))
        return vech(b @ np.swapaxes(b, 1, 2) + margin * np.eye(space.d))
    if isinstance(space, Lorentz):
        x[:, 0] = np.linalg.norm(x[:, 1:], axis=1) + margin
        return x
    if isinstance(space, Parabolic):
        x[:, 0] = np.sum(x[:, 1:] ** 2, axis=1) + margin
        return x
    # Onto a face of the half spaces, moved inward by margin along its normal.
    face = rng.integers(space.normals.shape[0], size=n)
    normals = space.normals[face]
    shift = ((x * normals).sum(axis=1) - space.offsets[face] + margin) / (normals * normals).sum(axis=1)
    return x - shift[:, None] * normals


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_members_on_the_boundary_are_returned_bit_for_bit(space):
    # project decides by the sign of the margin that contains reads, so a
    # point that contains accepts at tol = 0 is never moved, not even by
    # rounding in an eigendecomposition.
    rng = np.random.default_rng(11)
    xs = np.vstack([_near_boundary(space, rng, margin, 400)
                    for margin in (0.0, 1e-15, -1e-15, 1e-9, -1e-9)])
    member = np.array([space.contains(x, tol=0.0) for x in xs])
    assert member.sum() >= 800
    if space.kind != "canonical" or space.m:
        assert (~member).sum() >= 400
    projected = space.project_batch(xs)
    assert projected[member].tobytes() == xs[member].tobytes()
    for x in xs[member]:
        assert space.project(x).tobytes() == x.tobytes()


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_project_outside_sees_exactly_the_outside_rows(space, monkeypatch):
    # Canonical clips the whole batch in its own _project_rows and has no
    # hook; every other family is handed exactly its outside rows, in order.
    seen = []
    hook = type(space)._project_outside

    def spy(self, ys):
        seen.append(ys.copy())
        return hook(self, ys)

    monkeypatch.setattr(type(space), "_project_outside", spy)
    rng = np.random.default_rng(23)
    calls = 0
    for margin in (0.0, 1e-15, -1e-15, 1e-9, -1e-9):
        xs = _near_boundary(space, rng, margin, 50)
        outside = space._margin_rows(xs) < 0.0
        for batch, rows in ((xs, xs[outside]), (xs[~outside], xs[:0])):
            seen.clear()
            space.project_batch(batch)
            want = [] if isinstance(space, Canonical) or not len(rows) else [rows.tobytes()]
            assert [ys.tobytes() for ys in seen] == want
            calls += len(want)
    assert calls >= 2 or isinstance(space, Canonical)


# Rows whose sums of squares, tail norms or parabolic Newton products leave
# float range.
HUGE_ROWS = [
    (Lorentz(3), [0.0, 1e160, 0.0]),
    (Lorentz(3), [-1e200, 1e190, 0.0]),
    (Lorentz(3), [1e155, 1e160, -1e160]),
    (Lorentz(3), [1.5e308, 1.6e308, 0.0]),
    (Lorentz(3), [0.0, 1.5e308, 1.5e308]),
    (Lorentz(3), [-1.7e308, 1.5e308, -1.5e308]),
    (Lorentz(5), [1e308, 1e308, 1e308, 1e308, 1e308]),
    # x_1 - |x_bar| passes the largest float, with its sign right.
    (Lorentz(3), [-1e308, 1e-300, 1.7e308]),
    (Parabolic(3), [0.0, 1.5e308, 1.5e308]),
    (Parabolic(3), [-1.7e308, 1e308, 1.5e308]),
    (Parabolic(5), [1e308, -1.7e308, 1.7e308, 1e-300, 1.7e308]),
    (Parabolic(2), [0.0, 1e160]),
    (Parabolic(2), [-1e200, 1e100]),
    (Parabolic(2), [-1e150, 1e150]),
    (Parabolic(2), [-1e300, 0.0]),
    (Parabolic(3), [2e100, 1e155, -3e154]),
    # |x_bar| / 2 itself passes the largest float.
    (Parabolic(7), [0.0] + [1.7e308] * 6),
    # Products in range, but a start so far above the root that Newton
    # would need more than 100 steps.
    (Parabolic(2), [6.75746451e161, 2.33784826e84]),
    # Eigenvalues, or the spectral clip's sums, past the largest float; the
    # PSDCone(3) rows have a zero last row and column.
    (PSDCone(2), [-1.7e308, 1e308, 1.7e308]),
    (PSDCone(2), [1e300, -1.7e308, -1e308]),
    (PSDCone(2), [-1.7e308, 0.0, -1.7e308]),
    (PSDCone(2), [1e200, 1.7e308, 1e200]),
    (PSDCone(2), [-1e-300, 1.7e308, 0.0]),
    (PSDCone(3), [-1.7e308, 1e308, 0.0, 1.7e308, 0.0, 0.0]),
    (PSDCone(3), [1e300, -1.7e308, 0.0, -1e308, 0.0, 0.0]),
    (PSDCone(3), [1e200, 1.7e308, 0.0, 1e200, 0.0, 0.0]),
]


def _psd_projection_decimal(x):
    """The decimal 2x2 projection, embedded for a 3x3 row whose last row and
    column are zero: such a matrix projects as its leading 2x2 block."""
    if len(x) == 3:
        return oracles.psd2_projection_decimal(x)
    x = np.asarray(x, dtype=float)
    assert len(x) == 6 and not x[[2, 4, 5]].any()
    y = np.zeros(6)
    y[[0, 1, 3]] = oracles.psd2_projection_decimal(x[[0, 1, 3]])
    return y


def _decimal_projection(space, xs):
    oracle = {Lorentz: oracles.lorentz_projection_decimal, Parabolic: oracles.parabolic_projection_decimal,
              PSDCone: _psd_projection_decimal}[type(space)]
    return np.array([oracle(x) for x in xs])


def _assert_projected(space, xs, ys):
    assert np.allclose(ys, _decimal_projection(space, xs), rtol=1e-12, atol=0.0)
    for y in ys:
        assert space.contains(y, tol=1e-12 * np.abs(y).max())


def test_huge_rows_are_projected_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for space, member in ((Lorentz(3), [5e155, 4e155, 0.0]), (Parabolic(2), [1.7e308, 1.3e154]),
                              (PSDCone(2), [1.7e308, -1.7e308, 1.7e308]),
                              (PSDCone(3), [1.7e308, 1e308, 0.0, 1.7e308, 0.0, 1e308])):
            member = np.array(member)
            assert space.contains(member, tol=0.0) and space.interior_contains(member)
            assert space.project(member).tobytes() == member.tobytes()
        for space, x in HUGE_ROWS:
            _assert_projected(space, [x], space.project(x)[None, :])
            assert not space.contains(x)
        # The image's height passes the largest float, its tail does not, as
        # the decimal oracle gives it; with an infinite entry the image lies
        # in no state space, which refuses it.
        x = [0.0] + [1.7e308] * 19
        y = Lorentz(20).project(x)
        assert y[0] == np.inf and np.array_equal(y, oracles.lorentz_projection_decimal(x))
        for call in (lambda: Lorentz(20).contains(y, tol=0.0), lambda: Lorentz(20).project(y)):
            with pytest.raises(StateSpaceMismatch, match=r"state entry 0 is inf\b"):
                call()
        # N x passes the largest float on the triangle of SPACES, and the
        # margins read -1e308 and -inf, with their signs right.
        for x in ([1e308, 1e308], [-1e308, -1e308]):
            assert not SPACES[7].contains(x) and not SPACES[7].interior_contains(x)


@pytest.mark.parametrize("space", [PSDCone(2), PSDCone(3)], ids=repr)
def test_a_huge_row_changes_no_other_row(space):
    # A row past float range's end is read on its scaled row; the rows that
    # share its batch are read as they are, bit for bit.
    rng = np.random.default_rng(29)
    xs = rng.normal(size=(64, space.dim)) * 3.0
    huge = next(np.array(x) for s, x in HUGE_ROWS if s == space)
    mixed = np.vstack([xs[:32], huge, xs[32:]])
    margin, image = space._margin_rows(mixed), space.project_batch(mixed)
    assert margin.tobytes() == np.insert(space._margin_rows(xs), 32, space._margin_rows(huge[None, :])).tobytes()
    assert image.tobytes() == np.insert(space.project_batch(xs), 32, space.project(huge), axis=0).tobytes()


@pytest.mark.parametrize("scale", [1e-315, 1e-300, 1.0, 1e300])
def test_psd2_closed_form_meets_the_decimal_oracle(scale):
    # Generic rows, and nearly diagonal ones whose off-diagonal entry is 1e-9
    # or 1e-3 of the diagonal, where h - delta cancels. The image lies within
    # a few ulps of the row's largest |entry| of the decimal projection, and
    # the margin has the sign of the decimal lambda_min wherever that passes
    # a few such ulps; 1e-315 keeps every entry subnormal.
    space, rng = PSDCone(2), np.random.default_rng(int(-np.log10(scale)) + 400)
    xs = rng.normal(size=(600, 3))
    xs[200:400, 1] *= 1e-9
    xs[400:, 1] *= 1e-3
    xs *= scale
    ulps = np.spacing(np.abs(xs).max(axis=1))
    margin, image = space._margin_rows(xs), space.project_batch(xs)
    assert 200 < (margin < 0.0).sum() < 500
    assert np.all(np.abs(image - _decimal_projection(space, xs)).max(axis=1) <= 4 * ulps)
    lam = np.array([oracles.psd2_min_eigenvalue_decimal(x) for x in xs])
    clear = np.abs(lam) > 4 * ulps
    assert clear.sum() > 500
    assert np.array_equal(np.sign(margin[clear]), np.sign(lam[clear]))


@pytest.mark.parametrize("p", [2, 3, 9, 20])
def test_lorentz_geometry_commutes_with_powers_of_2(p):
    # The margin and the projection onto the cone are homogeneous of degree
    # 1, and so are their floats: a batch scaled by 2^k, whose sums of
    # squares pass the largest float or lose bits below the normal floats,
    # has the margins and images of the unscaled batch, scaled by 2^k.
    space, rng = Lorentz(p), np.random.default_rng(300 + p)
    xs = rng.standard_normal((1000, p))
    xs[:, 0] *= np.sqrt(p - 1.0) * rng.uniform(-1.5, 1.5, 1000)
    margin, image = space._margin_rows(xs), space.project_batch(xs)
    assert 100 < (margin < 0.0).sum() < 900
    for k in (520, -520, 1000, -1000):
        scaled = np.ldexp(xs, k)
        assert space._margin_rows(scaled).tobytes() == np.ldexp(margin, k).tobytes(), k
        assert space.project_batch(scaled).tobytes() == np.ldexp(image, k).tobytes(), k


def test_lorentz_tails_whose_squares_underflow():
    # Below 1e-154 the squares of a tail leave the normal floats, and below
    # ~1e-162 they read 0: by its sum of squares alone, [0, 1e-297, 0] would
    # be a member, left where it is.
    space = Lorentz(3)
    x = np.array([0.0, 1e-297, 0.0])
    assert not space.contains(x, tol=0.0)
    assert np.array_equal(space.project(x), oracles.lorentz_projection_decimal(x))
    rng = np.random.default_rng(41)
    tails = 10.0 ** rng.uniform(-300, -154, (300, 2)) * rng.choice([-1.0, 1.0], (300, 2))
    heads = np.hypot(tails[:, 0], tails[:, 1]) * rng.uniform(-2.0, 2.0, 300)
    heads[:30] = 0.0
    xs = np.column_stack([heads, tails])
    ys = space.project_batch(xs)
    _assert_projected(space, xs, ys)
    members = np.array([np.array_equal(oracles.lorentz_projection_decimal(x), x) for x in xs])
    assert 50 < members.sum() < 250
    assert [space.contains(x, tol=0.0) for x in xs] == members.tolist()
    assert np.array_equal(ys[members], xs[members])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wide_range_rows_match_a_decimal_projection(p):
    # Entries from 1e-100 to 1e307, a third of the parabolic rows with the
    # head near the tail's sum of squares, through one batch per family.
    rng = np.random.default_rng(200 + p)
    xs = rng.standard_normal((40, p)) * 10.0 ** rng.uniform(-100.0, 307.0, (40, p))
    with np.errstate(over="ignore"):
        tail_sq = np.sum(xs[:, 1:] ** 2, axis=1)
    near = (np.arange(40) % 3 == 0) & (tail_sq < 1e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_projected(Lorentz(p), xs, Lorentz(p).project_batch(xs))
        xs[near, 0] = tail_sq[near] * rng.uniform(0.5, 1.5, near.sum())
        _assert_projected(Parabolic(p), xs, Parabolic(p).project_batch(xs))


@pytest.mark.parametrize("p", [2, 3])
def test_wide_parabolic_rows_are_projected_alone_in_a_pair(p):
    # Rows from 1e100 to 1e300, far outside: each row's radius iteration
    # stops at its own last step, whatever the other row needs.
    space, rng = Parabolic(p), np.random.default_rng(60 + p)
    xs = rng.standard_normal((400, 2, p)) * 10.0 ** rng.uniform(100.0, 300.0, (400, 2, p))
    pairs = [pair for pair in xs if np.all(space._margin_rows(pair) < 0.0)]
    assert len(pairs) > 300
    for pair in pairs:
        assert space.project_batch(pair).tobytes() == np.array([space.project(x) for x in pair]).tobytes()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_parabolic_projection_is_accurate_to_a_few_ulps(p):
    rng = np.random.default_rng(80 + p)
    xs = rng.standard_normal((200, p)) * 10.0 ** rng.uniform(-2.0, 2.0, (200, 1))
    xs = xs[xs[:, 0] < row_sq_sums(xs[:, 1:])][:40]
    assert len(xs) == 40
    want = np.array([oracles.parabolic_projection_decimal(x) for x in xs])
    assert np.max(np.abs(Parabolic(p).project_batch(xs) - want) / np.abs(want)) <= 2e-15


def _batch_pairs(space):
    coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    shape = st.tuples(st.integers(1, 12), st.just(space.dim))
    return shape.flatmap(lambda sh: st.tuples(arrays(float, sh, elements=coords),
                                              arrays(float, sh, elements=coords)))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: repr(s))
def test_projection_properties_on_random_batches(space):
    @settings(max_examples=60, deadline=None)
    @given(_batch_pairs(space))
    def check(pair):
        xs, ys = pair
        px, py = space.project_batch(xs), space.project_batch(ys)
        scale = 1.0 + np.max(np.abs(xs))
        for row in px:
            assert space.contains(row, tol=1e-9 * scale**2)
        assert np.allclose(space.project_batch(px), px, rtol=0.0, atol=1e-9 * scale)
        # Projection onto a closed convex set is non-expansive.
        gap = np.linalg.norm(px - py, axis=1) - np.linalg.norm(xs - ys, axis=1)
        assert np.all(gap <= 1e-9 * (scale + np.max(np.abs(ys))))

    check()


def _wide_range_rows(rng, n, w):
    """Rows of random sign whose scale runs from 1e-150 to 1e150 across rows
    and by up to 1e2 either way within a row, with about a fifth of the
    entries and a few whole rows set to zero."""
    xs = rng.standard_normal((n, w)) * 10.0 ** rng.uniform(-150.0, 150.0, (n, 1))
    xs *= 10.0 ** rng.uniform(-2.0, 2.0, (n, w))
    xs[rng.random((n, w)) < 0.2] = 0.0
    xs[: n // 50] = 0.0
    return xs


def test_row_sq_sums_is_np_sum_bit_for_bit():
    # Widths 1-7 take the column loop and 8-12 np.sum; both must give numpy's
    # floats, for contiguous batches, for the tails x[:, 1:] the state spaces
    # pass, and for a single row.
    rng = np.random.default_rng(19)
    for w in range(1, 13):
        xs = _wide_range_rows(rng, 2000, w + 1)
        for batch in (xs[:, :w].copy(), xs[:, 1:], xs[:1, 1:], xs[:0, 1:]):
            assert row_sq_sums(batch).tobytes() == np.sum(batch**2, axis=1).tobytes(), w


def _cone_test_rows(rng, p):
    """Wide-range rows of R^p with the head set so that the Lorentz margin
    in its np.linalg.norm form or the parabolic margin in its np.sum form is
    exactly zero (boundary rows), at or beyond the Lorentz polar boundary,
    between the boundaries, or anywhere, plus integer rows."""
    xs = _wide_range_rows(rng, 3000, p)
    norm = np.linalg.norm(xs[:, 1:], axis=1)
    xs[0:500, 0] = norm[0:500]
    xs[500:1000, 0] = np.sum(xs[500:1000, 1:] ** 2, axis=1)
    xs[1000:1500, 0] = -norm[1000:1500]
    xs[1500:2000, 0] = -norm[1500:2000] * rng.uniform(1.0, 3.0, 500)
    xs[2000:2500, 0] = norm[2000:2500] * rng.uniform(-1.0, 1.0, 500)
    # |(3, 4)| = 5 and |3| = 3 are exact: rows on the Lorentz boundary, the
    # parabolic boundary, the polar boundary and the apex's ray branch.
    tail, r = ([3.0, 4.0], 5.0) if p > 2 else ([3.0], 3.0)
    exact = np.zeros((4, p))
    exact[:, 1:len(tail) + 1] = tail
    exact[:, 0] = [r, r * r, -r, 0.0]
    return np.vstack([xs, exact])


def _lorentz_norm_form(xs):
    """Lorentz _margin_rows and _project_rows with the tail norm read as
    np.linalg.norm(xs[:, 1:], axis=1)."""
    tail = np.linalg.norm(xs[:, 1:], axis=1)
    out = xs.copy()
    rows = np.flatnonzero(xs[:, 0] < tail)
    head, t = xs[rows, 0], tail[rows]
    polar = head <= -t
    alpha = 0.5 * (head + t)
    out[rows, 0] = alpha
    out[rows, 1:] = xs[rows, 1:] * (alpha / np.where(polar, 1.0, t))[:, None]
    out[rows[polar]] = 0.0
    return xs[:, 0] - tail, out


@pytest.mark.parametrize("p", [2, 3, 4, 8, 9, 13])
def test_lorentz_rows_match_the_norm_form(p):
    space = Lorentz(p)
    xs = _cone_test_rows(np.random.default_rng(p), p)
    margin, projected = _lorentz_norm_form(xs)
    assert space._margin_rows(xs).tobytes() == margin.tobytes()
    assert space._project_rows(xs).tobytes() == projected.tobytes()
    # Rows inside, in the polar cone, and projected onto the boundary ray.
    inside, polar = margin >= 0.0, xs[:, 0] <= margin - xs[:, 0]
    assert inside.sum() >= 500 and polar.sum() >= 500 and (~inside & ~polar).sum() >= 300


@pytest.mark.parametrize("p", [2, 3, 4, 8, 9, 13])
def test_parabolic_rows_match_the_sum_form(p, monkeypatch):
    space = Parabolic(p)
    xs = _cone_test_rows(np.random.default_rng(100 + p), p)
    margin = xs[:, 0] - np.sum(xs[:, 1:] ** 2, axis=1)
    assert space._margin_rows(xs).tobytes() == margin.tobytes()
    assert (margin == 0.0).sum() >= 500 and (margin < 0.0).sum() >= 500
    # The projection with its two sums of squares in the np.sum form, on the
    # rows small enough that the products of its Newton steps stay in range.
    xs = xs[np.abs(xs).max(axis=1) < 1e50]
    assert len(xs) >= 1500
    projected = space._project_rows(xs)
    monkeypatch.setattr(statespace, "row_sq_sums", lambda rows: np.sum(rows**2, axis=1))
    assert projected.tobytes() == space._project_rows(xs).tobytes()


def test_vech_round_trip():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 5):
        b = rng.normal(size=(d, d))
        mat = b + b.T
        back = unvech(vech(mat), d)
        x = rng.normal(size=d * (d + 1) // 2)
        assert np.max(np.abs(vech(unvech(x, d)) - x)) <= 1e-15 * max(1.0, np.max(np.abs(x)))
        # Diagonal entries are copied untouched; off-diagonals pick up at most
        # one rounding from the sqrt(2) scaling.
        assert np.array_equal(np.diag(back), np.diag(mat))
        assert np.max(np.abs(back - mat)) <= 1e-15 * max(1.0, np.max(np.abs(mat)))
        # Entry by entry, bit for bit: vech scales each off-diagonal entry
        # of the upper triangle by sqrt(2), unvech divides it back into both
        # triangles, and the diagonal is copied.
        iu, ju = np.triu_indices(d)
        s2 = np.sqrt(2.0)
        want = [mat[i, j] if i == j else mat[i, j] * s2 for i, j in zip(iu, ju)]
        assert vech(mat).tobytes() == np.array(want).tobytes()
        want = np.empty((d, d))
        for k, (i, j) in enumerate(zip(iu, ju)):
            want[i, j] = want[j, i] = x[k] if i == j else x[k] / s2
        assert unvech(x, d).tobytes() == want.tobytes()
        # A stack maps matrix by matrix.
        stack = np.stack([mat, 2.0 * mat])
        assert np.array_equal(vech(stack), np.stack([vech(mat), vech(2.0 * mat)]))
        assert np.array_equal(unvech(vech(stack), d), np.stack([back, unvech(vech(2.0 * mat), d)]))


def test_vech_index_cache_is_read_only():
    # The cached maps are shared by every call for d: none may change them.
    for d in (1, 2, 3, 4):
        vech(np.eye(d))
        cached = statespace._vech_maps(d)
        assert cached is statespace._vech_maps(d)
        upper, scale, gather = cached
        iu, ju = np.triu_indices(d)
        assert np.array_equal(upper, iu * d + ju)
        assert np.array_equal(scale, np.where(iu == ju, 1.0, np.sqrt(2.0)))
        # Both triangles read the vech coordinate of their entry.
        assert np.array_equal(gather.reshape(d, d)[iu, ju], np.arange(iu.size))
        assert np.array_equal(gather.reshape(d, d), gather.reshape(d, d).T)
        for a in cached:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


def test_vech_isometry():
    rng = np.random.default_rng(6)
    b = rng.normal(size=(3, 3))
    mat = b + b.T
    assert np.isclose(np.linalg.norm(vech(mat)), np.linalg.norm(mat, "fro"), rtol=1e-14)


def test_canonical_membership_and_projection():
    space = Canonical(1, 2)
    assert space.contains([0.0, -5.0])
    assert not space.contains([-1e-3, 0.0])
    assert np.array_equal(space.project([-2.0, 3.0]), [0.0, 3.0])
    assert space.interior_contains([0.5, -9.0])
    assert not space.interior_contains([0.0, 0.0])


def test_lorentz_projection_closed_form():
    space = Lorentz(3)
    assert np.allclose(space.project([0.0, 2.0, 0.0]), [1.0, 1.0, 0.0])
    assert np.array_equal(space.project([-3.0, 1.0, 1.0]), [0.0, 0.0, 0.0])
    inside = np.array([2.0, 1.0, 1.0])
    assert np.array_equal(space.project(inside), inside)


def test_psd_projection_matches_eigen_clipping():
    space = PSDCone(2)
    mat = np.array([[1.0, 0.0], [0.0, -2.0]])
    proj = unvech(space.project(vech(mat)), 2)
    assert np.allclose(proj, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_parabolic_projection_against_grid_search():
    space = Parabolic(2)
    x = np.array([-1.0, 2.0])
    px = space.project(x)
    # Brute-force the boundary y = (s^2, s).
    s = np.linspace(-3, 3, 200001)
    dist = (s**2 - x[0]) ** 2 + (s - x[1]) ** 2
    best = dist.min()
    assert np.dot(px - x, px - x) <= best + 1e-6
    assert space.contains(px, tol=1e-10)


def test_bounded_support_self_dual_rule_is_not_inherited_by_other_sets():
    class Ball(StateSpace):
        dim = 2

        def _margin_rows(self, xs):
            return 1.0 - np.sum(xs**2, axis=1)

    with pytest.raises(NotImplementedError):
        Ball().bounded_support([1.0, 0.0])


def test_bounded_support_canonical():
    space = Canonical(1, 2)
    assert space.bounded_support([-1.0, 0.0])
    assert not space.bounded_support([-1.0, 1.0])
    assert not space.bounded_support([0.5, 0.0])
    assert space.bounded_support([0.0, 0.0])


def test_bounded_support_lorentz():
    space = Lorentz(3)
    assert space.bounded_support([-2.0, 1.0, 0.0])
    assert not space.bounded_support([-1.0, 2.0, 0.0])


def test_bounded_support_psd_uses_trace_pairing():
    space = PSDCone(2)
    # In scaled coordinates, -vech(M) with M strictly positive definite.
    m = np.array([[1.0, 0.75], [0.75, 1.0]])
    assert space.bounded_support(-vech(m))
    indef = np.array([[1.0, 1.5], [1.5, 1.0]])
    assert not space.bounded_support(-vech(indef))


def test_bounded_support_parabolic():
    space = Parabolic(2)
    assert space.bounded_support([-1.0, 5.0])
    assert not space.bounded_support([0.0, 1.0])
    assert not space.bounded_support([1e-3, 0.0])
    assert space.bounded_support([0.0, 0.0])


def test_bounded_support_half_spaces():
    space = HalfSpaceIntersection([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    # Recession cone is the negative orthant; bounded directions are the
    # nonnegative combinations of the normals.
    assert space.bounded_support([1.0, 2.0])
    assert not space.bounded_support([-1.0, 0.0])


def test_half_space_projection_against_kkt():
    space = HalfSpaceIntersection([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    px = space.project(np.array([3.0, 0.5]))
    assert np.allclose(px, [1.0, 0.5], atol=1e-9)
    px = space.project(np.array([3.0, 4.0]))
    assert np.allclose(px, [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("degrees", [30.0, 5.0, 1.0, 0.1])
def test_wedge_images_meet_the_active_set_oracle(degrees):
    # On a narrow wedge the projection of most outside rows is the apex or a
    # point of the face that the row is nearly parallel to.
    space = _wedge(degrees)
    xs = 3.0 * np.random.default_rng(19).normal(size=(100, 2))
    images = space.project_batch(xs)
    for x, image in zip(xs, images):
        want = oracles.polyhedron_projection_exact(space.normals, space.offsets, x)
        assert np.max(np.abs(image - want)) <= 1e-12 * (1.0 + np.linalg.norm(x)), x
        assert space.contains(image)
    assert np.abs(space.project_batch(images) - images).max() <= 1e-12 * (1.0 + np.abs(xs).max())
    # (-3, 2) lies in the normal cone of the apex, its image.
    assert np.abs(space.project(np.array([-3.0, 2.0]))).max() <= 4e-12


@pytest.mark.parametrize("p", [2, 3, 4])
def test_polytope_images_meet_the_active_set_oracle(p):
    # Six random faces around the origin, which lies inside.
    rng = np.random.default_rng(29 + p)
    for _ in range(3):
        space = HalfSpaceIntersection(rng.normal(size=(6, p)), rng.uniform(0.5, 2.0, 6))
        xs = 3.0 * rng.normal(size=(8, p))
        for x, image in zip(xs, space.project_batch(xs)):
            want = oracles.polyhedron_projection_exact(space.normals, space.offsets, x)
            assert np.max(np.abs(image - want)) <= 1e-12 * (1.0 + np.linalg.norm(x)), x


def test_triangle_images_meet_the_active_set_oracle():
    space = HalfSpaceIntersection([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [2.0, 2.0, 1.0])
    xs = 3.0 * np.random.default_rng(23).normal(size=(100, 2))
    for x, image in zip(xs, space.project_batch(xs)):
        assert np.max(np.abs(image - oracles.polyhedron_projection_exact(space.normals, space.offsets, x))) <= 1e-12
    # Rows far past 1 are solved on a power-of-2 scaled copy of the problem.
    for x in ([1e160, 1e160], [1e100, -3e100], [-1e300, -1e300]):
        want = oracles.polyhedron_projection_exact(space.normals, space.offsets, x)
        assert np.max(np.abs(space.project(np.array(x)) - want)) <= 1e-15 * np.max(np.abs(x))


@pytest.mark.parametrize("s", [1e6, 1e10, 1e50, 1e300])
def test_far_rows_reach_the_triangle_vertex(s):
    # The image of (s, -s) is the vertex (2, -3) at every scale: it is taken
    # on the active faces, not as a difference of two terms of size s.
    space = SPACES[7]
    image = space.project(np.array([s, -s]))
    assert np.max(np.abs(image - [2.0, -3.0])) <= 1e-12
    assert space.project(image).tobytes() == image.tobytes()


def test_half_space_margin_of_overflowing_products():
    # 2 x_1 and -2 x_1 - 2 x_2 overflow with opposite signs, which read NaN
    # before: contains said False and project kept the row. Read on the
    # scaled row, the margin of (-1e308, 1e308) is -(1e308 - 2) = -1e308;
    # that of (1e308, -1e308), -(2e308 - 2), lies past float range and
    # reads -inf, with its sign right.
    space = HalfSpaceIntersection([[2.0, 0.0], [0.0, 1.0], [-2.0, -2.0]], [2.0, 2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, margin in (([-1e308, 1e308], -1e308), ([1e308, -1e308], -np.inf)):
            x = np.array(x)
            assert space._margin_rows(x[None, :])[0] == margin
            assert not space.contains(x)
            want = oracles.polyhedron_projection_exact(space.normals, space.offsets, x)
            assert np.max(np.abs(space.project(x) - want)) <= 1e-12 * np.abs(want).max()


def test_empty_interior_rejected():
    with pytest.raises(ModelFormatError):
        HalfSpaceIntersection([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])


def test_space_from_dict_round_trip():
    for space in SPACES:
        assert space_from_dict(space.to_dict()) == space


def test_space_from_dict_rejects_unknown_kind():
    with pytest.raises(ModelFormatError):
        space_from_dict({"kind": "moebius", "p": 2})
