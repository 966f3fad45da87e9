"""Closed convex state spaces: membership, Euclidean projection, interior
tests, and boundedness of linear functionals.

Supported families: the canonical orthant-times-free space R_+^m x R^(p-m),
the positive semidefinite cone in half-vectorized coordinates, the Lorentz
cone, the parabolic set {x : x_1 >= |x_bar|^2}, and finite intersections of
half spaces.

One rule holds for every family: E is a closed convex subset of R^dim, so
a point with an inf or NaN entry, or with a bool, a string or a complex
number for an entry, lies in no state space, and every public entry
(``contains``, ``interior_contains``, ``project``, ``project_batch``,
``distance``, ``bounded_support``, ``phi``) refuses it with
StateSpaceMismatch, naming a non-finite entry and, in a batch, its row. The
families see finite float rows only. A family's sizes are counts, checked
by name as record fields (ModelFormatError).

Projection and membership are batched over the rows of an ``(n, dim)``
array: each family implements the signed margin ``_margin_rows`` once, of
which ``contains`` and ``interior_contains`` are single-row tests, and
``project`` is the single-row case of ``project_batch``. One policy,
``StateSpace._project_rows``, moves exactly the rows whose margin is
negative, through the family's ``_project_outside``, and returns every other
row bit for bit, so ``project`` leaves exactly the points that ``contains``
accepts at ``tol = 0`` unchanged. The policy makes no finiteness test, so a
caller that has tested its rows already, as the Euler step does, may call it
directly. ``Canonical`` alone keeps its own clip of the whole batch, already
the identity on members and cheaper than a margin.
The ``PSDCone`` margin is the smallest eigenvalue: for d = 2 in closed form,
a/2 + c/2 - hypot(a/2 - c/2, s/sqrt(2)) of a row (a, s, c), which squares
nothing, and by LAPACK's eigvalsh for every other d; its projection clips
the spectrum, in closed form for d = 2 and by eigh otherwise. A PSD row with an
entry of magnitude 2^1000 or more, where the clip's sums could leave float
range, is read on its row scaled by a power of 2, which is exact, and every
other row as it is.
A row's image never depends on the other rows in its batch, so simulations
stay reproducible when the path count changes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (DimensionMismatch, ModelFormatError, StateSpaceMismatch, UnsupportedSpace, _check_count,
                     _check_positive, finite_floats)

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _vech_maps(d):
    """Index maps of the half-vectorization of d x d matrices, read-only,
    since every caller shares them: the flat position in the matrix of each
    vech coordinate (the upper triangle, row by row), each coordinate's
    scale (sqrt(2) off the diagonal, 1 on it), and for each entry of the
    flattened matrix the vech coordinate that holds it."""
    iu, ju = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    maps = iu * d + ju, np.where(iu == ju, 1.0, _SQRT2), pos.ravel()
    for a in maps:
        a.flags.writeable = False
    return maps


def row_sq_sums(xs):
    """``np.sum(xs**2, axis=1)`` of an ``(n, w)`` array, bit for bit. numpy
    sums a row narrower than 8 entries left to right, one short inner loop
    per row; this sums such rows one column at a time across the batch, in
    the same order. Wider rows, which numpy sums pairwise, keep ``np.sum``."""
    if not 0 < xs.shape[1] < 8:
        return np.sum(xs**2, axis=1)
    col = xs[:, 0]
    total = col * col
    for j in range(1, xs.shape[1]):
        col = xs[:, j]
        total += col * col
    return total


_TAIL_LO = 2.0**-511  # sqrt of the smallest normal float


def _scaled(rows):
    """Each row of an ``(n, w)`` array times the power of 2 that puts its
    largest |entry| in [1/2, 1), and the exponents k with row = scaled 2^k.
    Sums of squares of a scaled row stay in float range, and the scaling
    changes no bit of an entry that stays a normal float, so a quantity of
    degree 1 in the row, read on the scaled row and multiplied by 2^k, is
    read at any magnitude. A zero row keeps k = 0. The largest entry is
    found one column at a time, as in row_sq_sums."""
    big = np.zeros(rows.shape[0])
    for col in np.abs(rows).T:
        np.maximum(big, col, out=big)
    k = np.frexp(big)[1]
    return np.ldexp(rows, -k[:, None]), k


# Below it, the sums and products of PSDCone's margin and projection, at
# most a few sqrt(d(d+1)/2) times the largest entry, stay in float range.
_ENTRY_BIG = 2.0**1000


def _read_scaled(f, xs):
    """f(xs) for a map f of the rows of an ``(n, w)`` array that reads each
    row alone and is homogeneous of degree 1 in it. A row with an entry of
    magnitude _ENTRY_BIG or more is read on its _scaled row and its image
    multiplied back by 2^k, so that f's sums and products stay in float
    range; every other row is read as it is, bit for bit. One test of the
    whole batch decides whether any row needs it."""
    if np.abs(xs).max(initial=0.0) < _ENTRY_BIG:
        return f(xs)
    odd = np.flatnonzero(np.abs(xs).max(axis=1) >= _ENTRY_BIG)
    xs, k = xs.copy(), np.zeros(xs.shape[0], dtype=int)
    xs[odd], k[odd] = _scaled(xs[odd])
    with np.errstate(over="ignore"):
        # .T puts the rows on the last axis of a 1-d or 2-d image.
        return np.ldexp(f(xs).T, k).T


def vech(mat):
    """Half-vectorize a symmetric matrix, scaling off-diagonal entries by
    sqrt(2) so the Euclidean inner product of images equals trace(XY).
    A stack of shape ``(..., d, d)`` maps to ``(..., d(d+1)/2)``."""
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    upper, scale, _ = _vech_maps(d)
    # Multiplying by 1.0 leaves the diagonal exact.
    return mat.reshape(mat.shape[:-2] + (d * d,))[..., upper] * scale


def unvech(x, d):
    """Inverse of :func:`vech` for dimension ``d``; maps ``(..., d(d+1)/2)``
    to ``(..., d, d)``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d * (d + 1) // 2,):
        raise DimensionMismatch(f"vech vector has shape {x.shape}, expected (..., {d*(d+1)//2})")
    _, scale, gather = _vech_maps(d)
    return (x / scale)[..., gather].reshape(x.shape[:-1] + (d, d))


def _require_finite(xs):
    """xs, a point or an ``(n, dim)`` batch of them, as floats, if every
    entry is a finite real number. Otherwise StateSpaceMismatch names the
    first entry that is not finite, and its row in a batch, or the dtype of
    entries that are no real numbers: no state space holds such a point."""
    if xs.dtype.kind not in "iuf":
        raise StateSpaceMismatch(f"a state must hold real numbers, not {xs.dtype.name}")
    xs = xs.astype(float, copy=False)
    # On a point's few entries a Python loop takes a fifth of the time of
    # one numpy reduction, which most public calls would otherwise pay.
    if (all(map(math.isfinite, xs.tolist())) if xs.ndim == 1 else np.isfinite(xs).all()):
        return xs
    where = tuple(np.argwhere(~np.isfinite(xs))[0].tolist())
    at = f"state entry {where[-1]}" + (f" of row {where[0]}" if xs.ndim == 2 else "")
    raise StateSpaceMismatch(f"{at} is {xs[where]}, not a finite number")


class StateSpace:
    """Base class; concrete families implement the geometric primitives."""

    kind = "abstract"
    noun = "state space"
    dim = 0
    # Tolerance of bounded_support's test.
    _SUPPORT_TOL = 1e-12
    # Whether the space is a cone that is self-dual for the Euclidean inner
    # product; such spaces define ``phi``.
    self_dual = False

    def contains(self, x, tol=1e-9):
        """Whether x lies in the space up to the tolerance: margin >= -tol."""
        tol = _check_positive(tol, "tol", zero_ok=True)
        return bool(self._margin_rows(self._check_dim(x)[None, :])[0] >= -tol)

    def interior_contains(self, x):
        """Whether x lies in the interior: margin > 0."""
        return bool(self._margin_rows(self._check_dim(x)[None, :])[0] > 0.0)

    def _margin_rows(self, xs):
        """Signed membership margin of each row of an ``(n, dim)`` float
        array: nonnegative exactly on the space, positive on its interior."""
        raise NotImplementedError

    def project(self, x):
        """Euclidean projection of one point: the single-row case of
        :meth:`project_batch`."""
        return self._project_rows(self._check_dim(x)[None, :])[0]

    def project_batch(self, xs):
        """Euclidean projection of each row of an ``(n, dim)`` array."""
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise DimensionMismatch(f"batch has shape {xs.shape}, expected (n, {self.dim})")
        return self._project_rows(_require_finite(xs))

    def _project_rows(self, xs):
        """Project the rows of an ``(n, dim)`` float array, ``n >= 0``, into a
        new array: the rows whose margin is negative go through
        ``_project_outside``, and every other row is copied bit for bit."""
        out = xs.copy()
        rows = (self._margin_rows(xs) < 0.0).nonzero()[0]
        if rows.size:
            out[rows] = self._project_outside(xs[rows])
        return out

    def _project_outside(self, ys):
        """Images of the rows of a ``(k, dim)`` array, ``k >= 1``, each of
        whose margins is negative; a row's image must not depend on the
        other rows."""
        raise NotImplementedError

    def distance(self, x):
        x = self._check_dim(x)
        return float(np.linalg.norm(x - self._project_rows(x[None, :])[0]))

    def bounded_support(self, r):
        """True iff sup over the space of r.x is finite. This is the rule of
        a self-dual cone, whose dual is itself under the Euclidean product:
        -r must lie in the space. Every other family overrides it."""
        if not self.self_dual:
            raise NotImplementedError(f"{type(self).__name__} defines no bounded_support")
        return self.contains(-self._check_dim(r), tol=self._SUPPORT_TOL)

    def phi(self, x):
        """Boundary function of a self-dual cone: positive on the interior,
        zero on the boundary, homogeneous in x."""
        raise UnsupportedSpace(f"state space {self!r} is not a supported self-dual cone")

    def to_dict(self):
        raise NotImplementedError

    def _check_dim(self, x):
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        return _require_finite(x)

    def __eq__(self, other):
        return isinstance(other, StateSpace) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(tuple(sorted(self.to_dict().items(), key=lambda kv: kv[0])))

    def __repr__(self):
        fields = ", ".join(f"{k}={v}" for k, v in self.to_dict().items() if k != "kind")
        return f"{type(self).__name__}({fields})"


class Canonical(StateSpace):
    """R_+^m x R^(p-m): the first ``m`` coordinates are nonnegative."""

    kind = "canonical"

    def __init__(self, m, p):
        self.m = _check_count(m, "canonical: 'm'", 0, ModelFormatError)
        self.dim = _check_count(p, "canonical: 'p'", max(self.m, 1), ModelFormatError)

    @property
    def self_dual(self):
        return self.m == self.dim

    def _margin_rows(self, xs):
        if self.m == 0:
            return np.full(xs.shape[0], np.inf)
        return xs[:, : self.m].min(axis=1)

    def _project_rows(self, xs):
        out = xs.copy()
        out[:, : self.m] = np.maximum(out[:, : self.m], 0.0)
        return out

    def bounded_support(self, r):
        r, tol = self._check_dim(r), self._SUPPORT_TOL
        return bool(np.all(r[: self.m] <= tol) and np.all(np.abs(r[self.m:]) <= tol))

    def phi(self, x):
        """Product of the coordinates, on the orthant (m == p) only."""
        if not self.self_dual:
            return super().phi(x)
        return float(np.prod(self._check_dim(x)))

    def to_dict(self):
        return {"kind": self.kind, "m": self.m, "p": self.dim}


class PSDCone(StateSpace):
    """Positive semidefinite d x d matrices in scaled half-vectorized
    coordinates (off-diagonals carry a sqrt(2) factor), so Euclidean
    geometry on the coordinates matches Frobenius geometry on matrices.
    The margin is the smallest eigenvalue and the projection clips the
    spectrum at 0: for d = 2 in closed form, for other d by LAPACK. Both
    read a row at the ends of float range through _read_scaled."""

    kind = "psd_cone"
    self_dual = True

    def __init__(self, d):
        self.d = _check_count(d, "psd_cone: 'd'", 1, ModelFormatError)
        self.dim = self.d * (self.d + 1) // 2

    def _margin_rows(self, xs):
        return _read_scaled(_psd2_margin if self.d == 2 else self._eig_margin, xs)

    def _project_outside(self, ys):
        return _read_scaled(_psd2_image if self.d == 2 else self._eig_image, ys)

    def _eig_margin(self, xs):
        # The smallest eigenvalue; eigvalsh sorts them ascending.
        return np.linalg.eigvalsh(unvech(xs, self.d))[:, 0]

    def _eig_image(self, ys):
        # Clip the spectrum, V max(W, 0) V^T. Which rows move is decided by
        # the eigvalsh margin, not by eigh: the two can differ in sign on
        # rank-deficient matrices, and members must come back bit for bit.
        w, v = np.linalg.eigh(unvech(ys, self.d))
        w = np.maximum(w, 0.0)
        return vech((v * w[:, None, :]) @ np.swapaxes(v, 1, 2))

    def phi(self, x):
        """Determinant of the matrix."""
        return float(np.linalg.det(unvech(self._check_dim(x), self.d)))

    def to_dict(self):
        return {"kind": self.kind, "d": self.d}


# A row (a, s, c) = vech([[a, b], [b, c]]) divided by these reads
# (a/2, b, c/2), with b = s / sqrt(2) as unvech reads it.
_PSD2_DIVISORS = np.array([2.0, _SQRT2, 2.0])
_SUBNORMAL_MIN = np.nextafter(0.0, 1.0)


def _psd2_parts(xs):
    """m = a/2 + c/2, delta = a/2 - c/2 and h = hypot(delta, b) of the rows
    of an ``(n, 3)`` array: [[a, b], [b, c]] has the eigenvalues m - h and
    m + h. Nothing is squared: |m|, |delta| <= max|entry| and
    h <= 1.23 max|entry|, so below _ENTRY_BIG neither these nor m + h, 2h
    and h + delta leave float range."""
    q = xs / _PSD2_DIVISORS
    m = q[:, 0] + q[:, 2]
    delta = q[:, 0] - q[:, 2]
    return m, delta, np.hypot(delta, q[:, 1])


def _psd2_margin(xs):
    m, _, h = _psd2_parts(xs)
    return np.subtract(m, h, out=m)


def _psd2_image(ys):
    # lambda_max P, with P = (M - lambda_min I) / (2h) the spectral projector
    # of lambda_max = m + h: r (h + delta, s, h - delta), r = lambda_max / (2h).
    # A polar row, lambda_max <= 0, has r = 0. An outside row with h = 0 is
    # m I with m < 0, a polar row, where the smallest subnormal stands in for
    # 2h so that no 0/0 is formed; where h > 0, 2h is at least twice that and
    # keeps its value.
    m, delta, h = _psd2_parts(ys)
    r = np.maximum(np.add(m, h, out=m), 0.0, out=m)
    r /= np.maximum(h + h, _SUBNORMAL_MIN)
    out = np.empty_like(ys)
    np.add(h, delta, out=out[:, 0])
    out[:, 1] = ys[:, 1]
    np.subtract(h, delta, out=out[:, 2])
    out *= r[:, None]
    return out


class Lorentz(StateSpace):
    """The cone {x in R^p : x_1 >= |(x_2..x_p)|}."""

    kind = "lorentz"
    self_dual = True

    def __init__(self, p):
        self.dim = _check_count(p, "lorentz: 'p'", 2, ModelFormatError)

    def _margin_rows(self, xs):
        # x_1 - |x_bar| by the sum of squares, except on the rows whose sum
        # of squares passes the largest float (where a member would read -inf)
        # or whose norm falls below _TAIL_LO, where squares lose bits: those
        # are read on the _scaled row.
        with np.errstate(over="ignore"):
            tail = row_sq_sums(xs[:, 1:])
            np.sqrt(tail, out=tail)
            odd = np.flatnonzero((tail < _TAIL_LO) | (tail == np.inf))
            margin = np.subtract(xs[:, 0], tail, out=tail)
        if odd.size:
            s, k = _scaled(xs[odd])
            with np.errstate(over="ignore"):
                margin[odd] = np.ldexp(s[:, 0] - np.sqrt(row_sq_sums(s[:, 1:])), k)
        return margin

    def _project_outside(self, ys):
        # Rows outside, x_1 < |x_bar|, go to 0 if they lie in the polar cone,
        # x_1 <= -|x_bar|, and otherwise onto the ray through
        # (1, x_bar / |x_bar|) at height alpha = (x_1 + |x_bar|) / 2. Both are
        # read on the _scaled row, and the image tail is x_bar times
        # alpha / |x_bar|, which no scale changes.
        s, k = _scaled(ys)
        head, tail = s[:, 0], np.sqrt(row_sq_sums(s[:, 1:]))
        polar = head <= -tail
        alpha = 0.5 * head + 0.5 * tail
        # tail > 0 on every outside row that is not polar; a polar row's
        # ratio is 0, so its product cannot overflow before it is zeroed.
        out = ys * (alpha / np.where(polar, np.inf, tail))[:, None]
        with np.errstate(over="ignore"):
            out[:, 0] = np.ldexp(alpha, k)
        out[polar] = 0.0
        return out

    def phi(self, x):
        """The quadratic x_1^2 - |x_bar|^2."""
        x = self._check_dim(x)
        return float(x[0] ** 2 - np.dot(x[1:], x[1:]))

    def to_dict(self):
        return {"kind": self.kind, "p": self.dim}


class Parabolic(StateSpace):
    """The set {x in R^p : x_1 >= x_2^2 + ... + x_p^2}. An outside row moves
    along its own tail direction to the radius |y_bar| that _parabolic_radii
    gives it, with y_1 = |y_bar|^2: one solver for every row, which reads
    |x_bar| on the _scaled tail, so that it holds at any finite magnitude."""

    kind = "parabolic"

    def __init__(self, p):
        self.dim = _check_count(p, "parabolic: 'p'", 2, ModelFormatError)

    def _margin_rows(self, xs):
        # A sum of squares past float range reads inf and the margin -inf,
        # whose sign is right, since x_1 lies below the sum.
        with np.errstate(over="ignore"):
            return xs[:, 0] - row_sq_sums(xs[:, 1:])

    def _project_outside(self, ys):
        # |x_bar| = r 2^k is read on the _scaled tail, and the image tail is
        # x_bar times rho / |x_bar| <= 1; r = 0 only where x_bar = 0, whose
        # image keeps y_bar = 0.
        s, k = _scaled(ys[:, 1:])
        r = np.sqrt(row_sq_sums(s))
        rho = _parabolic_radii(ys[:, 0], r, k - 1)
        out = np.empty_like(ys)
        out[:, 1:] = ys[:, 1:] * np.ldexp(rho / np.where(r > 0.0, r, 1.0), -k)[:, None]
        out[:, 0] = row_sq_sums(out[:, 1:])
        return out

    def bounded_support(self, r):
        r, tol = self._check_dim(r), self._SUPPORT_TOL
        if r[0] < -tol:
            return True
        return bool(np.all(np.abs(r) <= tol))

    def to_dict(self):
        return {"kind": self.kind, "p": self.dim}


def _parabolic_radii(x1, m, j):
    """|y_bar| of the projections of rows (x1, x_bar) with |x_bar| / 2 =
    c = m 2^j onto the parabolic set, c given by its mantissa m and exponent
    j since it may pass the largest float: with y_bar = x_bar / (1 + 2 mu)
    and y_1 = x1 + mu = |y_bar|^2 by the KKT system, the positive root
    rho = 2c / (1 + 2 mu) of rho^3 + b rho - c, b = 1/2 - x1. u bounds rho
    above within a factor 2 (for b >= 0 by the smaller of the cubic and the
    linear root, for b < 0 by the sum of both magnitudes), so with
    v = rho / 2^k, 2^k about u, and the cubic divided by 2^(k + e), 2^e about
    max(u^2, |b|), every coefficient lies in [-1, 2] at any magnitude of x1
    and c. A row stops at its first Newton step below 1e-15 v, so its
    iterates, and its radius, do not depend on the other rows."""
    b = 0.5 - x1
    # cbrt(c) and c / b with their powers of 2 taken out, so that neither
    # leaves float range where c does; np.where evaluates both branches.
    q, t = np.divmod(j, 3)
    root3 = np.ldexp(np.cbrt(np.ldexp(m, t)), q)
    b_m, b_e = np.frexp(b)
    with np.errstate(divide="ignore", over="ignore"):
        u = np.where(b >= 0.0, np.minimum(root3, np.ldexp(m / b_m, j - b_e)), np.sqrt(np.abs(b)) + root3)
    k = np.frexp(u)[1]
    e = np.maximum(2 * k, b_e)
    cube, lin, const = np.ldexp(1.0, 2 * k - e), np.ldexp(b, -e), np.ldexp(m, j - k - e)
    # The cubic in v is convex on v > 0 and negative at 0, so Newton from its
    # upper bound falls monotonically onto the positive root.
    v = np.ldexp(u, -k)
    moving = np.ones(v.shape, dtype=bool)
    for _ in range(100):
        vv = cube * v * v
        step = ((vv + lin) * v - const) / (3.0 * vv + lin)
        np.subtract(v, step, out=v, where=moving)
        moving &= step > 1e-15 * v
        if not moving.any():
            break
    return np.ldexp(v, k)


class HalfSpaceIntersection(StateSpace):
    """{x : normals @ x <= offsets}; rejected at construction if the
    interior is empty (lower-dimensional sets are out of scope)."""

    kind = "half_spaces"
    # Relative residual of the nnls fit in bounded_support.
    _SUPPORT_TOL = 1e-9

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(finite_floats(normals, "half_spaces: normals"))
        offsets = finite_floats(offsets, "half_spaces: offsets").ravel()
        if normals.shape[0] != offsets.size:
            raise ModelFormatError("half-space normals and offsets disagree in count")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms == 0.0):
            raise ModelFormatError("half-space normal must be nonzero")
        self.normals = normals
        self.offsets = offsets
        self.dim = normals.shape[1]
        self._check_full_dimensional()

    def _check_full_dimensional(self):
        # Chebyshev center: max t s.t. Nx + t|n_k| <= c; t <= 0 means no interior.
        from scipy.optimize import linprog

        p = self.dim
        norms = np.linalg.norm(self.normals, axis=1)
        c_obj = np.zeros(p + 1)
        c_obj[-1] = -1.0
        a_ub = np.hstack([self.normals, norms[:, None]])
        bounds = [(None, None)] * p + [(None, 1.0)]
        res = linprog(c_obj, A_ub=a_ub, b_ub=self.offsets, bounds=bounds, method="highs")
        if not res.success or -res.fun <= 1e-12:
            raise ModelFormatError("half-space intersection has empty interior")

    def _margin_rows(self, xs):
        # Row-wise sums, not a matrix product, whose blocking can vary with n.
        # A row whose N x leaves float range (two products that overflow
        # with opposite signs read NaN) is read on its _scaled row against
        # offsets scaled alike, N x - c being homogeneous in (x, c) jointly;
        # a margin past float range then reads -inf, its sign right.
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = (xs[:, None, :] * self.normals).sum(axis=2) - self.offsets
            odd = ~np.isfinite(gaps).all(axis=1)
            if odd.any():
                ys, k = _scaled(xs[odd])
                gaps[odd] = np.ldexp((ys[:, None, :] * self.normals).sum(axis=2)
                                     - np.ldexp(self.offsets, -k[:, None]), k[:, None])
        return -np.max(gaps, axis=1)

    def _project_outside(self, ys):
        # Lawson & Hanson's least-distance program (Solving Least Squares
        # Problems, 1974, ch. 23), row by row: the nnls of [-N^T; (N y - c)^T]
        # against e_(p+1) names the active faces by its positive entries, on
        # 2^-e y, below 1 in every entry, and {N x <= 2^-e c}, so that no sum
        # overflows. By one SVD of the active normals, the image is the
        # least-norm point of their faces plus y's component along them, so
        # no digits cancel at any scale (with no active face, y itself).
        from scipy.optimize import nnls

        normals, offsets = self.normals, self.offsets
        target = np.zeros(self.dim + 1)
        target[-1] = 1.0
        out = np.empty_like(ys)
        for k, y in enumerate(ys):
            e = max(int(np.frexp(np.abs(y).max())[1]), 0)
            y = np.ldexp(y, -e)
            active = nnls(np.vstack([-normals.T, normals @ y - np.ldexp(offsets, -e)]), target)[0] > 0.0
            u, sv, vt = np.linalg.svd(normals[active])
            rank = int(np.sum(sv > sv.max(initial=0.0) * max(normals.shape) * np.finfo(float).eps))
            along = vt[rank:]
            x0 = vt[:rank].T @ ((u[:, :rank].T @ offsets[active]) / sv[:rank])
            out[k] = x0 + np.ldexp(along.T @ (along @ y), e)
        return out

    def bounded_support(self, r):
        # sup r.x finite iff r is a nonnegative combination of the normals.
        from scipy.optimize import nnls

        r = self._check_dim(r)
        _, resid = nnls(self.normals.T, r)
        return bool(resid <= self._SUPPORT_TOL * (1.0 + np.linalg.norm(r)))

    def to_dict(self):
        return {
            "kind": self.kind,
            "normals": [list(map(float, row)) for row in self.normals],
            "offsets": [float(v) for v in self.offsets],
        }


def space_from_dict(rec):
    """Build a state space from its tagged-record form."""
    if not isinstance(rec, dict) or "kind" not in rec:
        raise ModelFormatError("state_space: expected a record with a 'kind' tag")
    kind = rec["kind"]
    try:
        if kind == "canonical":
            return Canonical(rec["m"], rec["p"])
        if kind == "psd_cone":
            return PSDCone(rec["d"])
        if kind == "lorentz":
            return Lorentz(rec["p"])
        if kind == "parabolic":
            return Parabolic(rec["p"])
        if kind == "half_spaces":
            return HalfSpaceIntersection(rec["normals"], rec["offsets"])
    except KeyError as exc:
        raise ModelFormatError(f"state_space: missing field {exc} for kind '{kind}'") from exc
    raise ModelFormatError(f"state_space: unknown kind '{kind}'")
