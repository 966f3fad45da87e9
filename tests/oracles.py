"""Independent oracles, derived and committed before the solver is trusted.

Every function here is computed by a route that does not share code with the
library: direct quadrature, a separately configured Runge-Kutta run, or a
hand-derived closed form whose derivation is recorded in the docstring.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm


def ray_exp_moment_quadrature(mass, rate, a, tol=1e-12):
    """integral over s>0 of (exp(a s) - 1 - a s) mass rate exp(-rate s) ds by
    adaptive quadrature (real and imaginary parts separately). The decaying
    exponential is distributed into each term so no factor overflows."""
    if np.real(a) >= rate:
        raise ValueError("diverges")

    def value(s):
        return mass * rate * (
            np.exp((a - rate) * s) - np.exp(-rate * s) - a * s * np.exp(-rate * s)
        )

    re, _ = quad(lambda s: np.real(value(s)), 0.0, np.inf, epsabs=tol, epsrel=tol)
    im, _ = quad(lambda s: np.imag(value(s)), 0.0, np.inf, epsabs=tol, epsrel=tol)
    return re + 1j * im


def mean_flow_rk(a0, a, x, t):
    """Flow of x' = a0 + a x by an RK45 run, independent of the matrix
    exponential used by the library."""
    a0 = np.asarray(a0, dtype=float)
    a = np.asarray(a, dtype=float)
    sol = solve_ivp(
        lambda _, y: a0 + a @ y,
        (0.0, t),
        np.asarray(x, dtype=float),
        method="RK45",
        rtol=1e-12,
        atol=1e-14,
    )
    return sol.y[:, -1]


def hitting_time_1d(rhs, u, level, tol=1e-12):
    """Time at which the scalar autonomous equation y' = rhs(y), y(0) = u,
    reaches level > u, assuming rhs > 0 on [u, level): the integral over
    [u, level] of dy/rhs(y)."""
    with np.errstate(over="ignore"):
        val, _ = quad(lambda y: 1.0 / rhs(y), u, level, epsabs=tol, epsrel=tol)
    return val


def explosion_time_1d(rhs, u, tol=1e-12):
    """Blow-up time of y' = rhs(y), y(0) = u: the hitting time of inf."""
    return hitting_time_1d(rhs, u, np.inf, tol)


def explosion_time_rel_1d(rhs, u, tol=1e-10):
    """explosion_time_1d to a relative tolerance alone, for blow-up times so
    small that its absolute tolerance would swamp them."""
    with np.errstate(over="ignore"):
        val, _ = quad(lambda y: 1.0 / rhs(y), u, np.inf, epsabs=0.0, epsrel=tol)
    return val


def psi0_quadrature(r0, psi, t, scale=1.0, tol=1e-13):
    """psi_0(t) = integral over [0, t] of R_0(psi(s)) ds by adaptive
    quadrature along a known real path psi(s), for a real rate r0. The
    integrand is divided by scale and the integral multiplied back, so a
    value near the float limit does not overflow inside the rule."""
    val, _ = quad(lambda s: r0(psi(s)) / scale, 0.0, t, epsabs=0.0, epsrel=tol, limit=500)
    return val * scale


def jump_second_moments(rec, p):
    """The matrix integral of z z^T against one jump record of the JSON
    schema: sum w z z^T over weighted points, and 2 mass d d^T / rate^2 on
    an exponential ray, whose density along s d is mass rate e^(-rate s)."""
    if rec is None:
        return np.zeros((p, p))
    if rec["family"] == "exponential_ray":
        d = np.array(rec["direction"], dtype=float)
        return 2.0 * rec["mass"] * np.outer(d, d) / rec["rate"] ** 2
    if rec["family"] == "finite_atomic":
        weights, points = [a["weight"] for a in rec["atoms"]], [a["z"] for a in rec["atoms"]]
    else:
        weights, points = rec["weights"], rec["nodes"]
    z = np.array(points, dtype=float).reshape(-1, p)
    return (np.array(weights, dtype=float)[:, None] * z).T @ z


def affine_moments(record, x, t):
    """E_x X_t and Cov_x X_t of the affine model in a JSON record (the
    schema of ``modelio``), read from the record alone, by the polynomial
    property: the generator maps (1, x, x x^T) into their span, so one
    matrix exponential of that (1 + p + p^2)-square map carries them to t.
    With b(x) = a^0 + sum_i a^i x_i, c(x) = A^0 + sum_i A^i x_i and
    K(x, dz) = K^0 + sum_i x_i K^i, compensated by z, the generator sends
    x_j to b_j(x) and x_j x_k to b_j x_k + b_k x_j + c_jk(x) +
    int z_j z_k K(x, dz), which is affine in (x, x x^T)."""
    p = record["dim"]
    a0 = np.array(record["a0"], dtype=float)
    a = np.array(record["a"], dtype=float).T  # the record lists the columns a^i
    rows, cols = np.triu_indices(p)
    quad_rate = np.zeros((p + 1, p, p))  # c(x) + int z z^T K(x, dz), per x_i
    for i, tri in enumerate(record["A"]):
        quad_rate[i, rows, cols] = quad_rate[i, cols, rows] = tri
    for i, rec in enumerate(record.get("K") or [None] * (p + 1)):
        quad_rate[i] += jump_second_moments(rec, p)
    n = 1 + p + p * p
    lin, sq = 1 + np.arange(p), 1 + p + np.arange(p * p).reshape(p, p)  # slots of x_j, x_j x_k
    gen = np.zeros((n, n))
    gen[lin, 0] = a0
    gen[np.ix_(lin, lin)] = a
    for j in range(p):
        for k in range(p):
            r = sq[j, k]
            gen[r, lin[k]] += a0[j]
            gen[r, lin[j]] += a0[k]
            gen[r, sq[:, k]] += a[j]  # a_jl x_l x_k
            gen[r, sq[:, j]] += a[k]
            gen[r, 0] += quad_rate[0, j, k]
            gen[r, lin] += quad_rate[1:, j, k]
    x = np.asarray(x, dtype=float)
    m = expm(gen * t) @ np.concatenate([[1.0], x, np.outer(x, x).ravel()])
    mean = m[lin]
    return mean, m[sq] - np.outer(mean, mean)


# Closed forms. Derivations:
#
# squared scalar / CIR family (a^0 = mu, A^1 = [2], no jumps):
#   psi' = psi^2, psi(0) = u  =>  d(-1/psi) = dt  =>  psi(t) = u / (1 - u t),
#   blow-up at t = 1/u for u > 0. psi0' = mu psi  =>  psi0 = -mu log(1 - u t).
#
# OU (a^1 = [-kappa], A^0 = [sigma^2]):
#   psi' = -kappa psi  =>  psi(t) = u e^(-kappa t);
#   psi0' = sigma^2 psi^2 / 2  =>  psi0(t) = sigma^2 u^2 (1 - e^(-2 kappa t))
#   / (4 kappa).
#
# compound Poisson with drift (a^0 = mu, K^0 atoms (w_j, z_j)):
#   R_1 = 0 so psi(t) = u; psi0' = R_0(u) is constant in t, hence
#   psi0(t) = t (mu u + sum_j w_j (e^(u z_j) - 1 - u z_j)).
#
# Lorentz drift model (a^0 = e_1, a = -I, no diffusion or jumps):
#   psi' = a^T psi = -psi  =>  psi(t) = e^(-t) u;  psi0' = psi . a^0 = psi_1
#   =>  psi0(t) = u_1 (1 - e^(-t)).
#
# complexified planar quadratic (A^1 = [[1,0],[0,-1]], A^2 = [[0,1],[1,0]]):
#   in v = y_1 + i y_2 the system is v' = v^2 / 2, so v(t) = v0/(1 - v0 t/2)
#   and the blow-up time along v0 in (0, inf) is 2 / v0.
#
# Wishart on 2x2 PSD matrices (Bru 1991; Q = I, M = -I/2, beta = 3, so
# a^0 = vech(3 I) and a = -I), in the scaled half-vectorization
# x = (X_11, sqrt(2) X_12, X_22), whose inner product is tr(XY):
#   Psi' = Psi M + M^T Psi + 2 Psi Q^T Q Psi = -Psi + 2 Psi^2. With
#   Psi = e^(-t) W, W' = 2 e^(-t) W^2, so (W^-1)' = -2 e^(-t) I and
#   Psi(t) = e^(-t) U (I - 2 V_t U)^(-1), V_t = 1 - e^(-t).
#   psi0' = beta tr(Q^T Q Psi) = 3 tr Psi, and
#   d/dt -(1/2) log(1 - 2 V_t lambda) = e^(-t) lambda / (1 - 2 V_t lambda),
#   so psi0(t) = -(3/2) sum_i log(1 - 2 V_t lambda_i(U)). Re U <= 0 puts every
#   lambda_i, which lies in the numerical range of U, at Re lambda_i <= 0, so
#   1 - 2 V_t lambda_i keeps real part >= 1 and the principal log is
#   continuous in t. For real U with lambda_max > 1/2, I - 2 V_t U turns
#   singular at V_t = 1 / (2 lambda_max): T* = -log(1 - 1 / (2 lambda_max)).


def cir_psi(t, u, mu=1.0):
    return u / (1.0 - u * t)


def cir_psi0(t, u, mu=1.0):
    return -mu * np.log(1.0 - u * t)


def mean_reverting_cir_psi(t, u, kappa):
    """psi for dX = kappa (1 - X) dt + sqrt(2X) dW: psi' = -kappa psi + psi^2
    is a Bernoulli equation, and w = 1/psi solves w' = kappa w - 1, so
    psi = kappa u e^{-kappa t} / (kappa - u (1 - e^{-kappa t}))."""
    return kappa * u * np.exp(-kappa * t) / (kappa + u * np.expm1(-kappa * t))


def mean_reverting_cir_psi0(t, u, kappa):
    """psi_0 = integral of kappa psi = -kappa log(1 - u (1 - e^{-kappa t}) / kappa)."""
    return -kappa * np.log(1.0 + u * np.expm1(-kappa * t) / kappa)


def ou_psi(t, u, kappa=1.0):
    return u * np.exp(-kappa * t)


def ou_psi0(t, u, kappa=1.0, sigma_sq=1.0):
    return sigma_sq * u * u * (1.0 - np.exp(-2.0 * kappa * t)) / (4.0 * kappa)


def compensator_series(e):
    """exp(e) - 1 - e for small |e| by its Taylor series e^2/2 + e^3/6 + e^4/24,
    which cancels nothing; the first omitted term is e^5/120."""
    e = np.asarray(e)
    return e * e / 2.0 + e**3 / 6.0 + e**4 / 24.0


def compound_poisson_psi0(t, u, mu=1.0, weights=(0.5, 0.25), atoms=(0.4, 0.8)):
    u = np.asarray(u, dtype=complex)
    acc = mu * u
    for w, z in zip(weights, atoms):
        acc = acc + w * (np.exp(u * z) - 1.0 - u * z)
    return t * acc


def lorentz_psi(t, u):
    return np.exp(-t) * np.asarray(u, dtype=complex)


def lorentz_psi0(t, u):
    return complex(np.asarray(u, dtype=complex)[0]) * (1.0 - np.exp(-t))


def planar_quadratic_psi(t, u):
    u = np.asarray(u, dtype=complex)
    vp = u[0] + 1j * u[1]
    vm = u[0] - 1j * u[1]
    vp_t = vp / (1.0 - 0.5 * vp * t)
    vm_t = vm / (1.0 - 0.5 * vm * t)
    return np.array([(vp_t + vm_t) / 2.0, (vp_t - vm_t) / 2j])


def wishart_vech(mat):
    """(M_11, sqrt(2) M_12, M_22) of a symmetric 2x2 matrix."""
    return np.array([mat[0, 0], np.sqrt(2.0) * mat[0, 1], mat[1, 1]])


def wishart_unvech(x):
    off = x[1] / np.sqrt(2.0)
    return np.array([[x[0], off], [off, x[2]]])


def wishart_psi(t, u):
    u_mat = wishart_unvech(np.asarray(u, dtype=complex))
    v = -np.expm1(-t)
    return wishart_vech(np.exp(-t) * u_mat @ np.linalg.inv(np.eye(2) - 2.0 * v * u_mat))


def wishart_psi0(t, u):
    lam = np.linalg.eigvals(wishart_unvech(np.asarray(u, dtype=complex)))
    return -1.5 * complex(np.sum(np.log(1.0 - 2.0 * -np.expm1(-t) * lam)))


def wishart_explosion_time(u):
    """T* for a real u whose largest eigenvalue exceeds 1/2."""
    lam_max = np.linalg.eigvalsh(wishart_unvech(np.asarray(u, dtype=float)))[-1]
    return -np.log1p(-0.5 / lam_max)


def ou_exact_exp_moment(a, x0, t, kappa=1.0, sigma_sq=1.0):
    """E exp(a X_t) for the OU process: X_t is Gaussian with mean
    x0 e^(-kappa t) and variance sigma_sq (1 - e^(-2 kappa t)) / (2 kappa)."""
    mean = x0 * np.exp(-kappa * t)
    var = sigma_sq * (1.0 - np.exp(-2.0 * kappa * t)) / (2.0 * kappa)
    return np.exp(a * mean + 0.5 * a * a * var)


def lorentz_projection_decimal(x, digits=60):
    """Euclidean projection onto the Lorentz cone {y : y_1 >= |y_bar|} in
    decimal arithmetic, whose exponent range no float square leaves: x
    itself inside, 0 in the polar cone x_1 <= -|x_bar|, and otherwise the
    point (a, a x_bar / |x_bar|) of the boundary ray with a = (x_1 + |x_bar|) / 2,
    the foot of the perpendicular from x onto that ray."""
    with localcontext() as ctx:
        ctx.prec = digits
        head, tail = Decimal(float(x[0])), [Decimal(float(v)) for v in x[1:]]
        norm = sum(v * v for v in tail).sqrt()
        if head >= norm:
            return np.array(x, dtype=float)
        if head <= -norm:
            return np.zeros(len(x))
        a = (head + norm) / 2
        return np.array([float(a)] + [float(a * v / norm) for v in tail])


def _psd2_spectrum_decimal(x):
    """The entries of X = [[a, b], [b, c]] for a row x = (a, s, c) =
    (X_11, sqrt(2) X_12, X_22), and its eigenvalues l1 <= l2, in decimal at
    the caller's precision: l1, l2 = m -+ h with m = (a + c) / 2 and
    h = sqrt(((a - c) / 2)^2 + b^2), the roots of the characteristic
    polynomial l^2 - (a + c) l + ac - b^2."""
    a, s, c = (Decimal(float(v)) for v in x)
    b = s / Decimal(2).sqrt()
    m, h = (a + c) / 2, (((a - c) / 2) ** 2 + b * b).sqrt()
    return a, b, c, m - h, m + h


def psd2_min_eigenvalue_decimal(x, digits=60):
    """The smallest eigenvalue of the 2x2 symmetric matrix whose scaled
    half-vectorization is x, in decimal arithmetic, rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = digits
        return float(_psd2_spectrum_decimal(x)[3])


def psd2_projection_decimal(x, digits=60):
    """Euclidean projection of x = (X_11, sqrt(2) X_12, X_22) onto the
    positive semidefinite 2x2 matrices in decimal arithmetic, whose exponent
    range no float square leaves: the spectrum of X clipped at 0. That is x
    itself if l1 >= 0, 0 if l2 <= 0, and otherwise l2 P, where
    P = (X - l1 I) / (l2 - l1) projects onto the eigenvector of l2, since
    (X - l1 I)(X - l2 I) = 0 by Cayley-Hamilton."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, c, l1, l2 = _psd2_spectrum_decimal(x)
        if l1 >= 0:
            return np.array(x, dtype=float)
        if l2 <= 0:
            return np.zeros(3)
        r = l2 / (l2 - l1)
        return np.array([float(r * (a - l1)), float(r * b * Decimal(2).sqrt()), float(r * (c - l1))])


def parabolic_projection_decimal(x, digits=60):
    """Euclidean projection onto {y : y_1 >= |y_bar|^2} in decimal
    arithmetic. For x outside, the KKT conditions of min |y - x|^2 with the
    constraint active give y_bar = x_bar / (1 + 2 mu) and
    y_1 = |y_bar|^2 = x_1 + mu for a multiplier mu >= max(0, -x_1); mu is
    the root of x_1 + mu - |x_bar|^2 / (1 + 2 mu)^2, which increases in mu,
    found by bisection. y_1 is formed from y_bar, so no cancellation in
    x_1 + mu reaches it."""
    with localcontext() as ctx:
        ctx.prec = digits
        x1, x_bar = Decimal(float(x[0])), [Decimal(float(v)) for v in x[1:]]
        t = sum(v * v for v in x_bar)
        if x1 >= t:
            return np.array(x, dtype=float)

        def gap(mu):
            return x1 + mu - t / (1 + 2 * mu) ** 2

        lo = max(Decimal(0), -x1)
        width = Decimal(1)
        while gap(lo + width) < 0:
            width *= 2
        hi = lo + width
        for _ in range(600):
            mid = (lo + hi) / 2
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        y_bar = [v / (1 + 2 * hi) for v in x_bar]
        return np.array([float(sum(v * v for v in y_bar))] + [float(v) for v in y_bar])


def polyhedron_projection_exact(normals, offsets, x):
    """Euclidean projection of x onto {y : normals @ y <= offsets} by
    enumerating active sets of faces in exact rational arithmetic. For a set
    S of faces, y = x - N_S^T lam with (N_S N_S^T) lam = N_S x - c_S lies on
    those faces; the KKT conditions lam >= 0 and normals @ y <= offsets make
    it the projection, which is unique. Sets of up to dim faces with an
    invertible Gram matrix suffice; the cost is exponential in the number of
    faces, so this is for the few faces of the tests."""
    rows = [[Fraction(float(v)) for v in row] for row in normals]
    c = [Fraction(float(v)) for v in offsets]
    point = [Fraction(float(v)) for v in x]

    def dot(a, b):
        return sum(s * t for s, t in zip(a, b))

    def feasible(y):
        return all(dot(n, y) <= cj for n, cj in zip(rows, c))

    if feasible(point):
        return np.array(x, dtype=float)
    for k in range(1, min(len(rows), len(point)) + 1):
        for face_set in combinations(range(len(rows)), k):
            # Gauss-Jordan elimination on the augmented Gram system.
            aug = [[dot(rows[i], rows[j]) for j in face_set] + [dot(rows[i], point) - c[i]] for i in face_set]
            for col in range(k):
                pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
                if pivot is None:
                    break
                aug[col], aug[pivot] = aug[pivot], aug[col]
                for r in range(k):
                    if r != col and aug[r][col] != 0:
                        f = aug[r][col] / aug[col][col]
                        aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
            else:
                lam = [aug[i][k] / aug[i][i] for i in range(k)]
                y = [v - sum(l * rows[j][d] for l, j in zip(lam, face_set)) for d, v in enumerate(point)]
                if min(lam) >= 0 and feasible(y):
                    return np.array([float(v) for v in y])
    raise ValueError("no active set satisfies the KKT conditions")
