"""Independent oracles, derived and committed before the solver is trusted.

Every function here is computed by a route that does not share code with the
library: direct quadrature, a separately configured Runge-Kutta run, or a
hand-derived closed form whose derivation is recorded in the docstring.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp


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


def cir_psi(t, u, mu=1.0):
    return u / (1.0 - u * t)


def cir_psi0(t, u, mu=1.0):
    return -mu * np.log(1.0 - u * t)


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


def ou_exact_exp_moment(a, x0, t, kappa=1.0, sigma_sq=1.0):
    """E exp(a X_t) for the OU process: X_t is Gaussian with mean
    x0 e^(-kappa t) and variance sigma_sq (1 - e^(-2 kappa t)) / (2 kappa)."""
    mean = x0 * np.exp(-kappa * t)
    var = sigma_sq * (1.0 - np.exp(-2.0 * kappa * t)) / (2.0 * kappa)
    return np.exp(a * mean + 0.5 * a * a * var)
