"""The solver's mean and covariance of every model against the exact moments
of the polynomial property (oracles.affine_moments), which read only the
model's JSON record."""

import numpy as np
import pytest

import oracles
from affinejd import golden
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel
from affinejd.modelio import model_to_dict
from affinejd.riccati import solve_riccati
from affinejd.statespace import Canonical
from test_simulate import noisy_lorentz_model, parabolic_model

H = 1e-2  # the smallest step in u = i h w


def three_families_model():
    """A drift, a diffusion and one jump family in each of K^0 (atoms), K^1
    (an exponential ray) and K^2 (a tabulated density) on R_+^2."""
    return AffineModel(a0=[0.5, 0.3], a=[[-1.0, 0.2], [0.1, -0.8]],
                       A=[np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]],
                       K=[FiniteAtomic([0.4, 0.2], [[0.3, 0.1], [0.0, 0.6]]),
                          ExponentialRay(0.5, 3.0, [0.6, 0.8]),
                          TabulatedDensity([0.2, 0.3, 1e-10], [[0.1, 0.2], [0.4, 0.0], [0.8, 0.8]])],
                       state_space=Canonical(2, 2))


def solver_moments(model, x, t, w):
    """The mean and variance of w.X_t from log E exp(u.X_t) = psi_0 + psi.x
    at u = i h w: Im / h and -2 Re / h^2 are the mean and the variance up to
    a series in h^2, whose h^2 and h^4 terms Richardson extrapolation from
    h = H, 2H and 4H removes. A smaller H trades that truncation for noise:
    Re psi_0 ~ h^2 var / 2 carries the solver's error on psi_0 ~ i h mean,
    and at H = 1e-3 with the h^2 term alone removed, the noisy Lorentz
    variance read 1.4e-8 off."""
    hs = H * 2.0 ** np.arange(3)
    logs = np.empty(hs.size, dtype=complex)
    for k, h in enumerate(hs):
        psi0, psi = solve_riccati(model, 1j * h * w, t).terminal()
        logs[k] = psi0 + psi @ x
    return tuple(richardson(f) for f in (logs.imag / hs, -2.0 * logs.real / hs**2))


def richardson(f):
    """The limit at h = 0 of values f at h, 2h, 4h of an even series in h,
    to O(h^6)."""
    near, far = (4.0 * f[:-1] - f[1:]) / 3.0
    return (16.0 * near - far) / 15.0


@pytest.mark.parametrize("build, x, t", [
    (golden.cir, [1.0], 1.0),
    (golden.ou, [0.5], 1.0),
    (golden.compound_poisson, [1.0], 1.0),
    (golden.wishart_2d, [1.0, 0.2, 1.5], 0.7),
    (noisy_lorentz_model, [1.0, 0.3, -0.2], 1.0),
    (parabolic_model, [1.0, 0.3, -0.2], 1.0),
    (three_families_model, [0.5, 1.0], 1.0),
])
def test_mean_and_covariance_are_exact(build, x, t):
    # Along each basis vector and each sum of two, which together give the
    # whole mean vector and covariance matrix.
    model = build()
    mean, cov = oracles.affine_moments(model_to_dict(model), x, t)
    x = np.asarray(x)
    eye = np.eye(model.dim)
    ws = [eye[j] for j in range(model.dim)]
    ws += [eye[j] + eye[k] for j in range(model.dim) for k in range(j + 1, model.dim)]
    for w in ws:
        got_mean, got_var = solver_moments(model, x, t, w)
        want_mean, want_var = w @ mean, w @ cov @ w
        assert abs(got_mean - want_mean) <= 1e-8 * np.linalg.norm(mean), (w, got_mean, want_mean)
        assert abs(got_var - want_var) <= 1e-8 * want_var, (w, got_var, want_var)
