"""Reference models with hand-derived closed forms, used by the test suite
and the demo scripts. The closed forms are coded independently in
tests/oracles.py.

Every model but squared_scalar is defined once, by its bundled file in
models/ (shipped with the package); the functions below load it.

Closed forms (psi(0) = u, psi0(0) = 0 throughout):

* squared_scalar / cir: R_1(y) = y^2, so psi(t) = u / (1 - u t) with blow-up
  at t = 1/u for u > 0; cir adds a^0 = 1, giving psi0(t) = -log(1 - u t).
* ou: psi(t) = u exp(-kappa t), psi0(t) = sigma^2 u^2 (1 - exp(-2 kappa t))
  / (4 kappa).
* compound_poisson: state-independent jumps make psi constant equal to u and
  psi0(t) = t (u a0 + sum_j w_j (exp(u z_j) - 1 - u z_j)).
* lorentz_drift: pure drift b(x) = e_1 - x, so psi(t) = exp(-t) u and
  psi0(t) = u_1 (1 - exp(-t)).
"""

from __future__ import annotations

from pathlib import Path

from .model import AffineModel
from .modelio import load_model
from .statespace import Canonical

MODELS_DIR = Path(__file__).with_name("models")


def squared_scalar():
    """Scalar model whose vector Riccati equation is psi' = psi^2."""
    return AffineModel(
        a0=[0.0], a=[[0.0]], A=[[[0.0]], [[2.0]]], K=None, state_space=Canonical(1, 1)
    )


def cir():
    """Square-root diffusion on the half line."""
    return load_model(MODELS_DIR / "cir.json")


def ou():
    """Mean-reverting Gaussian model on the line."""
    return load_model(MODELS_DIR / "ou.json")


def compound_poisson():
    """Drift plus state-independent positive jumps on the half line."""
    return load_model(MODELS_DIR / "compound_poisson.json")


def wishart_2d():
    """Wishart diffusion on 2x2 PSD matrices in scaled half-vectorized
    coordinates x = (X_11, sqrt(2) X_12, X_22)."""
    return load_model(MODELS_DIR / "wishart_2d.json")


def lorentz_drift():
    """Pure drift on the Lorentz cone in R^3."""
    return load_model(MODELS_DIR / "lorentz.json")


def nonadmissible_2d():
    """A valid parameter set on R^2 whose c(x) is indefinite at every
    x != 0, so it fails the admissibility check."""
    return load_model(MODELS_DIR / "nonadmissible_2d.json")
