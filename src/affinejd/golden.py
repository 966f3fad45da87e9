"""Reference models with hand-derived closed forms, used by the test suite,
the bundled model files, and the demo scripts. The closed forms are coded
independently in tests/oracles.py.

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

import numpy as np

from .jumps import FiniteAtomic
from .model import AffineModel
from .statespace import Canonical, Lorentz, PSDCone


def squared_scalar():
    """Scalar model whose vector Riccati equation is psi' = psi^2."""
    return AffineModel(
        a0=[0.0], a=[[0.0]], A=[[[0.0]], [[2.0]]], K=None, state_space=Canonical(1, 1)
    )


def cir():
    """Square-root diffusion: a^0 = 1, c(x) = 2x on the half line."""
    return AffineModel(
        a0=[1.0], a=[[0.0]], A=[[[0.0]], [[2.0]]], K=None, state_space=Canonical(1, 1)
    )


OU_KAPPA = 1.0
OU_SIGMA_SQ = 1.0


def ou():
    """Mean-reverting Gaussian model: state-independent diffusion A^0."""
    return AffineModel(
        a0=[0.0],
        a=[[-OU_KAPPA]],
        A=[[[OU_SIGMA_SQ]], [[0.0]]],
        K=None,
        state_space=Canonical(0, 1),
    )


CP_DRIFT = 1.0
CP_WEIGHTS = (0.5, 0.25)
CP_ATOMS = (0.4, 0.8)


def compound_poisson():
    """Drift plus state-independent positive jumps on the half line."""
    return AffineModel(
        a0=[CP_DRIFT],
        a=[[0.0]],
        A=[[[0.0]], [[0.0]]],
        K=[FiniteAtomic(CP_WEIGHTS, [[z] for z in CP_ATOMS]), None],
        state_space=Canonical(1, 1),
    )


def wishart_2d():
    """Matrix square-root diffusion on 2x2 PSD matrices in scaled
    half-vectorized coordinates x = (X_11, sqrt(2) X_12, X_22):
    b(X) = 3 I - X and the quadratic covariation of a Wishart flow."""
    A1 = [[4.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
    A2 = [[0.0, 2.0, 0.0], [2.0, 0.0, 2.0], [0.0, 2.0, 0.0]]
    A3 = [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]]
    zero = np.zeros((3, 3))
    return AffineModel(
        a0=[3.0, 0.0, 3.0],
        a=-np.eye(3),
        A=[zero, A1, A2, A3],
        K=None,
        state_space=PSDCone(2),
    )


def lorentz_drift():
    """Pure drift toward the axis point e_1 on the Lorentz cone."""
    return AffineModel(
        a0=[1.0, 0.0, 0.0],
        a=-np.eye(3),
        A=np.zeros((4, 3, 3)),
        K=None,
        state_space=Lorentz(3),
    )


def nonadmissible_2d():
    """c(x) = [[x1, x2], [x2, -x1]] is indefinite at every x != 0: a valid
    parameter set fails the admissibility check on all of R^2."""
    A1 = [[1.0, 0.0], [0.0, -1.0]]
    A2 = [[0.0, 1.0], [1.0, 0.0]]
    zero = np.zeros((2, 2))
    return AffineModel(
        a0=[0.0, 0.0],
        a=np.zeros((2, 2)),
        A=[zero, A1, A2],
        K=None,
        state_space=Canonical(0, 2),
    )


GOLDEN_BUILDERS = {
    "cir": cir,
    "ou": ou,
    "compound_poisson": compound_poisson,
    "wishart_2d": wishart_2d,
    "lorentz": lorentz_drift,
    "nonadmissible_2d": nonadmissible_2d,
}
