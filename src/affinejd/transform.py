"""Exponential-moment transform E_x exp(u.X_t) with domain semantics,
effective-domain probing along rays, jump damping, and the parameter-scaling
identity behind infinite divisibility.

The paper gets the formula for complex u by analytic extension from the
real exponential moment at Re u, and on an admissible model the complex
solution lives at least as long as the real one, T*(u) >= T*(Re u)
(Keller-Ressel & Mayerhofer, AAP 2015). So the transform value is tagged:

* ``finite``      -- the Riccati solution reached t, and so did the real
                     one at Re u; value exp(psi0 + psi.x), with the exponent
                     in log_value. The value is None when the exponential
                     overflows. When psi_0 alone left float range (psi0 is
                     a quadrature along psi and never feeds back, so the
                     moment exists wherever psi does), value, log_value and
                     psi0 are None and the diagnostic names the time.
* ``not_integrable`` -- non-real u with Re u != 0 where the real solution at
                     Re u blew up by t: then
                     E|exp(u.X_t)| = E exp(Re u.X_t) = inf, and the
                     expectation does not exist. No value is asserted, and
                     the complex solution is not computed.
* ``explosive``   -- real u whose solution blew up by t: the moment is +inf.

A non-real u whose solution blew up by t while the real one at Re u reached
t breaks T*(u) >= T*(Re u), which no admissible model does: transform raises
ExplosionBeforeHorizon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DivergentIntegral, ExplosionBeforeHorizon, NonFiniteRHS, StepLimitExceeded,
                     _check_positive, _check_vector)
from .model import AffineModel, in_U, require_in_space
from .riccati import _solve_reaching, solve_riccati

# Relative width of the bracket effective_domain_ray closes around lambda_star.
RAY_REL_TOL = 1e-6


@dataclass
class TransformValue:
    kind: str  # "finite" | "not_integrable" | "explosive"
    value: Optional[complex] = None
    psi0: Optional[complex] = None
    psi: Optional[np.ndarray] = None
    diagnostic: Optional[str] = None
    log_value: Optional[complex] = None  # psi0 + psi.x on the finite verdict

    @property
    def finite(self):
        return self.kind == "finite"


def transform(model, u, x, t):
    """Evaluate E_x exp(u.X_t) through the Riccati solution, with the
    explosion semantics described in the module docstring. A non-real u
    with Re u != 0 is solved at Re u first, and at u only if that solve
    reaches t."""
    x = require_in_space(model, x)
    u = _check_vector(model, u, "u", real=False)
    t = _check_positive(t, "t", zero_ok=True)
    if t == 0.0:
        return _finite(0.0 + 0.0j, u.copy(), x)
    real = np.all(u.imag == 0.0)
    if not real and np.any(u.real != 0.0):
        re_sol = solve_riccati(model, u.real, t)
        if re_sol.exploded:
            return TransformValue("not_integrable", diagnostic=(
                f"Re u blows up in bracket {re_sol.bracket}: E exp(Re u.X_t) is "
                "infinite, so E exp(u.X_t) does not exist"
            ))
    sol = solve_riccati(model, u, t)
    if sol.exploded:
        if real:
            return TransformValue(
                "explosive",
                diagnostic=f"real argument, blow-up bracket {sol.bracket}: the moment is infinite",
            )
        raise ExplosionBeforeHorizon(
            f"the solution at u blows up in bracket {sol.bracket}, but the real "
            f"solution at Re u reaches t={t!r}: T*(u) >= T*(Re u) fails, which no "
            "admissible model allows; check the model with `affinejd validate`"
        )
    psi0, psi = sol.eval(t)
    if sol.stats.psi0_overflow is not None:
        return TransformValue("finite", psi=psi, diagnostic=(
            f"psi_0 is out of float range after t={sol.stats.psi0_overflow!r}: "
            "the moment is finite, but psi_0 and the value are not representable"
        ))
    return _finite(psi0, psi, x)


def _finite(psi0, psi, x):
    log_value = psi0 + complex(psi @ x)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(log_value)
    if np.isfinite(value):
        return TransformValue("finite", value=value, psi0=psi0, psi=psi, log_value=log_value)
    return TransformValue(
        "finite", psi0=psi0, psi=psi, log_value=log_value,
        diagnostic=f"exp(log_value) overflows at log_value {log_value}",
    )


@dataclass
class RayProbe:
    """Location of the effective-domain boundary along a ray of initial
    conditions: lambda_star = inf{lambda >= 0 : blow-up by the horizon}.
    ``probes`` holds (lambda, blow-up time estimate or None, verdict) in the
    order probed; the verdict is "finite" (blow-up by the horizon),
    "exceeds_horizon", or "DivergentIntegral" (psi reached a ray's rate).
    The probe at lambda_max made right after the first probe inside the
    domain (the certificate) is listed in that order; a certificate whose
    solve failed is no verdict and is not listed."""

    direction: np.ndarray
    horizon: float
    lambda_star: float  # math.inf when no blow-up up to lambda_max
    bracket: Optional[tuple]
    probes: list = field(default_factory=list)

    @property
    def bracket_width(self):
        return None if self.bracket is None else self.bracket[1] - self.bracket[0]

    @property
    def bounded(self):
        return math.isfinite(self.lambda_star)


def effective_domain_ray(model, direction, horizon, lambda_max=1e6):
    """Locate lambda_star along u = lambda * direction.

    Monotonicity of blow-up in lambda is assumed from convexity of the
    effective domain (which contains 0). A probe leaves the domain where it
    blows up by the horizon or psi reaches a ray's rate (DivergentIntegral);
    a solver failure (NonFiniteRHS, StepLimitExceeded) is raised.

    Doubling from lambda = 1 brackets lambda_star. After the first doubling
    probe inside the domain, lambda_max itself is probed at the horizon
    (unless the next doubling probe is lambda_max anyway): by the
    monotonicity, a certificate that stays inside decides an unbounded ray
    in two probes, which the doubling would also reach. A certificate that
    leaves is recorded, but its 1/T* feeds the secant only once the doubling
    reaches lambda_max, which then reads its verdict instead of solving
    again; a certificate whose solve fails is not recorded, and its error is
    raised only if the doubling reaches lambda_max. Inside the bracket each
    probe integrates to twice the horizon, so probes on both sides of
    lambda_star return their blow-up time T*. A secant on the monotone map
    lambda -> 1/T*(lambda) (Keller-Ressel & Mayerhofer, "Exponential moments
    of affine processes", AAP 2015), through the two probes whose 1/T* is
    nearest 1/horizon, guesses lambda_star. A guess farther than 1e-3
    (relative) from every probe is probed itself; a nearer one is confirmed
    by probes at guess * (1 -+ RAY_REL_TOL/4), which close a bracket of
    relative width below RAY_REL_TOL. A guess outside the bracket falls back
    to bisection. A probe that fails past the horizon is decided on the
    horizon itself.
    """
    direction = _check_vector(model, direction, "direction")
    if not np.any(direction != 0.0):
        raise ValueError("direction must be nonzero")
    horizon = _check_positive(horizon, "horizon")
    lambda_max = _check_positive(lambda_max, "lambda_max")
    probes = []
    rates = {0.0: 0.0}  # lambda -> 1/T*(lambda) where known; T* = inf at 0
    t_probe = horizon  # how far each probe integrates; twice the horizon in the bracket
    certificate = None  # the outcome at lambda_max, or the error its solve raised

    def outcome(lam):
        """The probe at lam, (lam, blow-up time estimate or None, verdict),
        and 1/T*(lam) where the probe found T* (else None)."""
        nonlocal t_probe
        try:
            sol = solve_riccati(model, lam * direction, t_probe)
        except (DivergentIntegral, NonFiniteRHS, StepLimitExceeded) as exc:
            if t_probe > horizon:
                # The failure may lie past the horizon: decide on the horizon,
                # here and for the probes that follow.
                t_probe = horizon
                return outcome(lam)
            if not isinstance(exc, DivergentIntegral):
                raise
            return (lam, None, type(exc).__name__), None
        # The blow-up time estimate is the midpoint of the crossing bracket.
        estimate = 0.5 * (sol.bracket[0] + sol.bracket[1]) if sol.exploded else None
        leaves = sol.exploded and estimate <= horizon
        rate = 1.0 / estimate if sol.exploded and estimate > 0.0 else None
        return (lam, estimate, "finite" if leaves else "exceeds_horizon"), rate

    def leaves_domain(lam):
        if lam == lambda_max and certificate is not None:
            # The doubling reached the certificate, solved to the same horizon:
            # its verdict or error stands, and its 1/T* now feeds the secant.
            if isinstance(certificate, Exception):
                raise certificate
            probe, rate = certificate
        else:
            probe, rate = outcome(lam)
            probes.append(probe)
        if rate is not None:
            rates[lam] = rate
        return probe[2] != "exceeds_horizon"

    def secant_guess():
        """Where the line through the two probes with 1/T* nearest 1/horizon
        meets it; nan when there is no such line."""
        target = 1.0 / horizon
        nearest = sorted(rates.items(), key=lambda kv: abs(kv[1] - target))[:2]
        if len(nearest) < 2 or nearest[0][1] == nearest[1][1]:
            return math.nan
        (lam_1, r_1), (lam_2, r_2) = nearest
        return lam_1 + (target - r_1) * (lam_2 - lam_1) / (r_2 - r_1)

    lam_lo = 0.0
    lam_hi = min(1.0, lambda_max)
    while not leaves_domain(lam_hi):
        lam_lo = lam_hi
        if lam_hi >= lambda_max:
            return RayProbe(direction, horizon, math.inf, None, probes)
        if certificate is None and 2.0 * lam_hi < lambda_max:
            # Blow-up is monotone in lambda: lambda_max inside decides the ray.
            try:
                certificate = outcome(lambda_max)
            except (NonFiniteRHS, StepLimitExceeded) as exc:
                certificate = exc
            else:
                probes.append(certificate[0])
                if certificate[0][2] == "exceeds_horizon":
                    return RayProbe(direction, horizon, math.inf, None, probes)
        lam_hi = min(2.0 * lam_hi, lambda_max)
    # Twice a horizon above ~9e307 is inf; the largest float stands for it.
    t_probe = min(2.0 * horizon, sys.float_info.max)
    while lam_hi - lam_lo > RAY_REL_TOL * lam_hi:
        guess = secant_guess()
        # Past 40 probes, twice what bisection alone needs, only bisect:
        # the search then ends whatever the secant does.
        if len(probes) > 40 or not lam_lo < guess < lam_hi:
            candidates = [0.5 * (lam_lo + lam_hi)]
        elif min(abs(guess - lam) for lam in rates) > 1e-3 * guess:
            candidates = [guess]
        else:
            candidates = [guess * (1.0 - 0.25 * RAY_REL_TOL), guess * (1.0 + 0.25 * RAY_REL_TOL)]
        for lam in candidates:
            if not lam_lo < lam < lam_hi:
                continue
            if leaves_domain(lam):
                lam_hi = lam
                break
            lam_lo = lam
    return RayProbe(direction, horizon, 0.5 * (lam_lo + lam_hi), (lam_lo, lam_hi), probes)


def damped_model(model, n):
    """Damp every jump measure by exp(-|z|^2/n) and shift the drift vectors
    by integral of z (exp(-|z|^2/n) - 1) K^i(dz) accordingly. Exact for atom
    and tabulated families; exponential rays must be tabulated first."""
    n = _check_positive(n, "n")
    if not model.has_jumps:
        return model
    a0 = model.a0.copy()
    a = model.a.copy()
    new_k = []
    for i, meas in enumerate(model.K):
        if meas is None:
            new_k.append(None)
            continue
        damped, shift = meas.damped(n)
        new_k.append(damped)
        if i == 0:
            a0 += shift
        else:
            a[:, i - 1] += shift
    return AffineModel(a0=a0, a=a, A=model.A, K=new_k, state_space=model.state_space)


@dataclass
class DampingDiagnostic:
    n_list: list
    values: list
    cauchy_diffs: list  # |v_{k+1} - v_k|


def damped_transform_sequence(model, u, x, t, n_list):
    """Transform values under damped_model(model, n) for each n, with the
    Cauchy differences of consecutive values as a convergence diagnostic."""
    if not in_U(model.state_space, u):
        raise ValueError("u must satisfy sup Re(u.x) < inf over the state space")
    x, t = require_in_space(model, x), _check_positive(t, "t", zero_ok=True)
    values = []
    for n in n_list:
        tv = transform(damped_model(model, n), u, x, t)
        if tv.value is None:
            raise ExplosionBeforeHorizon(f"damped transform at n={n} returned '{tv.kind}': {tv.diagnostic}")
        values.append(complex(tv.value))
    diffs = [abs(values[k + 1] - values[k]) for k in range(len(values) - 1)]
    return DampingDiagnostic(list(n_list), values, diffs)


def scaled_model(model, n):
    """The parameter set (a^i, n A^i, (1/n) K^i(dz/n)): diffusion matrices
    scaled by n and each atom (w, z) replaced by (w/n, n z)."""
    n = _check_positive(n, "n")
    new_k = []
    for meas in model.K:
        if meas is None:
            new_k.append(None)
        else:
            new_k.append(meas.scaled(n))  # UnsupportedFamily for non-atomic
    return AffineModel(
        a0=model.a0, a=model.a, A=model.A * n, K=new_k, state_space=model.state_space
    )


def infinite_divisibility_check(model, u, t, n):
    """Residual of the scaling identity: the solution of the scaled system
    started at u must equal 1/n times the solution of the base system
    started at n u, componentwise including the zeroth component."""
    u = _check_vector(model, u, "u", real=False)
    t = _check_positive(t, "t")
    psi0_s, psi_s = _solve_reaching(scaled_model(model, n), u, t).eval(t)
    psi0_b, psi_b = _solve_reaching(model, n * u, t).eval(t)
    return max(abs(psi0_s - psi0_b / n), float(np.max(np.abs(psi_s - psi_b / n))))
