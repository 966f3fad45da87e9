"""Exponential-moment transform E_x exp(u.X_t) with domain semantics,
effective-domain probing along rays, jump damping, and the parameter-scaling
identity behind infinite divisibility.

The transform value is tagged:

* ``finite``      -- the Riccati solution reached t, and so did the real
                     one at Re u; value exp(psi0 + psi.x), with the exponent
                     in log_value. The value is None when the exponential
                     overflows.
* ``not_integrable`` -- non-real u with Re u != 0, whose solution reached
                     t or blew up outside U, where the real solution at
                     Re u blew up by t: then
                     E|exp(u.X_t)| = E exp(Re u.X_t) = inf, the expectation
                     does not exist, and the complex solution is only an
                     analytic continuation. No value is asserted.
* ``explosive``   -- real u whose solution blew up by t: the moment is +inf.
* ``zero_region`` -- non-real u with bounded Re(u.x) on the state space whose
                     solution blew up by t: the transform is identically 0.
* ``unknown``     -- blow-up for a non-real u with unbounded Re(u.x) on the
                     state space, where the real solution at Re u reached t;
                     no value is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergentIntegral, ExplosionBeforeHorizon, NonFiniteRHS, StepLimitExceeded
from .model import AffineModel, _check_vector, in_U, require_in_space
from .riccati import explosion_time, solve_riccati

# Relative width of the bracket effective_domain_ray closes around lambda_star.
RAY_REL_TOL = 1e-6


@dataclass
class TransformValue:
    kind: str  # "finite" | "not_integrable" | "explosive" | "zero_region" | "unknown"
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
    explosion semantics described in the module docstring."""
    x = require_in_space(model, x)
    u = _check_vector(model, u, "u", complex)
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return _finite(0.0 + 0.0j, u.copy(), x)
    sol = solve_riccati(model, u, t)
    # The formula holds for complex u by analytic extension from the real
    # exponential moment at Re u, which must itself be finite.
    if not sol.exploded:
        if np.any(u.imag != 0.0) and np.any(u.real != 0.0):
            not_integrable = _not_integrable(model, u, t)
            if not_integrable is not None:
                return not_integrable
        return _finite(*sol.eval(t), x)
    if np.all(u.imag == 0.0):
        return TransformValue(
            "explosive",
            diagnostic=f"real argument, blow-up bracket {sol.bracket}: the moment is infinite",
        )
    if in_U(model.state_space, u):
        return TransformValue(
            "zero_region",
            value=0.0 + 0.0j,
            diagnostic=f"u in U, blow-up bracket {sol.bracket}: the transform vanishes",
        )
    # Here Re u != 0, since a purely imaginary u lies in U.
    return _not_integrable(model, u, t) or TransformValue(
        "unknown",
        diagnostic=(
            f"blow-up bracket {sol.bracket} for complex u outside U: "
            "no value is asserted for this argument"
        ),
    )


def _not_integrable(model, u, t):
    """The not_integrable verdict when the real solution at Re u blows up by
    t, else None."""
    real = solve_riccati(model, u.real, t)
    if not real.exploded:
        return None
    return TransformValue(
        "not_integrable",
        diagnostic=(
            f"Re u blows up in bracket {real.bracket}: E exp(Re u.X_t) is "
            "infinite, so E exp(u.X_t) does not exist"
        ),
    )


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
    "exceeds_horizon", or the name of the error that ended the probe."""

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
    effective domain (which contains 0). A probe that ends in an error of
    the solve (DivergentIntegral, NonFiniteRHS, StepLimitExceeded) counts as
    leaving the domain: the transform is not finite there either.

    Doubling from lambda = 1 brackets lambda_star. Inside the bracket each
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
    if not np.isfinite(direction).all():
        raise ValueError("direction must be finite")
    if not np.any(direction != 0.0):
        raise ValueError("direction must be nonzero")
    if not (horizon > 0.0 and lambda_max > 0.0):
        raise ValueError("horizon and lambda_max must be positive")
    probes = []
    rates = {0.0: 0.0}  # lambda -> 1/T*(lambda) where known; T* = inf at 0
    t_probe = horizon  # how far each probe integrates; twice the horizon in the bracket

    def leaves_domain(lam):
        nonlocal t_probe
        try:
            res = explosion_time(model, lam * direction, t_probe)
        except (DivergentIntegral, NonFiniteRHS, StepLimitExceeded) as exc:
            if t_probe > horizon:
                # The failure may lie past the horizon: decide on the horizon,
                # here and for the probes that follow.
                t_probe = horizon
                return leaves_domain(lam)
            probes.append((lam, None, type(exc).__name__))
            return True
        if res.finite and res.estimate > 0.0:
            rates[lam] = 1.0 / res.estimate
        leaves = res.finite and res.estimate <= horizon
        probes.append((lam, res.estimate, "finite" if leaves else "exceeds_horizon"))
        return leaves

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
        lam_hi = min(2.0 * lam_hi, lambda_max)
    t_probe = 2.0 * horizon
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
    if n <= 0:
        raise ValueError("n must be positive")
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
    u = np.asarray(u, dtype=complex).ravel()
    if not in_U(model.state_space, u):
        raise ValueError("u must satisfy sup Re(u.x) < inf over the state space")
    values = []
    for n in n_list:
        tv = transform(damped_model(model, n), u, x, t)
        if tv.value is not None:
            values.append(complex(tv.value))
        else:
            raise ExplosionBeforeHorizon(
                f"damped transform at n={n} returned '{tv.kind}': {tv.diagnostic}"
            )
    diffs = [abs(values[k + 1] - values[k]) for k in range(len(values) - 1)]
    return DampingDiagnostic(list(n_list), values, diffs)


def scaled_model(model, n):
    """The parameter set (a^i, n A^i, (1/n) K^i(dz/n)): diffusion matrices
    scaled by n and each atom (w, z) replaced by (w/n, n z)."""
    if n <= 0:
        raise ValueError("n must be positive")
    new_k = []
    for meas in model.K:
        if meas is None:
            new_k.append(None)
        else:
            new_k.append(meas.scaled(n))  # UnsupportedFamily for non-atomic
    return AffineModel(
        a0=model.a0, a=model.a, A=model.A * float(n), K=new_k, state_space=model.state_space
    )


def infinite_divisibility_check(model, u, t, n):
    """Residual of the scaling identity: the solution of the scaled system
    started at u must equal 1/n times the solution of the base system
    started at n u, componentwise including the zeroth component."""
    u = np.asarray(u, dtype=complex).ravel()
    if not t > 0.0:
        raise ValueError("t must be positive")
    scaled = solve_riccati(scaled_model(model, n), u, t)
    base = solve_riccati(model, n * u, t)
    if scaled.exploded or base.exploded:
        raise ExplosionBeforeHorizon("solution explodes before t in the scaling check")
    psi0_s, psi_s = scaled.eval(t)
    psi0_b, psi_b = base.eval(t)
    return max(
        abs(psi0_s - psi0_b / n),
        float(np.max(np.abs(psi_s - psi_b / n))) if u.size else 0.0,
    )
