"""The four benchmark workloads: seeded inputs, the public calls they make,
and the correctness check of every call.

A workload is an endless sequence of rounds. Each round draws fresh inputs
from the workload's random generator and lists its operations in a fixed
order, so every seed gives the same mix of operation kinds and only the
values differ. An operation is one public call (or one `simulate_paths`
followed by `mc_transform`); its check compares the output with a closed
form from `tests/oracles.py`, a structural property, or the ODE transform.

The operations call the library through the module-level names imported
below, which the traced run replaces with timing wrappers.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracles
from affinejd import golden
from affinejd.cone import interior_preservation_check, monotonicity_check
from affinejd.modelio import load_model
from affinejd.riccati import explosion_time
from affinejd.simulate import SimConfig, mc_transform, simulate_paths
from affinejd.statespace import vech
from affinejd.transform import effective_domain_ray, transform

# Model files each workload loads; set-up time is measured on the same list.
MODEL_FILES = {
    "many_u": ("cir", "ou", "compound_poisson", "wishart_2d", "lorentz"),
    "blowup": ("cir", "compound_poisson", "wishart_2d"),
    "mc_orthant": ("cir", "compound_poisson"),
    "mc_cone": ("wishart_2d", "lorentz"),
}

# explosion_time(compound_poisson, [u], 1.0) for u above ~459 returns
# "finite" with bracket (0, 0): the first step underflows and the solver
# reads that as blow-up, although R_1 = 0 keeps psi constant. The ray along
# +1 then reports lambda_star ~ 458. These operations stay in the traffic
# and count as failed; this reason alone does not make a run incorrect.
# Above 459 the verdict is erratic in u: about 3% of values pass (506.9 fails,
# 506.905 passes). blowup therefore draws its failing probes from the integers
# in CP_DEFECT_U, every one of which fails at the commit the benchmark was
# defined on, so that each run fails the same number of times at every seed.
CP_CONSTANT_PSI = "compound_poisson: blow-up reported although R_1 = 0 keeps psi constant"
CP_DEFECT_U = (460, 560)
KNOWN_DEFECTS = frozenset({CP_CONSTANT_PSI})

# MC agreement: |mc - transform| <= MC_K * std_error + MC_C * dt * max(1, |transform|).
# The Euler bias of E exp(u.X_T) scales with the value; MC_C is about three
# times the largest bias per unit dt and unit value measured at 2e5 paths
# (CIR, compound Poisson), 2e4 paths (Wishart) and on the deterministic
# Lorentz drift.
MC_K = 5.0
MC_C = 2.0


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class MCResult:
    ensemble: object
    estimates: list
    simulate_s: float


def load_models(root, workload):
    models = {name: load_model(root / "models" / f"{name}.json") for name in MODEL_FILES[workload]}
    models["squared_scalar"] = golden.squared_scalar()
    return models


def rounds(workload, models, seed, stream=0):
    """Endless rounds of operations for the workload, reproducible from
    (seed, stream); the warm-up uses another stream than the measured run."""
    rng = np.random.default_rng([seed, stream])
    build = ROUND_BUILDERS[workload]
    for index in itertools.count():
        yield build(models, rng, index)


def operations(workload, models, seed, stream=0, n_rounds=None):
    gen = rounds(workload, models, seed, stream)
    if n_rounds is not None:
        gen = itertools.islice(gen, n_rounds)
    return itertools.chain.from_iterable(gen)


# --- checks -------------------------------------------------------------

def _close(got, want, tol=1e-8):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return bool(np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))))


def _closed_form(name, t, u):
    """(psi0, psi) at time t from tests/oracles.py, or None."""
    if name == "cir":
        return oracles.cir_psi0(t, u[0]), [oracles.cir_psi(t, u[0])]
    if name == "ou":
        return oracles.ou_psi0(t, u[0]), [oracles.ou_psi(t, u[0])]
    if name == "compound_poisson":
        return oracles.compound_poisson_psi0(t, u[0]), u
    if name == "lorentz":
        return oracles.lorentz_psi0(t, u), oracles.lorentz_psi(t, u)
    return None


def _check_transform(name, u, t, imaginary):
    def check(tv):
        if tv.kind != "finite":
            return f"transform: verdict '{tv.kind}' inside the moment domain"
        value = complex(tv.value)
        if not cmath.isfinite(value):
            return "transform: 'finite' verdict with a non-finite value"
        if imaginary and abs(value) > 1.0 + 1e-9:
            return "transform: |cf| > 1"
        if not imaginary and (value.real <= 0.0 or abs(value.imag) > 1e-12 * abs(value)):
            return "transform: real moment is not a positive real number"
        if name == "wishart_2d" and not imaginary and value.real > 1.0 + 1e-9:
            return "transform: moment of u in -E exceeds 1"
        ref = _closed_form(name, t, u)
        if ref is not None and not (_close(tv.psi0, ref[0]) and _close(tv.psi, ref[1])):
            return "transform: (psi0, psi) off the closed form"
        return None

    return check


def _check_cone(label):
    def check(res):
        return None if res.passed else f"cone: {label} check failed"

    return check


def _check_blowup(u):
    want = oracles.explosion_time_1d(lambda y: y * y, u)

    def check(res):
        if not res.finite:
            return f"explosion_time: verdict '{res.kind}' for a blow-up before t_max"
        if abs(res.estimate - want) > 1e-6:
            return "explosion_time: estimate off the 1/u blow-up time by more than 1e-6"
        return None

    return check


def _check_no_blowup(t_max, reason="explosion_time: blow-up reported where psi stays finite"):
    def check(res):
        if res.kind != "exceeds_horizon" or res.t_max != t_max:
            return reason
        return None

    return check


def _check_explosive(tv):
    return None if tv.kind == "explosive" else f"transform: verdict '{tv.kind}' past the moment domain"


def _probes_monotone(probes):
    leaves = [kind != "exceeds_horizon" for _, _, kind in sorted(probes, key=lambda p: p[0])]
    return all(not a or b for a, b in zip(leaves, leaves[1:]))


def _check_ray(expect_star, unbounded_reason="ray: finite lambda_star along a direction without blow-up"):
    """expect_star: the exact lambda_star, math.inf, or None when only the
    bracket is checked."""

    def check(ray):
        if not _probes_monotone(ray.probes):
            return "ray: probe verdicts are not monotone in lambda"
        if expect_star == math.inf:
            return unbounded_reason if ray.bounded else None
        if not ray.bounded:
            return "ray: no blow-up found along a direction that blows up"
        lo, hi = ray.bracket
        if not lo <= ray.lambda_star <= hi or hi - lo > 1e-6 * hi:
            return "ray: bracket wider than rel_tol or not around lambda_star"
        if expect_star is not None and abs(ray.lambda_star - expect_star) > 1e-5 * expect_star:
            return "ray: lambda_star off 1/T"
        return None

    return check


def _check_mc(refs, dt):
    def check(res):
        for ref, est in zip(refs, res.estimates):
            if not (ref.finite and cmath.isfinite(complex(ref.value))):
                return "mc: reference transform is not finite"
            if abs(est.value - ref.value) > MC_K * est.std_error + MC_C * dt * max(1.0, abs(ref.value)):
                return "mc: estimate off the transform by more than 5 SE + 2 dt max(1, |transform|)"
        return None

    return check


# --- input draws --------------------------------------------------------

def _random_state(model, rng):
    return model.state_space.project(rng.normal(size=model.dim) * 1.5)


def _real_u(name, model, rng, t):
    """Real arguments inside the moment domain at time t."""
    if name == "cir":
        return np.array([rng.uniform(-1.5, 0.6 / t)])
    if name == "ou":
        return np.array([rng.uniform(-2.0, 2.0)])
    if name == "compound_poisson":
        return np.array([rng.uniform(-2.0, 1.2)])
    if name == "wishart_2d":
        b = rng.normal(size=(2, 2)) * 0.6
        return -vech(b @ b.T)
    return rng.normal(size=model.dim)


def _psd(rng, scale, ridge=0.0):
    b = rng.normal(size=(2, 2)) * scale
    return vech(b @ b.T + ridge * np.eye(2))


# --- rounds -------------------------------------------------------------

GOLDEN_FIVE = ("cir", "ou", "compound_poisson", "wishart_2d", "lorentz")
CF_POINTS = 8
REAL_POINTS = 4


def _many_u_round(models, rng, index):
    """Characteristic-function grids and real moments on the five golden
    models, then criterion-9 cone checks on CIR and Wishart."""
    ops = []
    for name in GOLDEN_FIVE:
        model = models[name]
        t = rng.uniform(0.2, 1.2)
        x = _random_state(model, rng)
        direction = rng.normal(size=model.dim)
        direction *= rng.uniform(1.0, 6.0) / np.linalg.norm(direction)
        for k in range(1, CF_POINTS + 1):
            u = 1j * direction * (k / CF_POINTS)
            ops.append(Op(f"transform/cf/{name}", lambda m=model, u=u, x=x, t=t: transform(m, u, x, t),
                          _check_transform(name, u, t, imaginary=True)))
        for _ in range(REAL_POINTS):
            u = _real_u(name, model, rng, t).astype(complex)
            ops.append(Op(f"transform/real/{name}", lambda m=model, u=u, x=x, t=t: transform(m, u, x, t),
                          _check_transform(name, u, t, imaginary=False)))
    cir, wishart = models["cir"], models["wishart_2d"]
    for _ in range(2):
        lo = -abs(rng.normal()) - 0.05
        hi = min(lo + abs(rng.normal() * 0.8), 0.0)
        t = rng.uniform(0.3, 1.5)
        ops.append(Op("cone/monotonicity/cir",
                      lambda u=np.array([lo]), v=np.array([hi]), t=t: monotonicity_check(cir, u, v, t),
                      _check_cone("monotonicity")))
        v = -_psd(rng, 0.7)
        u = v - _psd(rng, 0.7)
        t = rng.uniform(0.3, 1.0)
        ops.append(Op("cone/monotonicity/wishart_2d",
                      lambda u=u, v=v, t=t: monotonicity_check(wishart, u, v, t),
                      _check_cone("monotonicity")))
        u = np.array([-abs(rng.normal()) - 0.02])
        t = rng.uniform(0.5, 3.0)
        ops.append(Op("cone/interior/cir", lambda u=u, t=t: interior_preservation_check(cir, u, t),
                      _check_cone("interior preservation")))
        u = -_psd(rng, 0.7, ridge=rng.uniform(0.02, 0.3))
        t = rng.uniform(0.3, 1.0)
        ops.append(Op("cone/interior/wishart_2d",
                      lambda u=u, t=t: interior_preservation_check(wishart, u, t),
                      _check_cone("interior preservation")))
    return ops


BLOWUP_T_MAX = 10.0
RAY_KINDS = ("cir+1", "cir-1", "wishart_2d", "compound_poisson+1")


def _blowup_round(models, rng, index):
    """Long exploding solves on the y' = y^2 family, explosive transforms,
    a compound-Poisson probe near the exp-overflow scale, and one ray; the
    ray direction cycles through RAY_KINDS from round to round. Exploding
    solves of nearly equal cost are 70% of the operations, and the ones
    slower than them (the ray, compound-Poisson probes with u below ~459)
    stay under 10%, so both percentiles fall inside that cluster. Four
    rounds fail three times on CP_CONSTANT_PSI: two probes and the ray."""
    ops = []
    for name in ("squared_scalar", "cir"):
        model = models[name]
        for _ in range(5):
            u = rng.uniform(0.5, 5.0)
            ops.append(Op(f"explosion/blowup/{name}",
                          lambda m=model, u=u: explosion_time(m, [u], BLOWUP_T_MAX),
                          _check_blowup(u)))
        for _ in range(3):
            u = rng.uniform(-4.0, 0.0)
            ops.append(Op(f"explosion/none/{name}",
                          lambda m=model, u=u: explosion_time(m, [u], BLOWUP_T_MAX),
                          _check_no_blowup(BLOWUP_T_MAX)))
    cir = models["cir"]
    for _ in range(8):
        t = rng.uniform(0.5, 2.0)
        u = rng.uniform(1.2, 4.0) / t
        x = np.array([rng.uniform(0.1, 2.0)])
        ops.append(Op("transform/explosive/cir", lambda u=u, x=x, t=t: transform(cir, [u], x, t),
                      _check_explosive))
    cp = models["compound_poisson"]
    # Even rounds probe below the defect's threshold (a solve of up to
    # ~0.4 s), odd rounds above it, so every pair of rounds fails once.
    if index % 2 == 0:
        u = rng.uniform(200.0, 420.0)
    else:
        u = float(rng.integers(CP_DEFECT_U[0], CP_DEFECT_U[1] + 1))
    ops.append(Op("explosion/none/compound_poisson", lambda u=u: explosion_time(cp, [u], 1.0),
                  _check_no_blowup(1.0, CP_CONSTANT_PSI)))
    kind = RAY_KINDS[index % len(RAY_KINDS)]
    if kind == "cir+1":
        horizon = rng.uniform(0.5, 2.0)
        ops.append(Op("ray/cir+1", lambda T=horizon: effective_domain_ray(cir, [1.0], T),
                      _check_ray(1.0 / horizon)))
    elif kind == "cir-1":
        horizon = rng.uniform(0.5, 2.0)
        ops.append(Op("ray/cir-1", lambda T=horizon: effective_domain_ray(cir, [-1.0], T),
                      _check_ray(math.inf)))
    elif kind == "wishart_2d":
        direction = _psd(rng, 0.7, ridge=0.1)
        direction /= np.linalg.norm(direction)
        horizon = rng.uniform(0.5, 1.5)
        wishart = models["wishart_2d"]
        ops.append(Op("ray/wishart_2d", lambda d=direction, T=horizon: effective_domain_ray(wishart, d, T),
                      _check_ray(None)))
    else:
        horizon = rng.uniform(0.5, 2.0)
        ops.append(Op("ray/compound_poisson+1", lambda T=horizon: effective_domain_ray(cp, [1.0], T),
                      _check_ray(math.inf, CP_CONSTANT_PSI)))
    return ops


def _mc_op(kind, model, x0, us, n_paths, dt, rng):
    refs = [transform(model, u, x0, 1.0) for u in us]
    cfg = SimConfig(n_paths=n_paths, dt=dt, horizon=1.0, seed=int(rng.integers(2**31)), threads=1)

    def call():
        t0 = time.perf_counter()
        ens = simulate_paths(model, x0, cfg)
        simulate_s = time.perf_counter() - t0
        return MCResult(ens, [mc_transform(ens, u) for u in us], simulate_s)

    return Op(kind, call, _check_mc(refs, dt))


def _orthant_us(rng):
    return [np.array([u]) for u in (rng.uniform(-2.0, -0.5), rng.uniform(0.0, 0.3),
                                    1j * rng.uniform(0.3, 1.0), 1j * rng.uniform(1.0, 2.0))]


ORTHANT_PATHS = 4096  # one simulation block
ORTHANT_DT = 0.01


def _mc_orthant_round(models, rng, index):
    """Two CIR runs and one compound-Poisson run on the half line. The 2:1
    mix keeps the median inside the CIR latency cluster and the 90th
    percentile inside the compound-Poisson one, away from the gap."""
    ops = []
    for name in ("cir", "cir", "compound_poisson"):
        x0 = np.array([rng.uniform(0.5, 1.5)])
        ops.append(_mc_op(f"mc/{name}", models[name], x0, _orthant_us(rng), ORTHANT_PATHS, ORTHANT_DT, rng))
    return ops


WISHART_PATHS, WISHART_DT = 32, 0.05
LORENTZ_PATHS, LORENTZ_DT = 512, 0.025


def _mc_cone_round(models, rng, index):
    """Two Wishart 2x2 runs and one Lorentz(3) run, sized small because
    projection loops over rows; the 2:1 mix keeps the percentiles away from
    the gap between the two latency clusters."""
    ops = []
    wishart, lorentz = models["wishart_2d"], models["lorentz"]
    for _ in range(2):
        x0 = _psd(rng, 0.8, ridge=0.2)
        us = [1j * rng.normal(size=3) * 0.6, 1j * rng.normal(size=3) * 0.6,
              -_psd(rng, 0.6), -_psd(rng, 0.6)]
        ops.append(_mc_op("mc/wishart_2d", wishart, x0, us, WISHART_PATHS, WISHART_DT, rng))
    tail = rng.normal(size=2) * 0.5
    x0 = np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.1, 1.0)], tail])
    us = [rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5,
          1j * rng.normal(size=3) * 0.6, 1j * rng.normal(size=3) * 0.6]
    ops.append(_mc_op("mc/lorentz", lorentz, x0, [u.astype(complex) for u in us], LORENTZ_PATHS, LORENTZ_DT, rng))
    return ops


ROUND_BUILDERS = {
    "many_u": _many_u_round,
    "blowup": _blowup_round,
    "mc_orthant": _mc_orthant_round,
    "mc_cone": _mc_cone_round,
}

# The measured loop runs a fixed number of rounds, so that attempted and
# failed depend only on --seconds: ceil(seconds * ROUNDS_PER_S), at least
# MIN_ROUNDS, rounded up to a multiple of ROUND_MULTIPLE. ROUNDS_PER_S is
# the rounds one second of wall time held on the sizing host at its usual
# speed (ode kernel ~7 ms). blowup runs whole cycles of RAY_KINDS, so every
# run has the same mix, and at least two cycles: its 90th percentile lies
# in the upper tail of the exploding-solve cluster, whose single latencies
# scatter by +-20% on that host, and one cycle leaves only 4 of them above it.
ROUNDS_PER_S = {"many_u": 1.9, "blowup": 0.2, "mc_orthant": 5.6, "mc_cone": 2.5}
MIN_ROUNDS = {"many_u": 1, "blowup": 2 * len(RAY_KINDS), "mc_orthant": 1, "mc_cone": 1}
ROUND_MULTIPLE = {"many_u": 1, "blowup": len(RAY_KINDS), "mc_orthant": 1, "mc_cone": 1}


def measured_rounds(workload, seconds):
    multiple = ROUND_MULTIPLE[workload]
    rounds = max(MIN_ROUNDS[workload], math.ceil(seconds * ROUNDS_PER_S[workload]))
    return multiple * math.ceil(rounds / multiple)


# Rounds in one pass of the traced run: fixed, so its counts repeat exactly.
# blowup needs four rounds to visit every ray direction once.
TRACE_ROUNDS = {"many_u": 6, "blowup": 4, "mc_orthant": 30, "mc_cone": 8}
