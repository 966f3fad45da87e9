"""Euler Monte Carlo for affine jump-diffusions and statistical validation
of the transform formula and its martingale property.

The scheme discretizes the semimartingale decomposition
X = X_0 + drift + diffusion martingale + compensated jumps: each step adds
b(x) dt minus the jump compensator integral of z K(x,dz) dt, a Gaussian
increment with covariance c(x) dt (c(x) + 1e-10 I by its Cholesky factor if
p >= 2, c(x) clipped at 0 if p = 1), and jumps drawn from the normalized
kernel frozen at the left endpoint, followed by Euclidean projection onto
the state space.

A step's jump counts are the arrivals of one unit-rate Poisson process laid
across the paths of a block: path i owns the segment [edges[i-1], edges[i])
of edges = cumsum(K(x,F) dt) over the paths, the arrivals are the running
sum of standard exponentials drawn until it passes edges[-1], and each
arrival is one jump of the path whose segment holds it. By the restriction
property of Poisson processes the counts are independent Poisson(K(x_i,F) dt),
and a step costs one draw per jump, not one per path. The j-th jump of the
step, in path order, reads the j-th uniform to pick its source and, if
the source is an exponential ray, the j-th standard exponential for its
length. The jumps are one gather from a table of marks built once per
block, in the column order of the jump weights: each weighted point, then
each ray's unit direction, whose rows the gather scales by their lengths.

A step refuses, before any draw, a total intensity whose expected arrivals
edges[-1] pass 2**22 on a block, infinite or not (IntensityInfinite), and,
before the projection, a state that leaves float range (PathOverflow, a
numeric failure naming the step, where the state space would refuse it as
bad input); the projection then makes no test of its own. Otherwise a sum or
a square past float range reads inf without a warning, as sup |X|^2 does
past 1e308.

The step skips what the model makes zero or constant, with the same
results: when every A^i is zero, c(x) = 0 and no normals are drawn; when
K^1..K^p have zero mass, K(x, dz) = K^0(dz), and both the edges and the
cumulative source weights are computed once per block.

The step works in place: the drift, the diffusion increment and
x + increment are written into arrays the step owns, with operands of + and
* at most swapped, which IEEE arithmetic leaves exact. Sums of squares over
the short rows of a state go one column at a time (row_sq_sums), in numpy's
own order. So the paths are the plain form's, bit for bit.

All randomness comes from counter-based Philox streams keyed by
(seed, step, path-block, purpose), with four purposes: the normals
(_NORMALS), the arrival exponentials (_COUNTS), the source uniforms
(_MARKS) and the ray lengths (_RAY_EXPS). Each is read from its start in
path order, so enlarging the path count or the number of steps never
reshuffles draws that earlier configurations consumed.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    IntensityInfinite,
    NegativeJumpWeight,
    PathOverflow,
    _check_count,
    _check_positive,
)
from .model import AffineModel, require_in_space
from .modelio import model_hash
from .riccati import _solve_reaching
from .statespace import row_sq_sums

_BLOCK = 4096
_EIG_FLOOR = -1e-10
# The most expected arrivals, edges[-1], that a block's step draws: about
# 100 MB of exponentials, rows and source weights.
_MAX_ARRIVALS = 2**22
# Stream purposes, the low 3 bits of a stream key's second word.
_NORMALS, _COUNTS, _MARKS, _RAY_EXPS = 0, 1, 2, 3


@dataclass
class SimConfig:
    n_paths: int
    dt: float
    horizon: float
    seed: int = 0
    record_times: Optional[np.ndarray] = None  # defaults to 11 evenly spaced
    threads: int = 1

    def __post_init__(self):
        # The checks only refuse; the fields keep the values given.
        _check_count(self.n_paths, "n_paths", 1)
        _check_count(self.threads, "threads", 1)
        _check_positive(self.dt, "dt")
        _check_positive(self.horizon, "horizon")
        if _check_count(self.seed, "seed", 0) >> 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class PathEnsemble:
    """States recorded on a subgrid, plus per-path jump counts and the
    running maximum of |X_t|^2 over every step, and the model simulated."""

    times: np.ndarray  # (R,)
    states: np.ndarray  # (n_paths, R, p)
    jump_counts: np.ndarray  # (n_paths,)
    sup_sq: np.ndarray  # (n_paths,)
    x0: np.ndarray
    config: SimConfig
    model: AffineModel
    dt_effective: float
    n_steps: int

    @property
    def model_hash(self):
        """:func:`model_hash` of the simulated model, computed when read. The
        model's own arrays are read-only; its jump measures and state space
        must not be changed in place after simulating."""
        return model_hash(self.model)

    @property
    def n_paths(self):
        return self.states.shape[0]

    @property
    def final_states(self):
        return self.states[:, -1, :]


@dataclass
class MCEstimate:
    value: complex
    std_error: float
    n_paths: int


def _check_drawable(model):
    """Refuse jump measures that cannot be sampled: a negative weight in the
    jump table or a non-finite mass or mean, naming the measure K^i."""
    coefs = np.vstack([model.jump_coefs] + [coef[None, :] for _, _, coef in model.jump_rays])
    lowest = coefs.min(axis=0, initial=0.0)
    finite = np.isfinite(model.jump_mass) & np.isfinite(model.jump_mean).all(axis=1)
    for i in range(model.dim + 1):
        if lowest[i] < 0.0:
            raise NegativeJumpWeight(f"K^{i} has the negative weight {lowest[i]:g}: jumps cannot be drawn from it")
        if not finite[i]:
            raise IntensityInfinite(f"K^{i} has non-finite mass or mean")


def _intensity(model, states):
    """K(x, F) at each state."""
    return np.maximum(model.jump_mass[0] + np.dot(states, model.jump_mass[1:]), 0.0)


class _Streams:
    """Philox streams keyed by (seed, step, block, purpose) for one path
    block. One generator is rekeyed per draw, which yields the same numbers
    as a fresh ``Generator(Philox(key=key))`` at a fraction of its cost. The
    state record is built once; a rekey writes the second key word and sets
    the record, whose values the generator copies."""

    def __init__(self, seed, block):
        self.block = block
        self.key = np.array([seed, 0], dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self.key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.bit_gen = Philox(key=np.zeros(2, dtype=np.uint64))
        self.gen = Generator(self.bit_gen)

    def __call__(self, step, purpose):
        self.key[1] = (self.block << 24) | (step << 3) | purpose
        self.bit_gen.state = self.state
        return self.gen


def _diffusion_increment(A, states, normals):
    """A square root of c(x) applied to the normals, which it may overwrite:
    the root of c(x) clipped at 0 if p = 1, else the Cholesky factor of
    c(x) - _EIG_FLOOR I. Both refuse c(x) with an eigenvalue below the floor."""
    if A.shape[1] == 1:
        c = states[:, 0] * A[1, 0, 0]
        c += A[0, 0, 0]
        if c.min() < _EIG_FLOOR:
            raise CholeskyFailure(f"c(x) = {c.min():.3e} below the clipping floor")
        np.maximum(c, 0.0, out=c)
        normals *= np.sqrt(c, out=c)[:, None]
        return normals
    # c(x) = A^0 + sum_i x_i A^i as one matrix product, the one tensordot
    # would form.
    n, p = states.shape
    c = A[0] + np.dot(states, A[1:].reshape(p, p * p)).reshape(n, p, p)
    c.reshape(n, p * p)[:, :: p + 1] -= _EIG_FLOOR
    try:
        factor = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(c).min() + _EIG_FLOOR
        raise CholeskyFailure(f"min eigenvalue {lowest:.3e} below the clipping floor") from None
    return np.einsum("nij,nj->ni", factor, normals)


def _chunk_size(rest):
    """Exponentials to draw for the arrivals on a stretch of length rest:
    their mean count, four standard deviations and a few more."""
    return int(rest + 4.0 * math.sqrt(rest)) + 16


def _arrival_rows(gen, edges):
    """The path of each arrival, in order, of a unit-rate Poisson process on
    [0, edges[-1]), path i owning [edges[i-1], edges[i]). The arrivals are
    the running sum of standard exponentials from gen, drawn in chunks until
    it passes edges[-1]; a chunk's sum starts from the last arrival, so the
    arrivals are one sequential cumsum whatever the chunk sizes."""
    total = edges[-1]
    arrivals = gen.standard_exponential(_chunk_size(total)).cumsum()
    while arrivals[-1] < total:
        more = gen.standard_exponential(_chunk_size(total - arrivals[-1]))
        arrivals = np.concatenate((arrivals, np.concatenate((arrivals[-1:], more)).cumsum()[1:]))
    return edges.searchsorted(arrivals[: arrivals.searchsorted(total)], side="right")


def _simulate_block(model, x0, cfg, dt, n_steps, record_idx, block, n_block):
    p = model.dim
    # The drift compensated by the mean jump, integral of z K(x, dz), with
    # its constant part tiled to the block (a broadcast row costs one short
    # inner loop per path) and its linear part as a contiguous transpose for
    # np.dot.
    drift0 = np.tile(model.a0 - model.jump_mean[0], (n_block, 1))
    drift_lin_t = np.ascontiguousarray((model.a - model.jump_mean[1:].T).T)
    diffusive = model.A.any()
    has_jumps = model.has_jumps
    # Weights are nonnegative (_check_drawable), so zero masses of K^1..K^p
    # zero every weight there: K(x, dz) = K^0(dz), and both the paths'
    # segments of the arrival line and the source weights are constant.
    const_edges = pick_cum = None
    if has_jumps and not model.jump_mass[1:].any():
        const_edges = np.cumsum(np.full(n_block, model.jump_mass[0] * dt))
        pick_cum = np.cumsum(model.jump_weights(np.zeros((1, p)))[0])
    # One mark per column of jump_weights: each weighted point, then each
    # ray's unit direction, which a drawn jump scales by its Exp/rate length.
    n_atoms = model.jump_points.shape[0]
    marks = np.vstack([model.jump_points] + [direction for _, direction, _ in model.jump_rays])
    rates = np.array([rate for rate, _, _ in model.jump_rays])
    states = np.tile(x0, (n_block, 1))
    rec = np.empty((n_block, len(record_idx), p))
    slot = {idx: r for r, idx in enumerate(record_idx)}
    if 0 in slot:
        rec[:, slot[0], :] = states
    jump_counts = np.zeros(n_block, dtype=np.int64)
    sup_sq = row_sq_sums(states)
    sqrt_dt = np.sqrt(dt)
    stream = _Streams(cfg.seed, block)
    incr = np.empty((n_block, p))
    flat = incr.ravel()  # a view of incr, for the overflow check

    for k in range(n_steps):
        np.dot(states, drift_lin_t, out=incr)
        incr += drift0
        incr *= dt
        if diffusive:
            normals = stream(k, _NORMALS).standard_normal((n_block, p))
            diffusion = _diffusion_increment(model.A, states, normals)
            diffusion *= sqrt_dt
            incr += diffusion
        if has_jumps:
            edges = const_edges
            if edges is None:
                edges = np.cumsum(_intensity(model, states) * dt)
            # One rule, before any draw, for a total too large or not finite.
            if not edges[-1] <= _MAX_ARRIVALS:
                raise IntensityInfinite(f"the jump intensity summed over the paths expects {edges[-1]:g} jumps "
                                        f"at step {k}, t = {k * dt:g}, past {_MAX_ARRIVALS} in one step")
            rows = _arrival_rows(stream(k, _COUNTS), edges)
            total = rows.size
            if total:
                np.add.at(jump_counts, rows, 1)
                u_sel = stream(k, _MARKS).random(total)
                if pick_cum is None:
                    cum = np.cumsum(np.maximum(model.jump_weights(states[rows]), 0.0), axis=1)
                    pick = (cum < (u_sel * cum[:, -1])[:, None]).sum(axis=1)
                else:
                    # On one nondecreasing row, the count of entries below a
                    # value is searchsorted's left index.
                    pick = pick_cum.searchsorted(u_sel * pick_cum[-1])
                pick = np.minimum(pick, marks.shape[0] - 1)
                z = marks[pick]
                if rates.size:
                    ray = pick >= n_atoms
                    s_exp = stream(k, _RAY_EXPS).standard_exponential(total)
                    z[ray] *= (s_exp[ray] / rates[pick[ray] - n_atoms])[:, None]
                np.add.at(incr, rows, z)
        incr += states
        # The step's own test names the step, and the projection is the
        # unchecked _project_rows. A dot product is the cheapest reduction
        # that every non-finite entry spoils; only states whose squares sum
        # past float range take the exact test.
        if not math.isfinite(flat.dot(flat)) and not np.isfinite(flat).all():
            raise PathOverflow(f"a path's state leaves float range at step {k}, t = {k * dt:g}")
        # _project_rows returns a new array, so incr is free for the next step.
        states = model.state_space._project_rows(incr)
        np.maximum(sup_sq, row_sq_sums(states), out=sup_sq)
        if (k + 1) in slot:
            rec[:, slot[k + 1], :] = states
    return rec, jump_counts, sup_sq


def simulate_paths(model, x0, cfg: SimConfig):
    """Simulate the model from x0; deterministic given (model, cfg).

    dt is rounded so an integer number of steps covers the horizon exactly;
    record times snap to the nearest step and always include the horizon.
    """
    x0 = require_in_space(model, x0)
    _check_drawable(model)
    # np.rint rounds half to even like round(), and keeps an infinite ratio
    # a float that fails the budget check.
    n_steps = max(1.0, np.rint(cfg.horizon / cfg.dt))
    if not n_steps < 1 << 21:
        raise ValueError("step count exceeds the stream-key budget (2^21 steps)")
    n_steps = int(n_steps)
    dt = cfg.horizon / n_steps

    if cfg.record_times is None:
        record_times = np.linspace(0.0, cfg.horizon, 11)
    else:
        record_times = np.asarray(cfg.record_times, dtype=float).ravel()
    record_steps = np.rint(record_times / dt)
    if not np.all((record_steps >= 0) & (record_steps <= n_steps)):
        raise ValueError("record_times must be finite and lie in [0, horizon]")
    record_idx = sorted({int(idx) for idx in record_steps} | {n_steps})
    times = np.array([idx * dt for idx in record_idx])

    n = cfg.n_paths
    blocks = [(b, min(_BLOCK, n - b * _BLOCK)) for b in range((n + _BLOCK - 1) // _BLOCK)]

    def run(block_spec):
        b, nb = block_spec
        # A sum or a square past float range reads inf, the honest value;
        # the step refuses it where it would reach a state or a draw.
        with np.errstate(over="ignore", invalid="ignore"):
            return _simulate_block(model, x0, cfg, dt, n_steps, record_idx, b, nb)

    if cfg.threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(spec) for spec in blocks]

    states = np.concatenate([r[0] for r in results], axis=0)
    jump_counts = np.concatenate([r[1] for r in results])
    sup_sq = np.concatenate([r[2] for r in results])
    return PathEnsemble(
        times=times,
        states=states,
        jump_counts=jump_counts,
        sup_sq=sup_sq,
        x0=x0,
        config=cfg,
        model=model,
        dt_effective=dt,
        n_steps=n_steps,
    )


def _sample_var(part):
    """np.var(part, ddof=1), by its own arithmetic but without its dispatch."""
    dev = part - part.sum() / part.size
    dev *= dev
    return dev.sum() / (part.size - 1)


def _complex_mean_se(vals):
    # np.mean's and np.var's arithmetic, bit for bit: both cost more in
    # dispatch than in arithmetic at a few dozen paths.
    n = vals.size
    with np.errstate(over="ignore", invalid="ignore"):  # a mean past float range is inf
        value = complex(vals.sum() / n)
        if not cmath.isfinite(value):
            return complex(np.inf, 0.0), np.inf
        if n == 1:
            return value, 0.0
        var = _sample_var(vals.real) + _sample_var(vals.imag)
        return value, float(np.sqrt(var / n))


def mc_transform(ensemble, u):
    """Sample mean and standard error of exp(u.X_T) over the paths."""
    u = np.asarray(u).ravel()
    p = ensemble.states.shape[2]
    if u.size != p:
        raise DimensionMismatch(f"u has length {u.size}, the paths have dimension {p}")
    if u.dtype.kind not in "iufc":
        raise ValueError("u must hold numbers")
    u = u.astype(complex, copy=False)
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    with np.errstate(over="ignore"):
        vals = np.exp(ensemble.final_states @ u)
    value, se = _complex_mean_se(vals)
    return MCEstimate(value=value, std_error=se, n_paths=ensemble.n_paths)


@dataclass
class MartingaleReport:
    """Standardized drift of M_t = exp(psi0(T-t) + psi(T-t).X_t) across
    checkpoints; values of a few indicate consistency, on top of an O(dt)
    discretization allowance reported separately."""

    max_standardized_drift: float
    checkpoints: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray
    reference: complex
    dt_allowance: float


def martingale_diagnostic(model, u, x0, horizon, n_checkpoints, cfg: SimConfig):
    """Simulate and test that the transform-induced martingale has constant
    expectation across n_checkpoints times in (0, horizon]."""
    n_checkpoints = _check_count(n_checkpoints, "n_checkpoints", 1)
    sol = _solve_reaching(model, u, horizon)
    checkpoints = np.linspace(0.0, horizon, n_checkpoints + 1)
    ens = simulate_paths(model, x0, replace(cfg, horizon=horizon, record_times=checkpoints))

    psi0_T, psi_T = sol.eval(horizon)
    reference = complex(np.exp(psi0_T + psi_T @ ens.x0))
    means = []
    ses = []
    drifts = []
    for r, t in enumerate(ens.times):
        psi0_t, psi_t = sol.eval(horizon - t)
        with np.errstate(over="ignore"):
            m_vals = np.exp(psi0_t + ens.states[:, r, :] @ psi_t)
        mean, se = _complex_mean_se(m_vals)
        means.append(mean)
        ses.append(se)
        err = abs(mean - reference)
        # Degenerate checkpoints (all values equal, e.g. t = 0) leave se at
        # rounding level; standardize against a machine-noise floor.
        floor = 1e-14 * (1.0 + abs(reference))
        drifts.append(err / max(se, floor))
    return MartingaleReport(
        max_standardized_drift=float(np.max(drifts)),
        checkpoints=ens.times,
        means=np.array(means),
        std_errors=np.array(ses),
        reference=reference,
        dt_allowance=cfg.dt,
    )


def sup_moment(ensemble):
    """Empirical mean of sup over the grid of |X_t|^2."""
    return float(np.mean(ensemble.sup_sq))


def expected_jump_count(ensemble):
    """Estimate of integral over [0,T] of K(X_s, F) ds on the recorded grid
    (trapezoid in time) under the ensemble's own model, for comparison with
    the mean jump count."""
    lam = np.array([np.mean(_intensity(ensemble.model, ensemble.states[:, r, :]))
                    for r in range(ensemble.times.size)])
    return float(np.trapezoid(lam, ensemble.times))


def ensemble_summary_csv(ensemble):
    """CSV rows (t, then mean, std, min, max per coordinate)."""
    p = ensemble.states.shape[2]
    header = ["t"]
    for i in range(1, p + 1):
        header += [f"mean_{i}", f"std_{i}", f"min_{i}", f"max_{i}"]
    lines = [",".join(header)]
    for r, t in enumerate(ensemble.times):
        xs = ensemble.states[:, r, :]
        row = [repr(float(t))]
        for i in range(p):
            col = xs[:, i]
            row += [repr(float(col.mean())), repr(float(col.std(ddof=1) if col.size > 1 else 0.0)),
                    repr(float(col.min())), repr(float(col.max()))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
