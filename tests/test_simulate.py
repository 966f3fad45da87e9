import contextlib
import queue
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from affinejd import golden, simulate
from affinejd.errors import (
    CholeskyFailure,
    DimensionMismatch,
    IntensityInfinite,
    NegativeJumpWeight,
    PathOverflow,
    StateSpaceMismatch,
)
from affinejd.jumps import ExponentialRay, FiniteAtomic, TabulatedDensity
from affinejd.model import AffineModel, check_admissibility
from affinejd.modelio import model_hash
from affinejd.riccati import mean_flow
from affinejd.simulate import (
    _COUNTS,
    _MARKS,
    _NORMALS,
    _RAY_EXPS,
    SimConfig,
    _arrival_rows,
    _complex_mean_se,
    _Streams,
    ensemble_summary_csv,
    expected_jump_count,
    martingale_diagnostic,
    mc_transform,
    simulate_paths,
    sup_moment,
)
from affinejd.statespace import Canonical, Lorentz, Parabolic
from affinejd.transform import transform


def scalar_model(a0=0.0, a=0.0, A0=0.0, A1=0.0, K=None, space=None):
    return AffineModel(
        a0=[a0], a=[[a]], A=[[[A0]], [[A1]]], K=K, state_space=space or Canonical(1, 1)
    )


def noisy_lorentz_model(p=3):
    """Drift 0.1 e_1 - x on Lorentz(p) with the arrow-matrix diffusion
    c(x) = [[x1, x_bar^T], [x_bar, x1 I]], for p = 3 [[x1, x2, x3], [x2, x1,
    0], [x3, 0, x1]], whose eigenvalues x1 and x1 +- |x_bar| are nonnegative
    exactly on the cone. The weak pull toward 0.1 e_1 keeps paths near the
    apex, where Euler steps of the p = 3 model also land in the polar cone."""
    e = np.eye(p)
    A = [np.zeros((p, p)), e] + [np.outer(e[0], e[i]) + np.outer(e[i], e[0]) for i in range(1, p)]
    return AffineModel(a0=0.1 * e[0], a=-e, A=A, K=None, state_space=Lorentz(p))


def parabolic_model(p=3):
    """A diffusion on the parabolic set {x_1 >= |x_bar|^2}: x_bar is a
    Brownian motion and x_1 has the drift p - 0.8 and c(x) = [[4 x1,
    2 x_bar^T], [2 x_bar, I]], so Y = x_1 - |x_bar|^2 solves dY = 0.2 dt +
    2 sqrt(Y) dB, a squared Bessel process of dimension 0.2 that reaches 0.
    Euler steps leave the set often."""
    e = np.eye(p)
    A = [np.diag([0.0] + [1.0] * (p - 1)), 4.0 * np.outer(e[0], e[0])]
    A += [2.0 * (np.outer(e[0], e[i]) + np.outer(e[i], e[0])) for i in range(1, p)]
    return AffineModel(a0=(p - 0.8) * e[0], a=np.zeros((p, p)), A=A, K=None, state_space=Parabolic(p))


def test_constant_paths_for_degenerate_model():
    m = scalar_model()
    ens = simulate_paths(m, [0.7], SimConfig(n_paths=16, dt=0.05, horizon=1.0, seed=0))
    assert np.all(ens.states == 0.7)
    assert np.all(ens.jump_counts == 0)
    assert np.isclose(sup_moment(ens), 0.49)


def test_pure_drift_deterministic():
    m = scalar_model(a0=1.0)
    ens = simulate_paths(m, [0.0], SimConfig(n_paths=8, dt=1e-2, horizon=1.0, seed=0))
    assert np.allclose(ens.final_states, 1.0, atol=1e-12)
    est = mc_transform(ens, [1.0])
    assert abs(est.value - np.e) < 1e-10
    assert est.std_error < 1e-12
    assert np.isclose(sup_moment(ens), 1.0)


def test_mc_transform_trivial(cir_model):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=64, dt=1e-2, horizon=0.5, seed=1))
    est = mc_transform(ens, [0.0])
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.n_paths == 64
    one = simulate_paths(cir_model, [1.0], SimConfig(n_paths=1, dt=1e-2, horizon=0.5, seed=1))
    est = mc_transform(one, [0.5])
    assert est.value == np.exp(0.5 * one.final_states[0, 0]) and est.std_error == 0.0 and est.n_paths == 1


def test_determinism_and_prefix_stability(cir_model, cp_model, wishart_model, lorentz_model):
    # The cone models run project_batch on every step; Wishart paths reach
    # the PSD boundary and noisy Lorentz paths all three Lorentz branches,
    # so this also pins row independence there. The jump models draw
    # constant and state-dependent counts, atoms and exponential rays.
    for model, x0 in [(cir_model, [1.0]), (wishart_model, [0.4, 0.0, 0.4]),
                      (lorentz_model, [1.0, 0.0, 0.0]), (noisy_lorentz_model(), [0.1, 0.05, 0.0]),
                      (cp_model, [1.0]), (state_dependent_atoms_model(), [1.0]),
                      (atoms_and_ray_model(), [1.0])]:
        base = SimConfig(n_paths=48, dt=1e-2, horizon=0.5, seed=9)
        e1 = simulate_paths(model, x0, base)
        e2 = simulate_paths(model, x0, base)
        assert np.array_equal(e1.states, e2.states)
        wider = SimConfig(n_paths=80, dt=1e-2, horizon=0.5, seed=9)
        e3 = simulate_paths(model, x0, wider)
        assert np.array_equal(e3.states[:48], e1.states)
        assert np.array_equal(e3.jump_counts[:48], e1.jump_counts)
        threaded = SimConfig(n_paths=80, dt=1e-2, horizon=0.5, seed=9, threads=4)
        e4 = simulate_paths(model, x0, threaded)
        assert np.array_equal(e4.states, e3.states)
        assert np.array_equal(e4.jump_counts, e3.jump_counts)


def test_jump_paths_are_prefix_stable_across_the_block_seam():
    # 4,096 + 40 paths make two blocks; the 4,096 + 8 prefix ends inside the
    # second, whose arrival line starts afresh.
    model = atoms_and_ray_model()
    wide = simulate_paths(model, [1.0], SimConfig(n_paths=4096 + 40, dt=0.1, horizon=0.5, seed=31, threads=2))
    for prefix in (4000, 4096 + 8):
        part = simulate_paths(model, [1.0], SimConfig(n_paths=prefix, dt=0.1, horizon=0.5, seed=31))
        assert np.array_equal(part.states, wide.states[:prefix])
        assert np.array_equal(part.jump_counts, wide.jump_counts[:prefix])
    assert wide.jump_counts[4096:].sum() > 0


def test_threaded_blocks_match_serial_across_the_block_boundary(cir_model):
    # 4096 + 64 paths make two simulation blocks, so threads=2 runs them on
    # the thread pool, and the prefixes below end on both sides of the seam.
    n = 4096 + 64
    serial = simulate_paths(cir_model, [1.0], SimConfig(n_paths=n, dt=0.1, horizon=0.3, seed=4))
    threaded = simulate_paths(cir_model, [1.0],
                              SimConfig(n_paths=n, dt=0.1, horizon=0.3, seed=4, threads=2))
    assert np.array_equal(threaded.states, serial.states)
    assert np.array_equal(threaded.jump_counts, serial.jump_counts)
    for prefix in (100, 4096, 4096 + 16):
        part = simulate_paths(cir_model, [1.0], SimConfig(n_paths=prefix, dt=0.1, horizon=0.3, seed=4))
        assert np.array_equal(part.states, serial.states[:prefix])


def reference_diffusion(A, x, normals):
    """A square root of c(x) = A^0 + sum_i x_i A^i, formed by tensordot,
    applied to the normals: for p = 1 the clipped root V sqrt(max(W, 0)) V^T z,
    for p >= 2 the Cholesky factor of c(x) + 1e-10 I."""
    c = A[0] + np.tensordot(x, A[1:], axes=(1, 0))
    if A.shape[1] > 1:
        return np.einsum("nij,nj->ni", np.linalg.cholesky(c + 1e-10 * np.eye(A.shape[1])), normals)
    w, v = np.linalg.eigh(c)
    scaled = np.einsum("nij,ni->nj", v, normals) * np.sqrt(np.maximum(w, 0.0))
    return np.einsum("nij,nj->ni", v, scaled)


def reference_arrival_rows(gen, edges):
    """The path of each arrival on [0, edges[-1]), path i owning
    [edges[i-1], edges[i]): standard exponentials drawn one at a time from
    gen and summed in order until the sum passes edges[-1]."""
    arrivals, t = [], gen.standard_exponential()
    while t < edges[-1]:
        arrivals.append(t)
        t += gen.standard_exponential()
    return np.searchsorted(edges, arrivals, side="right")


def reference_paths(model, x0, cfg):
    """Final states, jump counts and sup |X|^2 of the Euler step as the
    module docstring states it, with nothing skipped: every step draws the
    normals, every path gets its intensity and its source weights, and the
    affine maps are plain `@` products."""
    p, block_size = model.dim, 4096
    n_steps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.horizon / n_steps
    out = []
    for block in range(-(-cfg.n_paths // block_size)):
        n = min(block_size, cfg.n_paths - block * block_size)
        stream = _Streams(cfg.seed, block)
        x = np.tile(np.asarray(x0, dtype=float), (n, 1))
        counts_total = np.zeros(n, dtype=np.int64)
        sup_sq = np.sum(x**2, axis=1)
        for k in range(n_steps):
            drift = model.a0 - model.jump_mean[0] + x @ (model.a - model.jump_mean[1:].T).T
            normals = stream(k, _NORMALS).standard_normal((n, p))
            incr = drift * dt
            # Adding a zero diffusion would turn a -0.0 entry into +0.0.
            if model.A.any():
                incr += reference_diffusion(model.A, x, normals) * np.sqrt(dt)
            if model.has_jumps:
                lam = np.maximum(model.jump_mass[0] + x @ model.jump_mass[1:], 0.0)
                rows = reference_arrival_rows(stream(k, _COUNTS), np.cumsum(lam * dt))
                counts_total += np.bincount(rows, minlength=n)
                weights = [model.jump_coefs[:, 0] + x[rows] @ model.jump_coefs[:, 1:].T]
                weights += [(coef[0] + x[rows] @ coef[1:])[:, None] for _, _, coef in model.jump_rays]
                cum = np.cumsum(np.maximum(np.hstack(weights), 0.0), axis=1)
                u_sel = stream(k, _MARKS).random(rows.size)
                s_exp = stream(k, _RAY_EXPS).standard_exponential(rows.size)
                pick = np.minimum((cum < (u_sel * cum[:, -1])[:, None]).sum(axis=1), cum.shape[1] - 1)
                sources = list(model.jump_points) + [None] * len(model.jump_rays)
                for j, r in enumerate(rows):
                    if sources[pick[j]] is not None:
                        incr[r] += sources[pick[j]]
                    else:
                        rate, direction, _ = model.jump_rays[pick[j] - len(model.jump_points)]
                        incr[r] += s_exp[j] / rate * direction
            x = model.state_space.project_batch(x + incr)
            sup_sq = np.maximum(sup_sq, np.sum(x**2, axis=1))
        out.append((x, counts_total, sup_sq))
    return [np.concatenate(parts) for parts in zip(*out)]


def state_dependent_atoms_model():
    """No diffusion, and atoms whose weights grow with the state."""
    return scalar_model(a0=1.0, a=-0.5, K=[None, FiniteAtomic([0.6, 0.3], [[0.5], [0.2]])])


def atoms_and_ray_model():
    """CIR diffusion, constant atoms in K^0 and an exponential ray in K^1."""
    return scalar_model(a0=1.0, a=-0.3, A1=0.2,
                        K=[FiniteAtomic([0.5, 0.25], [[0.4], [0.8]]), ExponentialRay(0.7, 3.0, [1.0])])


def ray_in_k0_model():
    """CIR diffusion and an exponential ray in K^0 alone: a constant kernel
    with a ray."""
    return scalar_model(a0=0.5, a=-0.4, A1=0.3, K=[ExponentialRay(0.8, 3.0, [1.0]), None])


def lorentz_ray_model():
    """noisy_lorentz_model's drift and diffusion on Lorentz(3), with an atom
    in K^0 and an exponential ray in K^1, whose weight grows with x_1."""
    base = noisy_lorentz_model()
    K = [FiniteAtomic([0.5], [[0.3, 0.1, 0.0]]), ExponentialRay(0.8, 2.5, [0.8, 0.0, 0.6]), None, None]
    return AffineModel(a0=base.a0, a=base.a, A=base.A, K=K, state_space=Lorentz(3))


def half_line_and_line_model():
    """On Canonical(1, 2): x_1 a square-root diffusion that Euler steps take
    below 0, x_2 a free Gaussian coordinate pulled toward 0.3 x_1, and an
    atom in K^0 that moves x_1 up and x_2 down."""
    return AffineModel(a0=[1.0, 0.2], a=[[-0.5, 0.0], [0.3, -1.0]],
                       A=[np.diag([0.0, 0.5]), np.diag([1.0, 0.2]), np.zeros((2, 2))],
                       K=[FiniteAtomic([0.5], [[0.3, -0.4]]), None, None], state_space=Canonical(1, 2))


def free_plane_model():
    """On R^2, where the projection is the identity: a correlated Gaussian
    diffusion pulled toward a point, with an atom in K^0."""
    return AffineModel(a0=[0.2, -0.1], a=[[-1.0, 0.3], [0.2, -0.5]],
                       A=[[[1.0, 0.2], [0.2, 0.5]], np.zeros((2, 2)), np.zeros((2, 2))],
                       K=[FiniteAtomic([0.5], [[0.3, -0.4]]), None, None], state_space=Canonical(0, 2))


def compensated_zero_drift_model():
    """a = 0.2, and an atom of weight 0.5 x at 0.4 whose mean 0.2 x cancels
    it: the compensated linear drift is zero though a is not."""
    return scalar_model(a0=1.0, a=0.2, A1=0.5, K=[None, FiniteAtomic([0.5], [[0.4]])])


REFERENCE_CASES = {
    "cir": (golden.cir, [1.0]),
    "ou": (golden.ou, [0.5]),
    "compound_poisson": (golden.compound_poisson, [1.0]),
    "wishart_2d": (golden.wishart_2d, [0.4, 0.0, 0.4]),
    "lorentz_drift": (golden.lorentz_drift, [1.0, 0.2, -0.1]),
    "state_dependent_atoms": (state_dependent_atoms_model, [1.0]),
    "atoms_and_ray": (atoms_and_ray_model, [1.0]),
    "ray_in_k0": (ray_in_k0_model, [1.0]),
    "lorentz_ray": (lorentz_ray_model, [1.0, 0.2, -0.1]),
    "half_line_and_line": (half_line_and_line_model, [0.5, -0.3]),
    "free_plane_seven_steps": (free_plane_model, [0.5, -0.3]),
    "compensated_zero_drift": (compensated_zero_drift_model, [1.0]),
    "cir_one_step": (golden.cir, [1.0]),
    "cir_seven_steps": (golden.cir, [1.0]),
    "atoms_and_ray_seven_steps": (atoms_and_ray_model, [1.0]),
    "noisy_lorentz_seven_steps": (noisy_lorentz_model, [0.1, 0.05, 0.0]),
    # Starts on the edge of R_+: -1e-12 lies within the tolerance of
    # require_in_space, where c(x) = -2e-12 needs the clip at step 0.
    "cir_just_below_zero": (golden.cir, [-1e-12]),
    "cir_from_minus_zero": (golden.cir, [-0.0]),
    # A^0 = -1e-12 passes the model's PSD test and puts c(x) below 0 on all
    # of R, and on R_+ at x = 0, which the clip of the state reaches by
    # step 2: every step must still clip c(x).
    "negative_a0_on_r": (lambda: scalar_model(a0=0.5, a=-0.2, A0=-1e-12, space=Canonical(0, 1)), [1.0]),
    "negative_a0_on_r_plus_seven_steps": (lambda: scalar_model(a0=0.5, a=-0.2, A0=-1e-12, A1=1.0), [0.0]),
}
# Horizons at dt = 0.25 other than 0.5, two steps: one step, and seven,
# which the normals ring's four buffers do not divide; the noisy Lorentz
# block draws 4,096 x 3 normals per step.
REFERENCE_HORIZONS = {"cir_one_step": 0.25, "cir_seven_steps": 1.75, "atoms_and_ray_seven_steps": 1.75,
                      "noisy_lorentz_seven_steps": 1.75, "negative_a0_on_r_plus_seven_steps": 1.75,
                      "free_plane_seven_steps": 1.75}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_euler_step_matches_the_plain_reference_step(name):
    # 4,096 + 8 paths make two blocks, run serially and on two threads; the
    # step skips the draws and products that its model makes constant or zero.
    build, x0 = REFERENCE_CASES[name]
    model = build()
    cfg = SimConfig(n_paths=4096 + 8, dt=0.25, horizon=REFERENCE_HORIZONS.get(name, 0.5), seed=17)
    states, counts, sup_sq = reference_paths(model, x0, cfg)
    for threads in (1, 2):
        ens = simulate_paths(model, x0, replace(cfg, threads=threads))
        # The bytes tell -0.0 from +0.0, which np.array_equal does not.
        assert ens.final_states.tobytes() == states.tobytes()
        assert np.array_equal(ens.jump_counts, counts)
        assert ens.sup_sq.tobytes() == sup_sq.tobytes()
    assert (counts.sum() > 0) == model.has_jumps


@pytest.mark.parametrize("n_paths", [1, 8])
def test_a_signed_zero_drift_keeps_the_sign_of_the_plain_step(n_paths):
    # With a = 0 and a^0 = -0.0 the drift (x.0 + a^0) dt is the signed zero
    # that np.dot gives x.0: a single path multiplies, a batch sums from
    # +0.0. The step must give what the dot, the sum and the scale give.
    # np.array_equal does not tell +0.0 from -0.0, so the bytes are compared.
    model = scalar_model(a0=-0.0, space=Canonical(0, 1))
    cfg = SimConfig(n_paths=n_paths, dt=0.25, horizon=0.5, seed=17)
    for x0 in (-0.0, 0.0, -1.0):
        x = np.full((n_paths, 1), x0)
        for _ in range(2):
            x = model.state_space.project_batch((np.dot(x, np.zeros((1, 1))) + -0.0) * 0.25 + x)
        assert simulate_paths(model, [x0], cfg).final_states.tobytes() == x.tobytes()


@pytest.mark.parametrize("build", [golden.compound_poisson, state_dependent_atoms_model])
def test_a_source_uniform_next_to_1_picks_the_last_mark(monkeypatch, build):
    # The largest uniform below 1 takes u * total to the total's neighbour
    # or the total itself; the step must pick the last mark with no clamp,
    # on the constant kernel and on the state-dependent one.
    call = _Streams.__call__

    class Highest:
        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    def highest_marks(self, step, purpose):
        return Highest() if purpose == _MARKS else call(self, step, purpose)

    monkeypatch.setattr(_Streams, "__call__", highest_marks)
    model, cfg = build(), SimConfig(n_paths=256, dt=0.25, horizon=1.0, seed=7)
    states, counts, sup_sq = reference_paths(model, [1.0], cfg)
    ens = simulate_paths(model, [1.0], cfg)
    assert counts.sum() > 0 and np.array_equal(ens.jump_counts, counts)
    assert ens.final_states.tobytes() == states.tobytes() and ens.sup_sq.tobytes() == sup_sq.tobytes()


def test_the_reference_cases_reach_the_clip_and_the_constant_drift():
    model = half_line_and_line_model()
    cfg = SimConfig(n_paths=256, dt=0.25, horizon=0.5, seed=17)
    clipped = simulate_paths(model, [0.5, -0.3], cfg).states[:, 1:, :]
    assert (clipped[..., 0] == 0.0).any() and (clipped[..., 1] < 0.0).any()
    model = compensated_zero_drift_model()
    assert model.a.any() and not (model.a - model.jump_mean[1:].T).any()


# float.hex of final_states.sum() and sup_sq.sum(), and jump_counts.sum(),
# on runs whose projections clip PSD rows (wishart_2d), keep every row
# (lorentz_drift), reach all three Lorentz branches (noisy_lorentz), keep
# and project Lorentz(9) rows, whose sums numpy takes pairwise
# (noisy_lorentz_9), project onto the parabolic set (parabolic) and draw
# atoms and ray jumps (atoms_and_ray), and run CIR and compound Poisson at
# the mc_orthant benchmark's size, one full block of 4,096 paths over 100
# steps. Any change to the Euler step that is not bit for bit shows here.
NOISY_LORENTZ_9_X0 = [0.1, 0.05, 0.0, 0.02, -0.03, 0.0, 0.01, 0.0, 0.0]
GOLDEN_PATH_PINS = {
    "wishart_2d": ((golden.wishart_2d, [0.4, 0.0, 0.4], 32, 0.05, 1.0, 5),
                   ("0x1.d85f5b5375c89p+6", "0x1.889a2cb8bc62bp+9", 0)),
    "lorentz_drift": ((golden.lorentz_drift, [1.0, 0.2, -0.1], 512, 0.025, 1.0, 5),
                      ("0x1.094c7ae90437ap+9", "0x1.0cccccccccccep+9", 0)),
    "noisy_lorentz": ((noisy_lorentz_model, [0.1, 0.05, 0.0], 64, 0.05, 2.0, 3),
                      ("0x1.752d926a0d6b7p+3", "0x1.e0e0d25c22f3cp+5", 0)),
    "noisy_lorentz_9": ((lambda: noisy_lorentz_model(9), NOISY_LORENTZ_9_X0, 64, 0.05, 2.0, 3),
                        ("0x1.641af723c0208p+6", "0x1.7e8eea06e2172p+9", 0)),
    "parabolic": ((parabolic_model, [0.5, 0.3, -0.2], 64, 0.05, 1.0, 3),
                  ("0x1.47ce659e7b41ep+7", "0x1.0c17192ef2d54p+10", 0)),
    "atoms_and_ray": ((atoms_and_ray_model, [1.0], 256, 0.05, 1.0, 5),
                      ("0x1.8efb20f20e3bcp+8", "0x1.debe439bd3162p+9", 409)),
    "cir": ((golden.cir, [1.0], 4096, 0.01, 1.0, 5),
            ("0x1.00e2327d02502p+13", "0x1.672c735954f05p+15", 0)),
    "compound_poisson": ((golden.compound_poisson, [1.0], 4096, 0.01, 1.0, 5),
                         ("0x1.ff6ccccccccc4p+12", "0x1.0e847ae147ad3p+14", 3044)),
}


@pytest.mark.parametrize("name", GOLDEN_PATH_PINS)
def test_golden_paths_pinned(name):
    (build, x0, n_paths, dt, horizon, seed), pin = GOLDEN_PATH_PINS[name]
    ens = simulate_paths(build(), x0, SimConfig(n_paths=n_paths, dt=dt, horizon=horizon, seed=seed))
    assert (float(ens.final_states.sum()).hex(), float(ens.sup_sq.sum()).hex(),
            int(ens.jump_counts.sum())) == pin


def recorded_rings(monkeypatch):
    """The normals rings that simulate_paths starts, each kept in a list,
    with the helper allowed whatever the host's CPU count."""
    rings = []

    class Recorded(simulate._NormalRing):
        def __init__(self, *args):
            super().__init__(*args)
            rings.append(self)

    monkeypatch.setattr(simulate, "_NormalRing", Recorded)
    monkeypatch.setattr(simulate, "_CPUS", 2)
    return rings


def overflowing_model():
    """x grows by a factor 1 + 1e60 per unit step and leaves float range at
    step 5, past the ring's depth."""
    return scalar_model(a=1e60, A0=1.0, space=Canonical(0, 1))


@pytest.mark.parametrize("error", [PathOverflow, KeyboardInterrupt])
def test_a_block_that_raises_stops_its_helper(monkeypatch, error):
    rings = recorded_rings(monkeypatch)
    if error is KeyboardInterrupt:
        increment, calls = simulate._diffusion_increment, []

        def interrupted(*args):
            calls.append(None)
            if len(calls) == 6:
                raise KeyboardInterrupt
            return increment(*args)

        monkeypatch.setattr(simulate, "_diffusion_increment", interrupted)
    cfg = SimConfig(n_paths=4096, dt=1.0, horizon=10.0, seed=3)
    with pytest.raises(error, match="at step 5, " if error is PathOverflow else None):
        simulate_paths(overflowing_model(), [1.0], cfg)
    assert len(rings) == 1 and not rings[0].thread.is_alive()


def test_an_error_in_the_helper_reaches_the_caller(monkeypatch):
    rings = recorded_rings(monkeypatch)
    draw = simulate._draw_normals

    def failing(stream, step, out):
        if step == 6:
            raise RuntimeError("the draw failed")
        return draw(stream, step, out)

    monkeypatch.setattr(simulate, "_draw_normals", failing)
    raised = []

    def call():
        try:
            simulate_paths(golden.cir(), [1.0], SimConfig(n_paths=4096, dt=0.1, horizon=1.0, seed=3))
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30.0)
    assert not caller.is_alive(), "simulate_paths waits forever for normals the helper never drew"
    assert [str(exc) for exc in raised] == ["the draw failed"]
    assert len(rings) == 1 and not rings[0].thread.is_alive()


def test_helpers_under_a_short_switch_interval_keep_the_paths(monkeypatch):
    # Three blocks on three pool workers, two of them with a helper: five
    # threads, switching every microsecond.
    rings = recorded_rings(monkeypatch)
    cfg = SimConfig(n_paths=2 * 4096 + 8, dt=0.1, horizon=0.9, seed=29, threads=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        helped = simulate_paths(golden.cir(), [1.0], cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(rings) == 2
    monkeypatch.setattr(simulate, "_HELPER_MIN_NORMALS", 1 << 62)
    inline = simulate_paths(golden.cir(), [1.0], cfg)
    assert len(rings) == 2
    assert helped.final_states.tobytes() == inline.final_states.tobytes()
    assert helped.sup_sq.tobytes() == inline.sup_sq.tobytes()


def scheduled_rings(monkeypatch, schedule):
    """Rings whose two threads draw a block's normals in a fixed order, and
    the (step, thread) of each draw, counted by a wrapper of _draw_normals
    that blocks only in the helper thread. The schedules:
    - "loop": the helper starts only when its ring closes, so the loop
      draws every step;
    - "helper": the loop asks the ring for a step only once the helper has
      put it on the step's ``drawn`` queue, so the helper draws every step;
    - "in_flight": the loop waits for the helper to claim step 0, and the
      helper's draw of step 0 waits until the loop has drawn step 1, which
      the loop claims while step 0 is in flight.
    Every wait has a timeout, after which the draw goes on and the counts
    show the schedule broken."""
    draws, closing, holds_0, drew_1 = [], threading.Event(), threading.Event(), threading.Event()
    draw = simulate._draw_normals

    def gated(stream, step, out):
        helper = threading.current_thread().name == "affinejd-normals"
        draws.append((step, "helper" if helper else "loop"))
        if helper and step == 0 and schedule == "in_flight":
            holds_0.set()
            drew_1.wait(30.0)
        result = draw(stream, step, out)
        if not helper and step == 1:
            drew_1.set()
        return result

    class Scheduled(simulate._NormalRing):
        def _fill(self, stream):
            if schedule == "loop":
                closing.wait(30.0)
            super()._fill(stream)

        def take(self, step, stream):
            if schedule == "helper":
                # Wait for the helper's entry of the step on drawn, and put
                # it back for the ring's own take.
                drawn = self.drawn[step % simulate._RING_DEPTH]
                with contextlib.suppress(queue.Empty):
                    drawn.put(drawn.get(timeout=30.0))
            if schedule == "in_flight" and step == 0:
                holds_0.wait(30.0)
            return super().take(step, stream)

        def close(self):
            closing.set()
            super().close()

    monkeypatch.setattr(simulate, "_draw_normals", gated)
    monkeypatch.setattr(simulate, "_NormalRing", Scheduled)
    monkeypatch.setattr(simulate, "_CPUS", 2)
    return draws


@pytest.mark.parametrize("schedule, n_steps", [("loop", 1), ("loop", 7), ("helper", 1), ("helper", 7),
                                               ("in_flight", 7)])
def test_either_thread_draws_each_step_once_with_the_same_paths(monkeypatch, schedule, n_steps):
    # One 4,096-path CIR block; 7 steps are no multiple of the 4 buffers.
    # "in_flight" needs a step after step 0.
    cfg = SimConfig(n_paths=4096, dt=0.25, horizon=0.25 * n_steps, seed=41)
    with monkeypatch.context() as inline_only:
        inline_only.setattr(simulate, "_HELPER_MIN_NORMALS", 1 << 62)
        inline = simulate_paths(golden.cir(), [1.0], cfg)
    draws = scheduled_rings(monkeypatch, schedule)
    ens = simulate_paths(golden.cir(), [1.0], cfg)
    assert sorted(step for step, _ in draws) == list(range(n_steps))
    by = dict(draws)
    if schedule == "in_flight":
        assert (by[0], by[1]) == ("helper", "loop")
        assert draws.index((1, "loop")) > draws.index((0, "helper"))
    else:
        assert set(by.values()) == {schedule}
    assert ens.final_states.tobytes() == inline.final_states.tobytes()
    assert ens.sup_sq.tobytes() == inline.sup_sq.tobytes()


def test_an_error_in_a_draw_of_the_loop_reaches_the_caller(monkeypatch):
    rings = recorded_rings(monkeypatch)
    scheduled_rings(monkeypatch, "loop")
    draw = simulate._draw_normals

    def failing(stream, step, out):
        if step == 3:
            raise RuntimeError("the loop's draw failed")
        return draw(stream, step, out)

    monkeypatch.setattr(simulate, "_draw_normals", failing)
    with pytest.raises(RuntimeError, match="the loop's draw failed"):
        simulate_paths(golden.cir(), [1.0], SimConfig(n_paths=4096, dt=0.25, horizon=1.75, seed=3))
    assert len(rings) == 1 and not rings[0].thread.is_alive()


def test_the_loop_keeps_the_token_of_a_step_it_claims():
    # The helper starts once the loop has claimed step 0, and the loop's get
    # of step 0's token first waits up to 0.5 s for the helper to claim step
    # _RING_DEPTH, which uses step 0's buffer. A ring whose loop takes that
    # token after leaving the lock lets the helper take it; the queues' other
    # gets time out after 10 s, so such a ring fails with queue.Empty, not a
    # hang.
    depth, n_steps, shape = simulate._RING_DEPTH, 7, (4096, 1)
    started = threading.Event()

    class Timed:
        def __init__(self, ring, tokens):
            self.ring, self.tokens = ring, tokens

        def put(self, token):
            self.tokens.put(token)

        def empty(self):
            return self.tokens.empty()

        def get(self, block=True):
            if threading.current_thread() is not self.ring.thread and not started.is_set():
                started.set()
                deadline = time.monotonic() + 0.5
                while self.ring.claimed <= depth and time.monotonic() < deadline:
                    time.sleep(1e-3)
            return self.tokens.get(block, 10.0)

    class Held(simulate._NormalRing):
        def _fill(self, stream):
            started.wait(10.0)
            super()._fill(stream)

    ring = Held(41, 0, n_steps, shape)
    ring.free = [Timed(ring, tokens) for tokens in ring.free]
    stream = _Streams(41, 0)
    try:
        taken = [ring.take(step, stream).copy() for step in range(n_steps)]
    finally:
        ring.close()
    assert started.is_set() and ring.claimed == n_steps
    for step, normals in enumerate(taken):
        expected = simulate._draw_normals(_Streams(41, 0), step, np.empty(shape))
        assert normals.tobytes() == expected.tobytes()


def test_diffusion_free_models_draw_no_normals(monkeypatch, cir_model, cp_model, lorentz_model):
    purposes = []
    call = _Streams.__call__

    def counting(self, step, purpose):
        purposes.append(purpose)
        return call(self, step, purpose)

    monkeypatch.setattr(_Streams, "__call__", counting)
    cfg = SimConfig(n_paths=64, dt=0.1, horizon=0.5, seed=2)
    for model, x0 in [(cp_model, [1.0]), (lorentz_model, [1.0, 0.0, 0.0]),
                      (state_dependent_atoms_model(), [1.0])]:
        simulate_paths(model, x0, cfg)
    assert purposes and _NORMALS not in purposes
    simulate_paths(cir_model, [1.0], cfg)
    assert purposes.count(_NORMALS) == 5


def test_stream_purposes_have_distinct_keys_within_the_purpose_bits():
    purposes = (_NORMALS, _COUNTS, _MARKS, _RAY_EXPS)
    assert all(0 <= purpose < 1 << 3 for purpose in purposes)
    streams = _Streams(7, 2)
    keys = set()
    for purpose in purposes:
        streams(5, purpose)
        key = streams.bit_gen.state["state"]["key"]
        assert key[1] >> 3 == (2 << 21) | 5
        keys.add(tuple(int(word) for word in key))
    assert len(keys) == len(purposes)


def lorentz_branch_counts(monkeypatch, p, x0):
    """Rows that project_batch finds inside Lorentz(p), in its polar cone,
    and projected onto the boundary ray, over noisy_lorentz_model(p) paths."""
    model = noisy_lorentz_model(p)
    assert check_admissibility(model).verdict
    counts = {"inside": 0, "ray": 0, "polar": 0}
    project_rows = Lorentz._project_rows

    def counting(self, xs):
        head, tail = xs[:, 0], np.linalg.norm(xs[:, 1:], axis=1)
        inside = head >= tail
        polar = ~inside & (head <= -tail)
        counts["inside"] += int(inside.sum())
        counts["polar"] += int(polar.sum())
        counts["ray"] += int((~inside & ~polar).sum())
        return project_rows(self, xs)

    monkeypatch.setattr(Lorentz, "_project_rows", counting)
    simulate_paths(model, x0, SimConfig(n_paths=64, dt=0.05, horizon=2.0, seed=3))
    return counts


def test_noisy_lorentz_paths_reach_every_projection_branch(monkeypatch):
    counts = lorentz_branch_counts(monkeypatch, 3, [0.1, 0.05, 0.0])
    assert all(n > 0 for n in counts.values()), counts


def test_wide_lorentz_paths_are_projected(monkeypatch):
    # The seven extra noise directions of the tail keep the paths on the
    # boundary, from which the positive drift never reaches the polar cone;
    # test_statespace pins polar rows of this width.
    counts = lorentz_branch_counts(monkeypatch, 9, NOISY_LORENTZ_9_X0)
    assert counts["inside"] > 0 and counts["ray"] > 1000, counts


def test_parabolic_paths_leave_the_set(monkeypatch):
    model = parabolic_model()
    assert check_admissibility(model).verdict
    outside = []
    project_rows = Parabolic._project_rows

    def counting(self, xs):
        outside.append(int((xs[:, 0] < np.sum(xs[:, 1:] ** 2, axis=1)).sum()))
        return project_rows(self, xs)

    monkeypatch.setattr(Parabolic, "_project_rows", counting)
    simulate_paths(model, [0.5, 0.3, -0.2], SimConfig(n_paths=64, dt=0.05, horizon=1.0, seed=3))
    assert sum(outside) >= 100


def test_rekeyed_streams_match_fresh_generators():
    # Rekeying must also discard the buffered half of a uint64 left by an
    # odd number of 32-bit draws, so each key starts from scratch. Two
    # stream objects drawn in turn must not leak a key into each other.
    from numpy.random import Generator, Philox

    streams = {((1 << 64) - 1, 3): _Streams((1 << 64) - 1, 3), (5, 0): _Streams(5, 0)}
    draws = [((1 << 64) - 1, 3, 0, 0), (5, 0, 0, 0), (5, 0, 7, 2), ((1 << 64) - 1, 3, 7, 2),
             ((1 << 64) - 1, 3, 0, 0), ((1 << 64) - 1, 3, (1 << 21) - 1, 1), (5, 0, (1 << 21) - 1, 1),
             (5, 0, 0, 0)]
    for seed, block, step, purpose in draws:
        gen = streams[seed, block](step, purpose)
        fresh = Generator(Philox(key=np.array([seed, (block << 24) | (step << 3) | purpose],
                                              dtype=np.uint64)))
        assert np.array_equal(gen.standard_normal(5), fresh.standard_normal(5))
        assert np.array_equal(gen.integers(0, 10, 3, dtype=np.int32),
                              fresh.integers(0, 10, 3, dtype=np.int32))
        assert np.array_equal(gen.poisson([0.5, 3.0]), fresh.poisson([0.5, 3.0]))


def _model_arrays(model):
    return {name: value.copy() for name, value in vars(model).items() if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("name", ["cir", "compound_poisson", "wishart_2d", "atoms_and_ray", "noisy_lorentz"])
def test_the_step_writes_nothing_outside_itself(name):
    build, x0 = {"noisy_lorentz": (noisy_lorentz_model, [0.1, 0.05, 0.0]),
                 **REFERENCE_CASES}[name]
    model = build()
    x0 = np.array(x0)
    x0_before, arrays_before = x0.copy(), _model_arrays(model)
    cfg = SimConfig(n_paths=4096 + 8, dt=0.1, horizon=0.5, seed=23)
    first = simulate_paths(model, x0, cfg)
    kept = first.states.copy(), first.sup_sq.copy(), first.jump_counts.copy()
    second = simulate_paths(model, x0, cfg)
    assert np.array_equal(x0, x0_before)
    arrays = _model_arrays(model)
    assert arrays.keys() == arrays_before.keys() and len(arrays) >= 3
    assert all(np.array_equal(arrays[key], arrays_before[key]) for key in arrays)
    for a, b, c in zip(kept, (first.states, first.sup_sq, first.jump_counts),
                       (second.states, second.sup_sq, second.jump_counts)):
        assert np.array_equal(a, b) and np.array_equal(a, c)


@pytest.mark.parametrize("n", [2, 7, 8, 9, 32, 4096])
def test_complex_mean_se_is_np_mean_and_var_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in np.repeat([1e-200, 1e-3, 1.0, 1e150], 25):
        vals = (rng.standard_normal(n) + 1j * rng.standard_normal(n) + rng.uniform(-3.0, 3.0)) * scale
        value, se = _complex_mean_se(vals)
        var = np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)
        assert value == complex(np.mean(vals)) and se == float(np.sqrt(var / n))


def test_complex_mean_se_overflow_is_infinite_and_quiet():
    # The suite turns a RuntimeWarning into an error.
    for vals in (np.array([np.inf, 1.0 + 0j]), np.array([1e308, 1e308, 0j]),
                 np.array([complex(np.inf, 1.0), complex(-np.inf, 1.0)])):
        assert _complex_mean_se(vals) == (complex(np.inf, 0.0), np.inf)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_stream_key_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        SimConfig(n_paths=4, dt=0.1, horizon=1.0, seed=seed)


@pytest.mark.parametrize("dt, horizon", [
    (0.1, float("inf")), (float("inf"), 1.0), (float("nan"), 1.0), (0.1, float("nan")), (0.0, 1.0),
])
def test_step_and_horizon_must_be_finite_and_positive(dt, horizon):
    field = "horizon" if dt == 0.1 else "dt"  # each case has one bad field
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
        SimConfig(n_paths=4, dt=dt, horizon=horizon)


@pytest.mark.parametrize("field, value", [("dt", True), ("dt", "0.1"), ("horizon", False), ("horizon", None)])
def test_step_and_horizon_must_be_real_numbers(field, value):
    kwargs = dict(n_paths=4, dt=0.1, horizon=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
        SimConfig(**kwargs)
    kwargs[field] = np.float32(0.5)  # numpy floats are real numbers
    assert getattr(SimConfig(**kwargs), field) == 0.5


def test_states_stay_in_space(cir_model, cp_model, wishart_model):
    rng_x0 = {"cir": [0.05], "cp": [0.5], "wishart": [0.4, 0.0, 0.4]}
    for model, x0 in [(cir_model, rng_x0["cir"]), (cp_model, rng_x0["cp"]),
                      (wishart_model, rng_x0["wishart"])]:
        ens = simulate_paths(model, x0, SimConfig(n_paths=32, dt=5e-3, horizon=0.5, seed=4))
        space = model.state_space
        for r in range(ens.times.size):
            for x in ens.states[:, r, :]:
                assert space.contains(x, tol=1e-9)


def test_cir_mc_mean_matches_flow(cir_model):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=20000, dt=1e-3, horizon=1.0, seed=7))
    mean = ens.final_states.mean(axis=0)
    flow = mean_flow(cir_model, [1.0], 1.0)
    se = ens.final_states.std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(mean[0] - flow[0]) < 3.0 * se + 0.01


def test_mc_transform_agrees_with_ode(cir_model):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=20000, dt=1e-3, horizon=1.0, seed=7))
    for u in (0.3, -1.0, 0.5j):
        est = mc_transform(ens, [u])
        tv = transform(cir_model, [u], [1.0], 1.0)
        assert abs(est.value - tv.value) < 3.0 * est.std_error + 0.02


def arrival_counts(edges, n_steps, seed):
    """Per-path jump counts of n_steps steps, one row per step, drawn by the
    step's sampler on the paths' segments of the arrival line."""
    stream = _Streams(seed, 0)
    return np.stack([np.bincount(_arrival_rows(stream(k, _COUNTS), edges), minlength=edges.size)
                     for k in range(n_steps)])


@pytest.mark.parametrize("case", ["rare", "frequent", "state_dependent"])
def test_arrival_counts_are_poisson_per_path(case):
    # Counts of each (step, path) cell against Poisson(lam_i dt): their mean
    # and variance, and a chi-square on the classes 0, 1 and >= 2.
    n = 4096
    if case == "rare":
        lam_dt, n_steps = np.full(n, 0.0075), 200
    elif case == "frequent":
        lam_dt, n_steps = np.full(n, 3.0), 20
    else:
        lam_dt, n_steps = np.random.default_rng(5).uniform(0.0, 2.0, n), 40
        lam_dt[::3] = 0.0
    counts = arrival_counts(np.cumsum(lam_dt), n_steps, seed=41)
    lam = np.broadcast_to(lam_dt, counts.shape)
    assert not counts[:, lam_dt == 0.0].any()
    cells = counts.size
    mean_sd = np.sqrt(lam.sum()) / cells
    assert abs(counts.mean() - lam.mean()) < 4.0 * mean_sd
    # The square deviations from the known means have mean lam and variance
    # lam + 2 lam^2 per cell.
    sq = (counts - lam) ** 2
    assert abs(sq.mean() - lam.mean()) < 4.0 * np.sqrt((lam + 2.0 * lam**2).sum()) / cells
    p0, p1 = np.exp(-lam), lam * np.exp(-lam)
    expected = np.array([p0.sum(), p1.sum(), (1.0 - p0 - p1).sum()])
    seen = np.array([(counts == 0).sum(), (counts == 1).sum(), (counts >= 2).sum()])
    assert expected.min() > 20.0
    assert ((seen - expected) ** 2 / expected).sum() < 13.8  # chi-square(2) at 0.001


def test_arrivals_past_the_first_chunk_continue_one_sequential_sum(monkeypatch):
    # Chunks of one or two exponentials make every step extend its arrivals
    # many times; the rows and the paths are those of one sequential sum.
    edges = np.cumsum(np.random.default_rng(8).uniform(0.0, 0.05, 300))
    model, cfg = atoms_and_ray_model(), SimConfig(n_paths=300, dt=0.05, horizon=0.5, seed=12)
    default = simulate_paths(model, [1.0], cfg)
    stream = _Streams(3, 1)
    chunks = []

    def tiny(rest):
        chunks.append(rest)
        return 1 + len(chunks) % 2

    monkeypatch.setattr(simulate, "_chunk_size", tiny)
    for step in range(5):
        rows = _arrival_rows(stream(step, _COUNTS), edges)
        assert np.array_equal(rows, reference_arrival_rows(stream(step, _COUNTS), edges))
    assert len(chunks) > 20
    tiny_chunks = simulate_paths(model, [1.0], cfg)
    assert np.array_equal(tiny_chunks.states, default.states)
    assert np.array_equal(tiny_chunks.jump_counts, default.jump_counts)


@pytest.mark.parametrize("K, dt, x0, where", [
    # A constant intensity whose sum over the 400 paths passes float range.
    ([FiniteAtomic([1e306], [[1.0]]), None], 0.5, [1.0], r"step 0, t = 0\b"),
    # An intensity that grows with the state: zero at x0 = 0, inf one step on;
    # the tiny atom keeps the compensated drift in float range.
    ([None, FiniteAtomic([1e160], [[1e-150]])], 0.1, [0.0], r"step 1, t = 0\.1\b"),
])
def test_total_intensity_past_float_range_refused(K, dt, x0, where):
    model = scalar_model(a0=1e150, K=K)
    with pytest.raises(IntensityInfinite, match=r"jump intensity summed over the paths expects inf jumps at " + where):
        simulate_paths(model, x0, SimConfig(n_paths=400, dt=dt, horizon=0.5, seed=1))


@pytest.mark.parametrize("mass, n_paths, jumps", [
    # Sums past 2**22 expected arrivals, each finite: numpy would refuse the
    # first draw's size, and allocate 298 GiB for the second. The message
    # names the expected arrivals, which stay finite where intensity / dt
    # would not.
    (1e306, 400, r"4e\+307"),
    (1e11, 4, r"4e\+10"),
])
def test_total_intensity_too_large_to_draw_refused(monkeypatch, mass, n_paths, jumps):
    def no_draw(gen, edges):
        raise AssertionError("arrivals drawn")

    monkeypatch.setattr(simulate, "_arrival_rows", no_draw)
    model = scalar_model(a0=1.0, K=[FiniteAtomic([mass], [[1e-12]]), None])
    with pytest.raises(IntensityInfinite, match=r"jump intensity summed over the paths expects " + jumps
                       + r" jumps at step 0, t = 0\b"):
        simulate_paths(model, [1.0], SimConfig(n_paths=n_paths, dt=0.1, horizon=0.5, seed=1))


def test_arrival_budget_admits_its_bound(monkeypatch):
    # 10 paths of intensity w at dt = 0.1 expect w arrivals per step.
    monkeypatch.setattr(simulate, "_MAX_ARRIVALS", 8)
    cfg = SimConfig(n_paths=10, dt=0.1, horizon=0.5, seed=1)
    simulate_paths(scalar_model(a0=1.0, K=[FiniteAtomic([8.0], [[0.1]]), None]), [1.0], cfg)
    with pytest.raises(IntensityInfinite, match=r"expects 8\.5 jumps at step 0, t = 0, past 8 in one step"):
        simulate_paths(scalar_model(a0=1.0, K=[FiniteAtomic([8.5], [[0.1]]), None]), [1.0], cfg)


def test_intensity_overflow_is_refused_without_a_warning():
    # The state reaches 1e299 after one step; its square and its intensity
    # then pass float range, which the step reads as inf and refuses.
    model = scalar_model(a0=1e300, K=[None, FiniteAtomic([1e10], [[1.0]])])
    with pytest.raises(IntensityInfinite, match=r"expects inf jumps at step 1, t = 0\.1\b"):
        simulate_paths(model, [0.0], SimConfig(n_paths=4, dt=0.1, horizon=0.5, seed=1))


def test_sup_sq_past_float_range_reads_inf_without_a_warning():
    ens = simulate_paths(scalar_model(a0=1e200), [0.0], SimConfig(n_paths=4, dt=0.1, horizon=0.5, seed=1))
    assert np.isfinite(ens.final_states).all() and ens.final_states[0, 0] > 1e154
    assert np.all(ens.sup_sq == np.inf)


def lorentz_collapse_model():
    """Drift -1e308 x on Lorentz(3): from (2, 0, 0) one step of length 1
    reaches (-inf, 0, 0), which the step refuses before its projection."""
    return AffineModel(a0=np.zeros(3), a=-1e308 * np.eye(3), A=np.zeros((4, 3, 3)), K=None,
                       state_space=Lorentz(3))


@pytest.mark.parametrize("build, x0, where", [
    (lambda: scalar_model(a0=1e308), [0.0], r"step 1, t = 1\b"),
    (lorentz_collapse_model, [2.0, 0.0, 0.0], r"step 0, t = 0\b"),
])
def test_state_past_float_range_refused(build, x0, where):
    with pytest.raises(PathOverflow, match=r"leaves float range at " + where):
        simulate_paths(build(), x0, SimConfig(n_paths=4, dt=1.0, horizon=3.0, seed=1))


def test_the_projection_hides_an_infinite_row():
    # It once did: Lorentz(3) projected [-inf, 0, 0] to the apex 0, which is
    # why the step tests the state before its projection. It now refuses the
    # row, quietly, and names its entry.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateSpaceMismatch, match=r"state entry 0 of row 0 is -inf"):
            Lorentz(3).project_batch(np.array([[-np.inf, 0.0, 0.0]]))


def test_jump_counts_match_compensator(cp_model):
    ens = simulate_paths(cp_model, [1.0], SimConfig(n_paths=20000, dt=1e-3, horizon=1.0, seed=5))
    mean_jumps = float(ens.jump_counts.mean())
    se = float(ens.jump_counts.std(ddof=1)) / np.sqrt(ens.n_paths)
    assert abs(mean_jumps - expected_jump_count(ens)) < 3.0 * se + 1e-3


def test_simulate_paths_does_not_hash_the_model(cp_model, monkeypatch):
    hashed = []

    def counting(model):
        hashed.append(model)
        return model_hash(model)

    monkeypatch.setattr(simulate, "model_hash", counting)
    ens = simulate_paths(cp_model, [1.0], SimConfig(n_paths=16, dt=0.1, horizon=0.5, seed=5))
    assert hashed == [] and ens.model is cp_model
    assert ens.model_hash == model_hash(cp_model) and len(hashed) == 1


def test_compound_poisson_mc_matches_closed_form(cp_model):
    # State-independent jumps and constant drift make the scheme exact in
    # distribution, so only Monte Carlo noise remains.
    ens = simulate_paths(cp_model, [1.0], SimConfig(n_paths=20000, dt=1e-2, horizon=1.0, seed=6))
    for u in (-0.5, 1j):
        est = mc_transform(ens, [u])
        want = np.exp(oracles.compound_poisson_psi0(1.0, u) + u * 1.0)
        assert abs(est.value - want) < 4.0 * est.std_error


def test_state_dependent_jumps_simulated():
    m = scalar_model(a0=1.0, a=-0.5, K=[None, FiniteAtomic([0.6], [[0.5]])])
    ens = simulate_paths(m, [1.0], SimConfig(n_paths=4000, dt=2e-3, horizon=1.0, seed=8))
    assert ens.jump_counts.sum() > 0
    mean = ens.final_states.mean(axis=0)
    flow = mean_flow(m, [1.0], 1.0)
    se = ens.final_states.std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(mean[0] - flow[0]) < 4.0 * se + 0.01


def test_exponential_ray_jumps_simulated():
    m = scalar_model(a0=1.0, K=[ExponentialRay(0.8, 4.0, [1.0]), None])
    ens = simulate_paths(m, [1.0], SimConfig(n_paths=4000, dt=2e-3, horizon=1.0, seed=9))
    mean_jumps = float(ens.jump_counts.mean())
    assert abs(mean_jumps - 0.8) < 4.0 * np.sqrt(0.8 / 4000)
    mean = ens.final_states.mean(axis=0)
    flow = mean_flow(m, [1.0], 1.0)  # compensated jumps leave the mean flow
    se = ens.final_states.std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(mean[0] - flow[0]) < 4.0 * se + 0.01


def test_martingale_diagnostic_trivial(cir_model):
    cfg = SimConfig(n_paths=256, dt=1e-2, horizon=0.5, seed=2, record_times=np.linspace(0.0, 0.5, 6))
    rep = martingale_diagnostic(cir_model, [0.0], [1.0], cfg)
    assert rep.max_standardized_drift < 1e-9
    assert rep.dt_allowance == 1e-2


def test_martingale_diagnostic_gaussian(ou_model):
    rep = martingale_diagnostic(ou_model, [0.5], [0.5], SimConfig(n_paths=20000, dt=1e-3, horizon=0.5, seed=3))
    assert rep.max_standardized_drift < 4.0


def test_martingale_dt_allowance_is_the_step_taken(cir_model):
    # Two steps of 0.35 cover the horizon 0.7, not steps of the 0.3 asked for.
    rep = martingale_diagnostic(cir_model, [0.0], [1.0], SimConfig(n_paths=8, dt=0.3, horizon=0.7))
    assert rep.dt_allowance == 0.35
    assert rep.checkpoints.tolist() == [0.0, 0.35, 0.7]


@pytest.mark.parametrize("K", [
    [FiniteAtomic([2.0, -1.0], [[0.4], [0.8]]), None],
    [None, TabulatedDensity([0.5, -1e-3], [[0.4], [0.8]])],
    [ExponentialRay(-1.0, 2.0, [1.0]), None],
])
def test_negative_jump_weight_refused(K):
    # Signed weights are no intensity: jump counts would be drawn from the
    # signed total and sources from the weights clipped at 0.
    model = scalar_model(a0=1.0, a=-0.5, K=K)
    assert check_admissibility(model).min_jump_weight < 0.0
    with pytest.raises(NegativeJumpWeight, match="negative weight") as err:
        simulate_paths(model, [1.0], SimConfig(n_paths=8, dt=0.1, horizon=1.0))
    assert isinstance(err.value, ValueError)


def test_cholesky_failure_detected(bad_model):
    with pytest.raises(CholeskyFailure, match="below the clipping floor"):
        simulate_paths(bad_model, [1.0, 1.0], SimConfig(n_paths=4, dt=1e-2, horizon=0.1, seed=0))
    # For p = 1, c(x) = x on R is -1 at x0.
    with pytest.raises(CholeskyFailure, match=r"^c\(x\) = -1\.000e\+00 below the clipping floor$"):
        simulate_paths(scalar_model(A1=1.0, space=Canonical(0, 1)), [-1.0], SimConfig(n_paths=4, dt=1e-2, horizon=0.1))
    # c(x) = 1 - x >= 0 at x0 = 0.5 on R_+, but A^1 < 0, so c(x) is tested
    # at every step and turns negative inside E once a path passes 1.
    with pytest.raises(CholeskyFailure, match=r"^c\(x\) = -1\.149e-01 below the clipping floor$"):
        simulate_paths(scalar_model(a0=2.0, A0=1.0, A1=-1.0), [0.5], SimConfig(n_paths=8, dt=0.05, horizon=1.0, seed=0))


@pytest.mark.parametrize("build", [golden.wishart_2d, noisy_lorentz_model, parabolic_model])
def test_diffusion_factor_squares_to_the_shifted_c(build):
    # F read column by column from unit normals, on random members, their
    # projected boundary rows and the apex, must satisfy F F^T = c + 1e-10 I.
    model, rng = build(), np.random.default_rng(11)
    p, space = model.dim, model.state_space
    raw = rng.normal(size=(400, p)) * 1.5
    states = np.vstack([np.zeros((1, p)), space.project_batch(raw)])
    assert (space._margin_rows(states) == 0.0).sum() > 50
    n = states.shape[0]
    factor = np.stack([simulate._diffusion_increment(model.A, states, np.tile(e, (n, 1)))
                       for e in np.eye(p)], axis=2)
    c = model.A[0] + np.tensordot(states, model.A[1:], axes=(1, 0))
    gap = np.abs(factor @ factor.transpose(0, 2, 1) - (c + 1e-10 * np.eye(p))).max(axis=(1, 2))
    assert np.all(gap <= 1e-13 * (1.0 + np.abs(c).max(axis=(1, 2))))


@pytest.mark.parametrize("lowest, refused", [(-2e-10, True), (-0.5e-10, False)])
def test_c_below_the_floor_is_refused(lowest, refused):
    # On R^2, c(x) = diag(lowest x_1, 1): diag(lowest, 1) at x0, and near it
    # on every path, whose first coordinate moves by ~1e-5 at most. A^0 must
    # be positive semidefinite, so the negative entry comes from A^1.
    model = AffineModel(a0=[0.0, 0.0], a=np.zeros((2, 2)),
                        A=[np.diag([0.0, 1.0]), np.diag([lowest, 0.0]), np.zeros((2, 2))],
                        K=None, state_space=Canonical(0, 2))
    cfg = SimConfig(n_paths=8, dt=0.1, horizon=0.2, seed=1)
    if refused:
        with pytest.raises(CholeskyFailure, match=r"-2\.000e-10 below the clipping floor"):
            simulate_paths(model, [1.0, 0.0], cfg)
    else:
        assert np.all(np.isfinite(simulate_paths(model, [1.0, 0.0], cfg).states))


def test_wishart_mc_matches_bru_closed_form(wishart_model):
    # Acceptance criterion 3's rule on the matrix-valued state space:
    # |MC - transform| <= 3 SE + c_fit dt, with c_fit fitted from two steps.
    x0, dts = np.array([0.8, 0.3, 0.6]), (0.02, 0.01)
    ens = {dt: simulate_paths(wishart_model, x0, SimConfig(n_paths=2 * 10**4, dt=dt, horizon=1.0, seed=29))
           for dt in dts}
    for u in (1j * np.array([0.5, 0.3, -0.4]), 1j * np.array([-1.0, 0.6, 0.2]),
              np.array([-0.5, 0.2, -0.4]), np.array([-1.0, -0.3, -0.2])):
        want = np.exp(oracles.wishart_psi0(1.0, u) + oracles.wishart_psi(1.0, u) @ x0)
        est1, est2 = (mc_transform(ens[dt], u) for dt in dts)
        c_fit = (abs(est1.value - est2.value) + 3.0 * (est1.std_error + est2.std_error)) / (dts[0] - dts[1])
        for dt, est in zip(dts, (est1, est2)):
            assert abs(est.value - want) <= 3.0 * est.std_error + c_fit * dt, (u, dt)


def test_mc_transform_refuses_u_of_wrong_length(cir_model):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=4, dt=0.1, horizon=0.2))
    with pytest.raises(DimensionMismatch, match="u has length 2, the model has dimension 1"):
        mc_transform(ens, [1.0, 2.0])


@pytest.mark.parametrize("u", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_mc_transform_refuses_non_finite_u(cir_model, u):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=4, dt=0.1, horizon=0.2))
    with pytest.raises(ValueError, match="u must be finite"):
        mc_transform(ens, [u])


@pytest.mark.parametrize("u", [[True], np.array([False]), ["1"], [None]])
def test_mc_transform_refuses_u_that_is_no_number(cir_model, u):
    # numpy would read True as 1 and "1" as 1 + 0j.
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=4, dt=0.1, horizon=0.2))
    with pytest.raises(ValueError, match="^u must hold numbers$"):
        mc_transform(ens, u)


def test_mc_transform_overflow_is_infinite_and_quiet(cir_model):
    # exp(1000 x) overflows on every path; the suite turns a RuntimeWarning
    # into an error.
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=8, dt=0.1, horizon=0.5))
    est = mc_transform(ens, [1000.0])
    assert est.value == complex(np.inf, 0.0) and est.std_error == np.inf
    # A finite mean whose variance overflows: an infinite standard error.
    est = mc_transform(ens, [150.0])
    assert np.isfinite(est.value) and est.std_error == np.inf


@pytest.mark.parametrize("field, value", [
    ("n_paths", 2.5), ("seed", 1.5), ("threads", 2.0), ("n_paths", "8"), ("seed", True),
])
def test_counts_and_seed_must_be_integers(field, value):
    kwargs = dict(n_paths=4, dt=0.1, horizon=1.0, seed=0, threads=1)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**kwargs)
    kwargs[field] = np.int64(2)  # numpy integers are integers
    assert getattr(SimConfig(**kwargs), field) == 2


@pytest.mark.parametrize("record_times", [[0.0, float("nan")], [float("inf")], [-0.5], [1.2]])
def test_record_times_must_be_finite_and_in_range(cir_model, record_times):
    cfg = SimConfig(n_paths=4, dt=0.1, horizon=1.0, record_times=np.array(record_times))
    with pytest.raises(ValueError, match="record_times must be finite and lie in"):
        simulate_paths(cir_model, [1.0], cfg)


@pytest.mark.parametrize("record_times", [[True, "0.5"], np.array([True, False]), ["0.5"], [0.5j], [None, 0.5],
                                          [True, 0.5], (0.5, np.bool_(True)), [[0.5], [False]]])
def test_record_times_must_be_real_numbers(cir_model, record_times):
    cfg = SimConfig(n_paths=4, dt=0.1, horizon=1.0, record_times=record_times)
    with pytest.raises(ValueError, match="^record_times must hold real numbers$"):
        simulate_paths(cir_model, [1.0], cfg)


def test_a_float32_horizon_runs_in_float64(cir_model):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=64, dt=0.1, horizon=np.float32(0.3), seed=2))
    same = simulate_paths(cir_model, [1.0], SimConfig(n_paths=64, dt=0.1, horizon=float(np.float32(0.3)), seed=2))
    assert ens.config.horizon.dtype == np.float32  # the field keeps the value given
    assert ens.times.dtype == np.float64 and type(ens.dt_effective) is float
    assert np.array_equal(ens.times, same.times) and ens.dt_effective == same.dt_effective
    assert np.array_equal(ens.states, same.states) and np.array_equal(ens.sup_sq, same.sup_sq)


def test_step_count_beyond_the_key_budget_refused(cir_model):
    # horizon / dt overflows to inf, which must fail the budget check too.
    for dt, horizon in [(1e-300, 1e300), (1e-7, 1.0)]:
        with pytest.raises(ValueError, match="stream-key budget"):
            simulate_paths(cir_model, [1.0], SimConfig(n_paths=4, dt=dt, horizon=horizon))


def test_summary_csv_shape(cir_model):
    ens = simulate_paths(cir_model, [1.0], SimConfig(n_paths=32, dt=1e-2, horizon=0.5, seed=11))
    text = ensemble_summary_csv(ens)
    lines = text.strip().split("\n")
    assert lines[0] == "t,mean_1,std_1,min_1,max_1"
    assert len(lines) == ens.times.size + 1


def test_sup_moment_tracks_running_max():
    m = scalar_model(a0=1.0, space=Canonical(0, 1))
    ens = simulate_paths(m, [-0.5], SimConfig(n_paths=4, dt=1e-2, horizon=1.0, seed=0))
    # Path runs from -0.5 to 0.5; the sup of |X|^2 is attained at the start.
    assert np.isclose(sup_moment(ens), 0.25)


def test_sup_moment_growth_monitored(cir_model):
    # Finiteness plus at-most-exponential growth across doubled horizons;
    # the constant is model-dependent, so the ratio bound is loose.
    values = []
    for horizon in (0.5, 1.0, 2.0):
        ens = simulate_paths(
            cir_model, [1.0], SimConfig(n_paths=2000, dt=2e-3, horizon=horizon, seed=13)
        )
        values.append(sup_moment(ens))
    assert all(np.isfinite(v) for v in values)
    assert values[0] < values[1] < values[2]
    assert values[1] / values[0] < 20.0
    assert values[2] / values[1] < 20.0


def test_record_times_subset(cir_model):
    cfg = SimConfig(
        n_paths=8, dt=1e-2, horizon=1.0, seed=1, record_times=np.array([0.0, 0.25, 1.0])
    )
    ens = simulate_paths(cir_model, [1.0], cfg)
    assert np.allclose(ens.times, [0.0, 0.25, 1.0])
    assert ens.states.shape == (8, 3, 1)
