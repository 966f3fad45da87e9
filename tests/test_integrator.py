"""The own DOP853 stepper and Brent root against the scipy code they were
transliterated from: the vendored tableau, the roots and the accepted steps
must agree bit for bit. Also: the package's import path stays free of scipy,
and the functions that import scipy on first use still work."""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from affinejd import golden, integrator, riccati
from affinejd.riccati import ABS_TOL, R_MAX, REL_TOL, riccati_rhs

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tableau_is_scipys_bit_for_bit():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(integrator, name) == getattr(dop853_coefficients, name)
    for name in ("A", "B", "C", "E3", "E5", "D"):
        own, ref = getattr(integrator, name), getattr(dop853_coefficients, name)
        assert own.dtype == ref.dtype and np.array_equal(own.view(np.uint64), ref.view(np.uint64))
    n = integrator.N_STAGES
    for (row, c), s in zip(integrator._STAGE_ROWS, range(1, n)):
        assert np.array_equal(row, ScipyDOP853.A[s, :s]) and c == ScipyDOP853.C[s]
    for (row, c), s in zip(integrator._EXTRA_ROWS, range(n + 1, integrator.N_STAGES_EXTENDED)):
        assert np.array_equal(row, ScipyDOP853.A_EXTRA[s - n - 1, :s]) and c == ScipyDOP853.C_EXTRA[s - n - 1]
    assert integrator.ERROR_EXPONENT == -1 / (ScipyDOP853.error_estimator_order + 1)


def outcome(fn, *args, **kwargs):
    try:
        x = fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__
    return x.hex()


def test_brentq_matches_scipy_bit_for_bit():
    TOLS = dict(xtol=integrator.ROOT_TOL, rtol=integrator.ROOT_TOL)
    rng = np.random.default_rng(20240917)
    families = [
        lambda c, s: lambda x: s * (x - c),
        lambda c, s: lambda x: math.tanh(s * (x - c)) + 0.1 * (x - c) ** 3,
        lambda c, s: lambda x: math.exp(s * (x - c)) - 1.0,
        lambda c, s: lambda x: s * (x - c) ** 3,
        lambda c, s: lambda x: 1e-200 * (x - c),  # products of values underflow
        lambda c, s: lambda x: 1e250 * math.atan(x - c),
    ]
    cases = 0
    for k in range(600):
        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
        f = families[k % len(families)](c, s)
        a, b = c - rng.uniform(0.01, 4.0), c + rng.uniform(0.01, 4.0)
        for lo, hi in ((a, b), (b, a)):
            assert outcome(integrator.brentq, f, lo, hi) == outcome(scipy_brentq, f, lo, hi, **TOLS)
            cases += 1
    # Roots at an end, no sign change and a NaN value.
    edge = [(lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0), (lambda x: x + 1.0, 0.0, 1.0),
            (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)]
    for f, lo, hi in edge:
        assert outcome(integrator.brentq, f, lo, hi) == outcome(scipy_brentq, f, lo, hi, **TOLS)
    assert cases == 1200


def counted(fun):
    def wrapped(t, y):
        wrapped.calls += 1
        return fun(t, y)

    wrapped.calls = 0
    return wrapped


def lockstep(fun, y0, t_bound, first_step, radius, max_steps=2000, scipy_fun=None):
    """Step the own stepper on fun and scipy's on scipy_fun (default fun)
    side by side from the same first step; every accepted step must be the
    same floats, after the same number of right-hand-side calls and rejected
    attempts."""
    own_fun, ref_fun = counted(fun), counted(scipy_fun or fun)
    own = integrator.DOP853(own_fun, 0.0, y0, t_bound, REL_TOL, ABS_TOL, first_step)
    ref = ScipyDOP853(ref_fun, 0.0, y0, t_bound, rtol=REL_TOL, atol=ABS_TOL, first_step=first_step)
    assert own_fun.calls == ref_fun.calls and own.h_abs == ref.h_abs
    rejected = 0
    for steps in range(1, max_steps + 1):
        nfev = ref.nfev
        ok = own.step()
        ref.step()
        assert ok == (ref.status != "failed")
        attempts = (ref.nfev - nfev) // integrator.N_STAGES
        rejected += attempts - ok
        assert own_fun.calls == ref_fun.calls and own.rejected == rejected
        if not ok:
            return steps, "failed"
        assert (own.t_old, own.t, own.h_abs) == (ref.t_old, ref.t, ref.h_abs)
        assert np.array_equal(own.y, ref.y) and np.array_equal(own.f, ref.f)
        assert np.array_equal(own.K, ref.K)
        assert own.finished == (ref.status == "finished")
        if own.finished:
            return steps, "finished"
        if np.linalg.norm(own.y[2:]) > radius:
            return steps, "radius"
    raise AssertionError("no end within max_steps")


def packed(model):
    def fun(t, y):
        return riccati_rhs(model, y.view(complex)[1:]).view(float)

    return fun


def riccati_first_step(fun, y0, horizon):
    # The first step solve_riccati takes: the rule on the whole state and on
    # the psi block alone.
    return integrator.select_initial_step(
        fun, 0.0, y0, horizon, fun(0.0, y0), REL_TOL, ABS_TOL, (slice(None), slice(2, None))
    )


@pytest.mark.parametrize("name, u", [
    ("cir", [0.5]), ("cir", [-1.0 + 3.0j]), ("ou", [0.3 - 1.0j]), ("compound_poisson", [0.7 + 2.0j]),
    ("wishart_2d", [-0.4, 0.1j, -0.3]), ("lorentz_drift", [0.2, 0.1, -0.1j]),
    ("nonadmissible_2d", [0.3, -0.2j]),
])
def test_stepper_matches_scipy_step_for_step(name, u):
    model = getattr(golden, name)()
    fun = packed(model)
    y0 = np.concatenate([[0.0], np.asarray(u, dtype=complex)]).view(float)
    first = riccati_first_step(fun, y0, 1.5)
    assert lockstep(fun, y0, 1.5, first, R_MAX)[1] == "finished"


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0, 5.0])
def test_stepper_matches_scipy_step_for_step_on_blow_up(squared_model, u):
    # y' = y^2 up to |y| = 1e8, from riccati's first step and from the
    # stepper's own first-step rule.
    fun = packed(squared_model)
    y0 = np.array([0.0, 0.0, u, 0.0])
    first = riccati_first_step(fun, y0, 10.0)
    for first_step in (first, None):
        steps, end = lockstep(fun, y0, 10.0, first_step, R_MAX)
        assert end == "radius" and steps > 20


@pytest.mark.parametrize("name, u, horizon", [
    ("squared_scalar", [0.5], 10.0), ("squared_scalar", [1.0], 10.0), ("squared_scalar", [2.0], 10.0),
    ("squared_scalar", [5.0], 10.0), ("cir", [-1.0 + 3.0j], 1.5), ("cir", [0.5 + 0.2j], 1.5),
    ("ou", [0.3 - 1.0j], 1.5), ("ou", [-2.0 + 7.0j], 1.5),
])
def test_scalar_stages_match_scipy_on_the_kernel_step_for_step(name, u, horizon):
    # The own stepper on the scalar phase-1 stage of a p = 1 model without
    # jumps, scipy's on riccati_rhs, from riccati's first step and from each
    # stepper's own first-step rule: the same steps, bit for bit.
    model = getattr(golden, name)()
    fun = riccati._scalar_stages(model, R_MAX)[0]
    y0 = np.concatenate([[0.0], np.asarray(u, dtype=complex)]).view(float)
    end = "radius" if name == "squared_scalar" else "finished"
    for first_step in (riccati_first_step(fun, y0, horizon), None):
        steps, stop = lockstep(fun, y0, horizon, first_step, R_MAX, scipy_fun=packed(model))
        assert stop == end and steps > 5


def test_a_given_first_derivative_takes_the_same_steps():
    # A run handed f0 = fun(t0, y0) takes the steps of a run that computes
    # it, bit for bit, and counts the call all the same; each run's nfev is
    # the calls it made, including the interpolant of an event step.
    for model, u, horizon in ((golden.cir(), [0.5 + 0.2j], 1.5), (golden.squared_scalar(), [2.0], 10.0)):
        fun = packed(model)
        y0 = np.concatenate([[0.0], np.asarray(u, dtype=complex)]).view(float)
        events = [lambda t, y: np.linalg.norm(y[2:]) - 1e3]
        runs = []
        for f0 in (None, fun(0.0, y0)):
            counted_fun = counted(fun)
            run = integrator.DOP853(counted_fun, 0.0, y0, horizon, REL_TOL, ABS_TOL, core=slice(2, None), f0=f0)
            run.advance(events)
            assert run.nfev == counted_fun.calls + (f0 is not None)
            runs.append(run)
        own, given = runs
        assert own.nfev == given.nfev and own.rejected == given.rejected and own.event == given.event
        assert own.grid.tobytes() == given.grid.tobytes() and own.ys.tobytes() == given.ys.tobytes()
        assert own.n_steps > 5


def test_stepper_nan_error_shrinks_step():
    # A trial stage that returns NaN is a rejected attempt whose step
    # shrinks by MIN_FACTOR, as in scipy.
    def fun(t, y):
        return np.full(y.size, np.nan) if t > 0.3 else -y

    steps, end = lockstep(fun, np.array([1.0]), 1.0, 0.5, math.inf)
    assert end == "failed" and steps > 1


def quadrature_system(rate):
    """y = (q, c): the core c' = -c, c(0) = 1, which fun reads, and a
    quadrature q' = rate(t, c) along it, which it does not."""

    def fun(t, y):
        fun.calls += 1
        return np.array([rate(t, y[1]), -y[1]])

    fun.calls = 0
    return fun


def lossy_run(fun, t_bound, first_step=None):
    """A run of a quadrature system from (0, 1) with c as the core: the
    run, the index of the first state whose q is dropped, read as NaN (past
    the last state if none), and per step the step size and the rejected
    count that the stepper held before it. The stepper's arithmetic on a
    dropped q is the caller's to silence, as solve_riccati does."""
    y0 = np.array([0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        run = integrator.DOP853(fun, 0.0, y0, t_bound, REL_TOL, ABS_TOL, first_step, slice(1, None))
        before = []
        while not run.finished:
            before.append((run.h_abs, run.rejected))
            assert run.step()
    # One call at the start, one for the first-step rule, 12 per attempt.
    assert fun.calls == 1 + (first_step is None) + 12 * (run.n_steps + run.rejected)
    assert run.grid[-1] == t_bound
    q = run.ys[:, 0]
    drop = int(np.isfinite(q).sum())
    assert np.isfinite(q[:drop]).all() and np.isnan(q[drop:]).all()
    # Inside the steps too, q reads NaN from its drop on, without a
    # RuntimeWarning, and the core stays on its closed form.
    mid = 0.5 * (run.grid[1:] + run.grid[:-1])
    inner = np.array([run(x) for x in mid])
    assert np.isfinite(inner[:drop - 1, 0]).all() and np.isnan(inner[drop - 1:, 0]).all()
    assert np.all(np.abs(run.ys[:, 1] - np.exp(-run.grid)) <= 1e-10)
    assert np.all(np.abs(inner[:, 1] - np.exp(-mid)) <= 1e-10)
    return run, drop, before


def test_quadrature_lost_in_an_attempt():
    # Near t = 0.087 the stages of q' = e^(700 + 100 t) near the float limit
    # overflow the error estimate, while q and c stay finite. That attempt
    # is judged on c alone and accepted at the size the step had, with q
    # dropped: the drop costs no rejected attempt.
    run, drop, before = lossy_run(quadrature_system(lambda t, c: np.exp(700.0 + 100.0 * t)), 1.0, 0.01)
    h, rejected = before[drop - 1]
    assert 0.08 < run.grid[drop] < 0.09 and run.grid[drop] == run.grid[drop - 1] + h
    assert rejected == (before[drop][1] if drop < len(before) else run.rejected)
    # Up to the drop, q is on its closed form: the step control reads it.
    t = run.grid[1:drop]
    want = (np.exp(700.0 + 100.0 * t) - np.exp(700.0)) / 100.0
    assert np.all(np.abs(run.ys[1:drop, 0] - want) <= 1e-9 * want)


def test_quadrature_lost_by_accumulation():
    # q' = 1e307 (2 - c) stays finite, but q = 1e307 (2t - 1 + e^-t) passes
    # the largest float near t = 9: the accepted state that overflows reads
    # NaN, and the run goes on with c alone.
    run, drop, before = lossy_run(quadrature_system(lambda t, c: 1e307 * (2.0 - c)), 20.0, 0.01)
    t = run.grid[:drop + 1]
    w = 2.0 * t - 1.0 + np.exp(-t)  # q / 1e307
    limit = np.finfo(float).max / 1e307
    assert w[drop - 1] < limit < w[drop]
    assert np.all(np.abs(run.ys[1:drop, 0] / 1e307 - w[1:drop]) <= 1e-9 * w[1:drop])
    assert run.rejected == before[drop - 1][1]


def test_quadrature_non_finite_at_t0():
    # q' = inf from t = 0: the first-step rule rates c alone, and the run is
    # the one whose quadrature is held at q' = 0, bit for bit.
    fun = quadrature_system(lambda t, c: math.inf)
    y0 = np.array([0.0, 1.0])
    with np.errstate(invalid="ignore"):
        solver = integrator.DOP853(fun, 0.0, y0, 5.0, REL_TOL, ABS_TOL, core=slice(1, None))
        first = integrator.select_initial_step(fun, 0.0, y0, 5.0, fun(0.0, y0), REL_TOL, ABS_TOL, (slice(1, None),))
    assert solver.h_abs == first
    run, drop, _ = lossy_run(quadrature_system(lambda t, c: math.inf), 5.0)
    held, _, _ = lossy_run(quadrature_system(lambda t, c: 0.0), 5.0, first)
    assert drop == 1 and run.rejected == held.rejected
    assert np.array_equal(run.grid, held.grid) and np.array_equal(run.ys[:, 1], held.ys[:, 1])


def test_cored_first_step_rates_the_core_too():
    # q' = 1e100 dwarfs its scale, so scipy's rule on the whole state gives
    # a first step near 1e-102, where the core c alone allows ~1e-2. A cored
    # run takes the larger of both, a bare run scipy's.
    fun = quadrature_system(lambda t, c: 1e100)
    y0 = np.array([0.0, 1.0])
    f0 = fun(0.0, y0)

    def rule(*blocks):
        return integrator.select_initial_step(fun, 0.0, y0, 5.0, f0, REL_TOL, ABS_TOL, blocks)

    whole, both = rule(slice(None)), rule(slice(None), slice(1, None))
    assert 0.0 < whole < 1e-100 and both > 1e-3
    fun.calls = 0
    cored = integrator.DOP853(fun, 0.0, y0, 5.0, REL_TOL, ABS_TOL, core=slice(1, None))
    bare = integrator.DOP853(fun, 0.0, y0, 5.0, REL_TOL, ABS_TOL)
    assert cored.h_abs == both and bare.h_abs == whole and fun.calls == 4


def test_norm_is_numpys_bit_for_bit():
    # The stepper's error norm and the solver's radius tests must round as
    # np.linalg.norm does, or the step sequence moves.
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(200):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150)
            assert integrator.norm(x) == np.linalg.norm(x)
    assert math.isnan(integrator.norm(np.array([1.0, np.nan])))
    with np.errstate(over="ignore"):
        assert integrator.norm(np.array([1e200, 1.0])) == np.linalg.norm(np.array([1e200, 1.0])) == math.inf


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
                          env=env, timeout=120, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_path_loads_no_scipy():
    # The solver, simulation and cone subcommands, the last four on every
    # admissible bundled model, in one fresh interpreter: none may import
    # scipy. Per model: a state inside its space and a u inside its dual
    # cone (None where the space is not a cone).
    bundled = {"cir": ("1", "-0.5"), "ou": ("0.5", None), "compound_poisson": ("1", "-0.5"),
               "wishart_2d": ("1,0,1", "-0.5,0,-0.5"), "lorentz": ("2,0,0", "-1,0,0")}
    calls = [("cir", ["transform", "--u", "0.5+1i", "--x", "1", "--t", "1"]),
             ("cir", ["solve", "--u", "0.999", "--t", "1"]),
             ("cir", ["solve", "--u", "1", "--t", "10"])]
    for name, (x, u) in bundled.items():
        calls += [(name, ["simulate", "--x", x, "--n-paths", "8", "--dt", "0.1", "--t", "0.5"]),
                  (name, ["ray", "--direction", x, "--t", "1"]),
                  (name, ["validate", "--n-samples", "20"])]
        if u is not None:
            calls.append((name, ["cone-check", "--check", "interior", f"--u={u}"]))
    calls = [(str(REPO_ROOT / "models" / f"{name}.json"), argv) for name, argv in calls]
    out = run_fresh(f"""
        import contextlib, io, sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        import affinejd
        print("import affinejd", scipy_modules())
        import affinejd.cli
        print("import affinejd.cli", scipy_modules())
        for model, argv in {calls!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = affinejd.cli.main([argv[0], "--model", model, *argv[1:]])
            print(argv[0], code, scipy_modules())
    """)
    want = ["import affinejd []", "import affinejd.cli []"] + [f"{argv[0]} 0 []" for _, argv in calls]
    assert out.splitlines() == want


def test_lazy_scipy_imports_work_in_fresh_interpreter():
    out = run_fresh("""
        import sys
        import numpy as np
        from affinejd import golden
        from affinejd.riccati import mean_flow, variation_of_constants_residual
        from affinejd.statespace import HalfSpaceIntersection

        cir = golden.cir()
        print(abs(mean_flow(cir, [1.0], 1.0)[0] - 2.0) < 1e-12)
        print(variation_of_constants_residual(cir, [0.5], [1.0], 1.0) < 1e-7)
        box = HalfSpaceIntersection([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0])
        print(box.contains([0.5, 0.5]), not box.contains([2.0, 0.0]),
              abs(box.distance([2.0, 0.0]) - 1.0) < 1e-9, box.bounded_support([-1.0, -1.0]))
        print("scipy.optimize" in sys.modules, "scipy.linalg" in sys.modules, "scipy.integrate" in sys.modules)
    """)
    assert out.splitlines() == ["True", "True", "True True True True", "True True True"]
