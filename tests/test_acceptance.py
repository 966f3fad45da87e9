"""Acceptance gate: every criterion runs at its stated tolerance and runtime
budget and prints one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np

import oracles
from affinejd import golden
from affinejd.cone import interior_preservation_check, monotonicity_check
from affinejd.model import check_admissibility
from affinejd.modelio import load_model
from affinejd.riccati import (
    explosion_time,
    flow_identity_residual,
    solve_riccati,
    variation_of_constants_residual,
)
from affinejd.simulate import SimConfig, martingale_diagnostic, mc_transform, simulate_paths
from affinejd.statespace import vech
from affinejd.transform import damped_transform_sequence, infinite_divisibility_check, transform

SEED = 20240817


class Criterion:
    """Collects check failures, times the body, prints one summary line."""

    def __init__(self, num, label, limit_s):
        self.num = num
        self.label = label
        self.limit = limit_s
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, cond, msg):
        if not cond:
            self.failures.append(msg)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        ok = not self.failures and elapsed < self.limit
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.num:2d} {status} ({elapsed:6.2f}s / {self.limit:.0f}s) {self.label}")
        for msg in self.failures[:8]:
            print(f"    - {msg}")
        assert not self.failures, self.failures
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s over the {self.limit}s budget"


def test_criterion_01_squared_scalar_reproduction(squared_model):
    c = Criterion(1, "scalar psi'=psi^2: closed form and blow-up times", 1.0)
    for u in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0):
        horizon = 0.95 / u if u > 0 else 3.0
        sol = solve_riccati(squared_model, [u], horizon)
        c.check(sol.verdict == "solved", f"u={u}: unexpected verdict {sol.verdict}")
        for t in np.linspace(horizon / 9.0, horizon, 9):
            want = oracles.cir_psi(t, u)
            got = sol.eval(t)[1][0]
            c.check(abs(got - want) <= 1e-8 * abs(want), f"u={u}, t={t:.3f}: psi off")
    for u in (0.5, 1.0, 2.0, 5.0):
        res = explosion_time(squared_model, [u], 10.0)
        c.check(res.finite and abs(res.estimate - 1.0 / u) <= 1e-6,
                f"u={u}: explosion estimate {getattr(res, 'estimate', None)}")
    for u in (0.0, -1.0, -4.0):
        res = explosion_time(squared_model, [u], 10.0)
        c.check(res.kind == "exceeds_horizon" and res.t_max == 10.0,
                f"u={u}: expected ExceedsHorizon(10)")
    c.finish()


def test_criterion_02_closed_form_oracle_suite(cir_model, ou_model, cp_model):
    c = Criterion(2, "closed-form oracles: cir, ou, compound poisson", 1.0)
    for u in (0.5, -1.0, 0.2 + 0.3j):
        sol = solve_riccati(cir_model, [u], 1.0)
        for t in (0.3, 0.7, 1.0):
            if u == 0.5 and t == 1.0 or abs(u * t) < 0.95:
                psi0, psi = sol.eval(t)
                c.check(abs(psi[0] - oracles.cir_psi(t, u)) <= 1e-8 * (1 + abs(psi[0])),
                        f"cir psi u={u} t={t}")
                c.check(abs(psi0 - oracles.cir_psi0(t, u)) <= 1e-8 * (1 + abs(psi0)),
                        f"cir psi0 u={u} t={t}")
    for u in (0.5, -2.0, 1.0 + 2.0j):
        sol = solve_riccati(ou_model, [u], 2.5)
        for t in (0.25, 1.0, 2.5):
            psi0, psi = sol.eval(t)
            c.check(abs(psi[0] - oracles.ou_psi(t, u)) <= 1e-8 * (1 + abs(psi[0])),
                    f"ou psi u={u} t={t}")
            c.check(abs(psi0 - oracles.ou_psi0(t, u)) <= 1e-8 * (1 + abs(psi0)),
                    f"ou psi0 u={u} t={t}")
    for u in (-0.5, 0.3, 1.0j, -1.0 + 2.0j):
        sol = solve_riccati(cp_model, [u], 1.5)
        for t in (0.5, 1.0, 1.5):
            psi0, psi = sol.eval(t)
            c.check(abs(psi[0] - u) <= 1e-8 * (1 + abs(u)), f"cp psi u={u} t={t}")
            want = oracles.compound_poisson_psi0(t, u)
            c.check(abs(psi0 - want) <= 1e-8 * (1 + abs(want)), f"cp psi0 u={u} t={t}")
    c.finish()


U_PANEL = (0.3, -1.0, 0.5j, 1.0j)


def test_criterion_03_mc_ode_agreement(cir_model, cp_model):
    c = Criterion(3, "MC vs ODE transform with fitted dt allowance", 60.0)
    for name, model in (("cir", cir_model), ("compound_poisson", cp_model)):
        ens = {}
        for dt in (1e-3, 5e-4):
            ens[dt] = simulate_paths(
                model, [1.0], SimConfig(n_paths=10**5, dt=dt, horizon=1.0, seed=SEED)
            )
        for u in U_PANEL:
            est1 = mc_transform(ens[1e-3], [u])
            est2 = mc_transform(ens[5e-4], [u])
            tv = transform(model, [u], [1.0], 1.0)
            # Fitted weak-order-1 constant; the fit absorbs its own noise.
            c_fit = (abs(est1.value - est2.value) + 3.0 * (est1.std_error + est2.std_error)) / 5e-4
            err = abs(est1.value - tv.value)
            bound = 3.0 * est1.std_error + c_fit * 1e-3
            c.check(err <= bound, f"{name} u={u}: err {err:.2e} > bound {bound:.2e}")
            err2 = abs(est2.value - tv.value)
            bound2 = 3.0 * est2.std_error + c_fit * 5e-4
            c.check(err2 <= bound2, f"{name} u={u} (dt/2): err {err2:.2e} > {bound2:.2e}")
    c.finish()


def test_criterion_04_martingale_diagnostic(cir_model, ou_model, cp_model):
    c = Criterion(4, "martingale diagnostic below 4 at 10 checkpoints", 60.0)
    for name, model, x0 in (("cir", cir_model, [1.0]), ("ou", ou_model, [0.5]),
                            ("compound_poisson", cp_model, [1.0])):
        rep = martingale_diagnostic(model, [0.5], x0, SimConfig(n_paths=10**5, dt=1e-3, horizon=0.5, seed=SEED))
        c.check(rep.max_standardized_drift < 4.0,
                f"{name}: standardized drift {rep.max_standardized_drift:.2f}")
    c.finish()


def _random_state(model, rng):
    return model.state_space.project(rng.normal(size=model.dim) * 1.5)


def _random_real_u(name, model, rng, t_cap):
    if name == "cir":
        return np.array([rng.uniform(-1.5, 0.6 / t_cap)])
    if name == "ou":
        return np.array([rng.uniform(-2.0, 2.0)])
    if name == "compound_poisson":
        return np.array([rng.uniform(-2.0, 1.2)])
    if name == "wishart_2d":
        b = rng.normal(size=(2, 2)) * 0.6
        return -vech(b @ b.T)
    return rng.normal(size=model.dim)  # lorentz: linear system, never explodes


GOLDEN_FIVE = ("cir", "ou", "compound_poisson", "wishart_2d", "lorentz")


def test_criterion_05_variation_of_constants():
    c = Criterion(5, "variation-of-constants residual < 1e-6 on 50 draws", 10.0)
    rng = np.random.default_rng(SEED)
    for name in GOLDEN_FIVE:
        model = load_model(golden.MODELS_DIR / f"{name}.json")
        for _ in range(10):
            t = rng.uniform(0.2, 1.2)
            u = _random_real_u(name, model, rng, t)
            x = _random_state(model, rng)
            res = variation_of_constants_residual(model, u, x, t)
            c.check(res < 1e-6, f"{name}: residual {res:.2e} at t={t:.2f}")
    c.finish()


def test_criterion_06_flow_semigroup():
    c = Criterion(6, "flow semigroup residual < 1e-7 on 100 draws per model", 10.0)
    rng = np.random.default_rng(SEED + 1)
    for name in GOLDEN_FIVE:
        model = load_model(golden.MODELS_DIR / f"{name}.json")
        for _ in range(100):
            s = rng.uniform(0.05, 0.5)
            t = rng.uniform(0.05, 0.5)
            u = _random_real_u(name, model, rng, s + t) + 1j * rng.normal(size=model.dim)
            res = flow_identity_residual(model, u, s, t)
            c.check(res < 1e-7, f"{name}: residual {res:.2e} (s={s:.2f}, t={t:.2f})")
    c.finish()


def test_criterion_07_damping_convergence(cp_model):
    c = Criterion(7, "damped-jump transform converges monotonically", 5.0)
    for u in (np.array([-1.0 + 2.0j]), np.array([2.0j]), np.array([-0.5 + 0.0j])):
        undamped = transform(cp_model, u, [1.0], 1.0)
        diag = damped_transform_sequence(cp_model, u, [1.0], 1.0, [10, 100, 1000])
        errs = [abs(v - undamped.value) for v in diag.values]
        c.check(errs[0] > errs[1] > errs[2], f"u={u}: errors not decreasing {errs}")
        c.check(errs[2] < 10.0 * errs[1], f"u={u}: n=1000 error not within 10x of n=100")
    c.finish()


def test_criterion_08_divisibility_scaling(cir_model, ou_model):
    c = Criterion(8, "parameter-scaling residual < 1e-8 for n in {2,5,10}", 5.0)
    for n in (2, 5, 10):
        res = infinite_divisibility_check(cir_model, [0.2], 0.4, n)
        c.check(res < 1e-8, f"cir n={n}: residual {res:.2e}")
        res = infinite_divisibility_check(ou_model, [0.5], 0.8, n)
        c.check(res < 1e-8, f"ou n={n}: residual {res:.2e}")
    c.finish()


def test_criterion_09_cone_properties(cir_model, wishart_model):
    c = Criterion(9, "cone monotonicity/interior checks and |cf| <= 1", 30.0)
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        lo = -np.abs(rng.normal()) - 0.05
        hi = lo + np.abs(rng.normal() * 0.8)
        u, v = np.array([lo]), np.array([min(hi, -0.0)])
        res = monotonicity_check(cir_model, u, v, rng.uniform(0.3, 1.5))
        c.check(res.passed, f"orthant monotonicity failed at u={lo:.2f}, v={v[0]:.2f}")
    for _ in range(100):
        b = rng.normal(size=(2, 2)) * 0.7
        d = rng.normal(size=(2, 2)) * 0.7
        v = -vech(d @ d.T)
        u = v - vech(b @ b.T)
        res = monotonicity_check(wishart_model, u, v, rng.uniform(0.3, 1.0))
        c.check(res.passed, "psd monotonicity failed")
    for _ in range(100):
        u = np.array([-np.abs(rng.normal()) - 0.02])
        res = interior_preservation_check(cir_model, u, rng.uniform(0.5, 3.0))
        c.check(res.passed, f"orthant interior failed at u={u[0]:.2f}")
    for _ in range(100):
        b = rng.normal(size=(2, 2)) * 0.7
        u = -vech(b @ b.T + rng.uniform(0.02, 0.3) * np.eye(2))
        res = interior_preservation_check(wishart_model, u, rng.uniform(0.3, 1.0))
        c.check(res.passed, "psd interior failed")
    for model, n_draws in ((cir_model, 500), (wishart_model, 500)):
        for _ in range(n_draws):
            y = rng.normal(size=model.dim) * 2.0
            x = _random_state(model, rng)
            t = rng.uniform(0.1, 1.2)
            tv = transform(model, 1j * y, x, t)
            c.check(tv.finite and abs(tv.value) <= 1.0 + 1e-9,
                    f"characteristic bound violated: |value|={abs(tv.value):.12f}")
    c.finish()


def test_criterion_10_negative_fixture(bad_model):
    c = Criterion(10, "planar indefinite fixture fails admissibility", 5.0)
    report = check_admissibility(bad_model, n_samples=200, seed=SEED)
    c.check(not report.verdict, "fixture unexpectedly passed")
    c.check(report.min_eigen_c < 0.0, f"min eigenvalue {report.min_eigen_c} not negative")
    c.check(report.argmin_eigen_x is not None and np.linalg.norm(report.argmin_eigen_x) > 1e-10,
            "negative eigenvalue not witnessed at a nonzero sampled state")
    c.finish()
