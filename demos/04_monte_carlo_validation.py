"""Monte Carlo validation of the transform formula.

Euler paths with compensated jumps and projection onto the state space are
simulated from counter-based random streams (bit-reproducible, and stable
under changes of the path count). The sample mean of exp(u.X_T) must agree
with the ODE transform within Monte Carlo noise plus an O(dt) allowance,
and the transform-induced martingale must show no drift across checkpoints.
"""

from affinejd import SimConfig, martingale_diagnostic, mc_transform, simulate_paths, transform
from affinejd.golden import cir, compound_poisson

for name, model in (("square-root", cir()), ("compound poisson", compound_poisson())):
    cfg = SimConfig(n_paths=30_000, dt=1e-3, horizon=1.0, seed=11)
    ens = simulate_paths(model, [1.0], cfg)
    print(f"{name}: {ens.n_paths} paths, dt={cfg.dt}, "
          f"mean jumps per path {ens.jump_counts.mean():.3f}")
    for u in (0.3, -1.0, 1.0j):
        est = mc_transform(ens, [u])
        tv = transform(model, [u], [1.0], 1.0)
        err = abs(est.value - tv.value)
        print(f"  u={u!s:5}: MC {est.value:.5f}  ODE {tv.value:.5f}  "
              f"|err| {err:.1e}  (3 se = {3*est.std_error:.1e})")

print("\nmartingale diagnostic (standardized drift should stay below ~3-4):")
for name, model, x0 in (("square-root", cir(), [1.0]),
                        ("compound poisson", compound_poisson(), [1.0])):
    rep = martingale_diagnostic(model, [0.5], x0, SimConfig(n_paths=30_000, dt=1e-3, horizon=0.5, seed=12))
    print(f"  {name}: max standardized drift {rep.max_standardized_drift:.2f} "
          f"(dt allowance {rep.dt_allowance})")
