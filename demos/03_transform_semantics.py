"""The exponential-moment transform and its three verdicts.

Depending on the argument, E_x exp(u.X_t) is a finite number (`finite`),
infinite for a real u past its blow-up time (`explosive`), or does not
exist for a complex u whose real part Re u blows up by t (`not_integrable`,
decided by one real solve before u itself is solved). On an admissible
model a complex solution lives at least as long as the real one at Re u.
The planar fixture with indefinite diffusion breaks that rule: in
v = u_1 + i u_2 its equation is v' = v^2 / 2, so u = (0, -i) blows up at
t = 2 while Re u = 0 stays at 0, and transform raises an error instead of
asserting a value.
"""

import numpy as np

from affinejd import transform
from affinejd.errors import ExplosionBeforeHorizon
from affinejd.golden import cir, nonadmissible_2d

model = cir()
print("square-root model at x=1, t=1:")
for u in (0.0, 0.5, 0.5j, 2.0, 2.0 + 1.0j):
    tv = transform(model, [u], [1.0], 1.0)
    val = f"{tv.value:.6f}" if tv.value is not None else "-"
    print(f"  u={u!s:6} {tv.kind:14s} value={val}")
print(f"  (u=0.5 truth: 2e = {2*np.e:.6f}; Re u = 2 blows up at t=0.5 < 1)")

fixture = nonadmissible_2d()
print("\nplanar fixture, u=(0,-i) so v(0)=1 and the blow-up time is 2:")
for t in (1.5, 2.5):
    try:
        tv = transform(fixture, [0.0, -1.0j], [0.3, -0.2], t)
        print(f"  t={t}: {tv.kind} value={tv.value:.6f}")
    except ExplosionBeforeHorizon as exc:
        print(f"  t={t}: ExplosionBeforeHorizon: {exc}")
