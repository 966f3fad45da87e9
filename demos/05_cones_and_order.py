"""Self-dual cone structure of Riccati solutions.

On a self-dual cone the solution map preserves the cone order of initial
conditions and keeps interior arguments in the interior. The matrix model
runs on 2x2 PSD matrices in scaled half-vectorized coordinates, where the
Euclidean inner product equals the trace product.
"""

import numpy as np

from affinejd.cone import cone_leq, interior_preservation_check, monotonicity_check
from affinejd.golden import cir, wishart_2d
from affinejd.statespace import Canonical, Lorentz, PSDCone, vech

print("cone orders and boundary functions:")
orth = Canonical(2, 2)
print(f"  orthant: (1,1) <= (2,1): {cone_leq(orth, [1, 1], [2, 1])}, "
      f"phi(1,2) = {orth.phi([1.0, 2.0])}")
lor = Lorentz(3)
print(f"  lorentz: 0 <= (2,1,1): {cone_leq(lor, [0, 0, 0], [2, 1, 1])}, "
      f"phi(2,1,1) = {lor.phi([2.0, 1.0, 1.0])}")
psd = PSDCone(2)
print(f"  psd: phi(vech I) = {psd.phi(vech(np.eye(2)))}")

print("\nmonotonicity of the solution map on the half line (u <= v <= 0):")
res = monotonicity_check(cir(), [-2.0], [-1.0], 1.0)
print(f"  passed={res.passed}, min psi0 gap {res.psi0_margin:.4f}, "
      f"cone slack {res.cone_slack:.1e}")

print("\nmatrix model on 2x2 PSD matrices:")
model = wishart_2d()
rng = np.random.default_rng(5)
b = rng.normal(size=(2, 2))
d = rng.normal(size=(2, 2))
v = -vech(d @ d.T)
u = v - vech(b @ b.T)
res = monotonicity_check(model, u, v, 0.8)
print(f"  monotonicity: passed={res.passed}, cone slack {res.cone_slack:.1e} "
      f"(tolerance {res.slack_tol:.1e})")
res = interior_preservation_check(model, -vech(b @ b.T + 0.1 * np.eye(2)), 1.0)
print(f"  interior preservation: passed={res.passed}, min phi along path {res.min_phi:.2e}")
