"""Solving the generalized Riccati system and checking it against closed forms.

The scalar square-root model has R_1(y) = y^2, so psi(t) = u / (1 - u t):
an explicit solution we can hold the adaptive integrator against. The
square-root model with unit constant drift adds psi0(t) = -log(1 - u t).
"""

import numpy as np

from affinejd import solve_riccati, solution_to_csv
from affinejd.golden import cir, squared_scalar

model = squared_scalar()
print("scalar model with psi' = psi^2")
for u in (0.5, -1.0, 2.0):
    horizon = 0.9 / u if u > 0 else 2.0
    sol = solve_riccati(model, [u], horizon)
    t = horizon
    psi0, psi = sol.eval(t)
    print(f"  u={u:5.2f}: psi({t:.3f}) = {psi[0].real:.10f}   closed form {u / (1.0 - u * t):.10f}")

print("\nsquare-root diffusion with drift 1 (psi0 = -log(1 - u t))")
model = cir()
sol = solve_riccati(model, [0.5], 1.0)
psi0, psi = sol.eval(1.0)
print(f"  psi(1)  = {psi[0].real:.12f}   expected 1")
print(f"  psi0(1) = {psi0.real:.12f}   expected log 2 = {np.log(2):.12f}")
print(f"  |psi error| = {abs(psi[0] - 0.5 / (1.0 - 0.5)):.2e}, "
      f"|psi0 error| = {abs(psi0 + np.log(1.0 - 0.5)):.2e}")

print("\ndense output lets us tabulate the whole trajectory:")
for t in np.linspace(0.2, 1.0, 5):
    psi0, psi = sol.eval(t)
    print(f"  t={t:.2f}  psi={psi[0].real:.8f}  psi0={psi0.real:.8f}")

print("\nfirst CSV rows of the solution grid:")
print("\n".join(solution_to_csv(sol).split("\n")[:4]))
