"""Host-speed calibration: fixed reference work timed between operations,
so that latencies can be expressed at a reference host speed.

The host this benchmark was sized on changes speed by up to 2x over
minutes, on both CPUs alike, with CPU time tracking wall time: a neighbour's
load, not steal. A raw 15 s run cannot average that out. The kernels here
do the same kind of work as the workloads -- a Python right-hand side
driven by scipy's DOP853, or Philox draws and vector updates on a 4096-path
block -- and share no code with affinejd, so a change to the library never
moves them. Dividing an operation's latency by the kernel time measured
around it removes most of the host's drift; multiplying by the kernel's
reference time keeps the unit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.random import Generator, Philox
from scipy.integrate import solve_ivp


def _rhs(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[0] * y[0] * y[1]])


def ode_kernel():
    solve_ivp(_rhs, (0.0, 12.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)


def vector_kernel():
    x = np.ones(4096)
    for step in range(40):
        normals = Generator(Philox(key=step)).standard_normal(4096)
        x = np.maximum(x + 0.01 + 0.1 * np.sqrt(x) * normals, 0.0)


# Kernel times on the reference host (the 2-core x86_64 VM the workloads
# were sized on) when it ran at its fastest; normalized values are in that unit.
KERNELS = {"ode": (ode_kernel, 4.0e-3), "vector": (vector_kernel, 4.0e-3)}

# Which kernel's work each workload resembles. mc_cone spends its time in
# a Python loop over rows, like the ODE workloads.
WORKLOAD_KERNEL = {"many_u": "ode", "blowup": "ode", "mc_orthant": "vector", "mc_cone": "ode",
                   "setup": "ode"}

REPS = 3
EVERY_S = 0.25


class Calibrator:
    """Times the kernel (median of REPS runs) at most every EVERY_S seconds
    between operations, and converts raw times to reference-host times."""

    def __init__(self, kind):
        self.kernel, self.reference_s = KERNELS[kind]
        self.kernel()  # the first call pays lazy imports and allocation
        self.readings = []
        self._last = -float("inf")

    def measure(self):
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.readings.append(statistics.median(times))
        self._last = time.perf_counter()
        return len(self.readings) - 1

    def maybe_measure(self):
        """Index of the latest reading, taking a new one if it is due."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.measure()
        return len(self.readings) - 1

    def normalize(self, raw_s, before, after):
        """raw_s at reference speed, using the mean of the readings taken
        before and after it."""
        speed = 0.5 * (self.readings[before] + self.readings[after])
        return raw_s * self.reference_s / speed
