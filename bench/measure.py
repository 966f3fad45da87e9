"""The closed loop: one caller issues operations one after another, times
each public call, checks its output and counts failures by reason."""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

import workloads
from tracer import Tracer, layer_metrics

WARMUP_S = 1.5


class Runner:
    """Runs operations and records raw latencies, plus the index of the
    host-speed reading taken before each one."""

    def __init__(self, calibrator, tracer=None):
        self.calibrator = calibrator
        self.tracer = tracer
        self.latencies = []
        self.readings_before = []
        self.failures = Counter()
        self.attempted = 0
        self.path_steps = 0
        self.simulate_s = 0.0

    def run(self, op):
        self.readings_before.append(self.calibrator.maybe_measure())
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            self.latencies.append(time.perf_counter() - t0)
            self.failures[f"{op.kind}: raised {type(exc).__name__}"] += 1
            return
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        self.latencies.append(time.perf_counter() - t0)
        if isinstance(result, workloads.MCResult):
            self.path_steps += result.ensemble.n_paths * result.ensemble.n_steps
            self.simulate_s += result.simulate_s
        reason = op.check(result)
        if reason is not None:
            self.failures[reason] += 1

    def normalized(self):
        """Latencies at reference host speed. Readings are only taken between
        operations, so the one after operation i has the next index."""
        self.calibrator.measure()
        return np.array([self.calibrator.normalize(raw, k, k + 1)
                         for raw, k in zip(self.latencies, self.readings_before)])

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        """Every operation was checked and every failure is a known defect."""
        return self.attempted > 0 and all(reason in workloads.KNOWN_DEFECTS for reason in self.failures)

    def path_steps_per_s(self):
        return self.path_steps / self.simulate_s if self.simulate_s else 0.0


def _summary(latencies_s):
    lat_ms = np.asarray(latencies_s) * 1e3
    return {
        "ops_per_s": len(lat_ms) / (lat_ms.sum() * 1e-3),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
    }


def end_to_end(workload, models, seed, seconds, calibrator):
    """Untimed warm-up on another input stream, then the measured loop.

    The loop runs workloads.measured_rounds(workload, seconds) whole rounds,
    about `seconds` of wall time on the sizing host. The number of rounds
    does not depend on the host's speed or the seed, so every run holds the
    same mix of operation kinds and the same attempted count. ops_per_s
    counts operations per second spent inside the public calls, so input
    generation, checks and calibration do not dilute it. Returns the runner,
    the metrics at reference host speed, and the same metrics raw."""
    warmup = Runner(calibrator)
    deadline = time.perf_counter() + WARMUP_S
    for op in workloads.operations(workload, models, seed, stream=1):
        warmup.run(op)
        if time.perf_counter() >= deadline:
            break
    runner = Runner(calibrator)
    n_rounds = workloads.measured_rounds(workload, seconds)
    for op in workloads.operations(workload, models, seed, n_rounds=n_rounds):
        runner.run(op)
    return runner, _summary(runner.normalized()), _summary(runner.latencies)


def _plain(value):
    """numpy scalars as Python numbers, for JSON."""
    return value.item() if isinstance(value, np.generic) else value


def traced(workload, models, seed, calibrator):
    """The same fixed rounds untraced and then traced: per-layer metrics
    from the spans (raw times), and the tracing's own cost from the two
    passes at reference host speed."""
    n_rounds = workloads.TRACE_ROUNDS[workload]
    plain = Runner(calibrator)
    for op in workloads.operations(workload, models, seed, n_rounds=n_rounds):
        plain.run(op)
    plain_s = plain.normalized().sum()
    tracer = Tracer()
    tracer.install()
    runner = Runner(calibrator, tracer)
    for op in workloads.operations(workload, models, seed, n_rounds=n_rounds):
        runner.run(op)
    metrics = {k: _plain(v) for k, v in layer_metrics(tracer).items()}
    metrics["simulate.path_steps_per_s"] = plain.path_steps_per_s()
    metrics["trace.overhead_frac"] = float(runner.normalized().sum() / plain_s - 1.0)
    return runner, metrics, tracer
