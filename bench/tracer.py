"""Spans around the library's public functions, installed from outside the
package for the traced run, and the per-layer metrics computed from them.

A span has a name, start and end times, the index of its parent span (-1 at
the top of an operation) and the operation number; a few span kinds also
keep a small record taken from the call's result. The columns are kept in
memory as typed arrays, since a traced run makes some 10^5 right-hand-side
calls, and written out as one .npz file when the run ends. Outside an
operation (input generation, reference values, checks) the wrappers record
nothing.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

import workloads
from affinejd import cone, jumps, riccati, simulate, statespace
from affinejd import transform as transform_mod


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.info = {}
        self._stack = []
        self.op = None

    def wrap(self, name, fn, info=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.info[idx] = {"error": type(exc).__name__}
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if info is not None:
                self.info[idx] = info(args, out)
            return out

        return traced

    def install(self):
        """Replace the public entry points with traced wrappers.

        solve_riccati is imported by name into transform, cone and simulate,
        so each binding is replaced; riccati_rhs is looked up through the
        riccati module globals; exp_moment, project and project_batch are
        methods and are replaced on every class that defines them.
        """
        solve = self.wrap("riccati.solve_riccati", riccati.solve_riccati, _solve_info)
        for module in (riccati, transform_mod, cone, simulate):
            module.solve_riccati = solve
        riccati.riccati_rhs = self.wrap("riccati.riccati_rhs", riccati.riccati_rhs)
        for cls in _subclasses(jumps.JumpMeasure):
            if "exp_moment" in vars(cls):
                cls.exp_moment = self.wrap("jumps.exp_moment", vars(cls)["exp_moment"])
        for cls in _subclasses(statespace.StateSpace):
            if "project" in vars(cls):
                cls.project = self.wrap("statespace.project", vars(cls)["project"])
            if "project_batch" in vars(cls):
                cls.project_batch = self.wrap("statespace.project_batch", vars(cls)["project_batch"],
                                              lambda args, out: {"rows": int(len(args[1]))})
        entry_points = {
            "transform": ("transform.transform", None),
            "effective_domain_ray": ("transform.effective_domain_ray", _ray_info),
            "explosion_time": ("riccati.explosion_time", None),
            "monotonicity_check": ("cone.monotonicity_check", None),
            "interior_preservation_check": ("cone.interior_preservation_check", None),
            "simulate_paths": ("simulate.simulate_paths", _simulate_info),
            "mc_transform": ("simulate.mc_transform", None),
        }
        for attr, (name, info) in entry_points.items():
            setattr(workloads, attr, self.wrap(name, getattr(workloads, attr), info))

    def columns(self):
        return {
            "name_id": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_of, dtype=np.int32),
        }

    def write(self, path):
        """Columns plus the name table (name_id indexes it) and the result
        records as JSON keyed by span index."""
        info = json.dumps({str(k): v for k, v in self.info.items()})
        np.savez(path, names=np.array(self.names), info=np.array(info), **self.columns())


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _solve_info(args, sol):
    return {"grid": int(sol.grid.size), "exploded": bool(sol.exploded)}


def _ray_info(args, ray):
    width = 0.0 if ray.bracket is None else (ray.bracket[1] - ray.bracket[0]) / ray.bracket[1]
    errors = sum(1 for _, estimate, kind in ray.probes if estimate is None and kind != "exceeds_horizon")
    return {"probes": len(ray.probes), "probe_errors": errors, "rel_width": float(width)}


def _simulate_info(args, ens):
    return {"path_steps": int(ens.n_paths * ens.n_steps), "jumps": int(ens.jump_counts.sum())}


def layer_metrics(tracer):
    """Per-layer counts and times. Self time is a span's duration minus the
    durations of its direct children (spans of one thread nest)."""
    cols = tracer.columns()
    name = np.array(tracer.names)[cols["name_id"]]
    parent = cols["parent"]
    dur = cols["end"] - cols["start"]
    nested = parent >= 0
    child = np.zeros(dur.size)
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    parent_name = np.where(nested, name[np.maximum(parent, 0)], "")

    def idx(*names):
        return np.flatnonzero(np.isin(name, names))

    def info(rows, key):
        return [tracer.info[i][key] for i in rows if key in tracer.info.get(i, {})]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rhs = idx("riccati.riccati_rhs")
    solves = idx("riccati.solve_riccati")
    grids = info(solves, "grid")
    moments = idx("jumps.exp_moment")
    tf = idx("transform.transform", "transform.effective_domain_ray")
    rays = idx("transform.effective_domain_ray")
    checks = idx("cone.monotonicity_check", "cone.interior_preservation_check")
    project = np.flatnonzero((name == "statespace.project") & (parent_name != "statespace.project_batch"))
    batch = idx("statespace.project_batch")
    rows = sum(info(batch, "rows"))
    sims = idx("simulate.simulate_paths")
    path_steps = sum(info(sims, "path_steps"))
    return {
        "riccati.rhs_calls": rhs.size,
        "riccati.rhs_s": dur[rhs].sum(),
        "riccati.rhs_us_per_call": per(dur[rhs].sum(), rhs.size, 1e6),
        "riccati.solve_calls": solves.size,
        "riccati.solve_self_s": self_time[solves].sum(),
        "riccati.grid_points_mean": per(sum(grids), len(grids)),
        "riccati.exploded_frac": per(sum(info(solves, "exploded")), len(grids)),
        "riccati.errors": solves.size - len(grids),
        "jumps.exp_moment_calls": moments.size,
        "jumps.exp_moment_s": dur[moments].sum(),
        "transform.calls": tf.size,
        "transform.self_s": self_time[tf].sum(),
        "transform.ray_s": dur[rays].sum(),
        "transform.ray_probes_mean": per(sum(info(rays, "probes")), len(info(rays, "probes"))),
        "transform.ray_probe_errors": sum(info(rays, "probe_errors")),
        "transform.ray_bracket_rel_width_max": max(info(rays, "rel_width"), default=0.0),
        "cone.check_calls": checks.size,
        "cone.self_s": self_time[checks].sum(),
        "statespace.project_calls": project.size,
        "statespace.project_s": dur[project].sum(),
        "statespace.project_batch_calls": batch.size,
        "statespace.project_batch_rows": rows,
        "statespace.project_batch_s": dur[batch].sum(),
        "statespace.project_batch_us_per_row": per(dur[batch].sum(), rows, 1e6),
        "simulate.path_steps": path_steps,
        "simulate.simulate_s": dur[sims].sum(),
        "simulate.self_s": self_time[sims].sum(),
        "simulate.self_ns_per_path_step": per(self_time[sims].sum(), path_steps, 1e9),
        "simulate.jumps_per_path_step": per(sum(info(sims, "jumps")), path_steps),
        "simulate.mc_transform_s": dur[idx("simulate.mc_transform")].sum(),
    }


LAYER_UNITS = {
    "riccati.rhs_calls": "count",
    "riccati.rhs_s": "s",
    "riccati.rhs_us_per_call": "us",
    "riccati.solve_calls": "count",
    "riccati.solve_self_s": "s",
    "riccati.grid_points_mean": "count",
    "riccati.exploded_frac": "fraction",
    "riccati.errors": "count",
    "jumps.exp_moment_calls": "count",
    "jumps.exp_moment_s": "s",
    "transform.calls": "count",
    "transform.self_s": "s",
    "transform.ray_s": "s",
    "transform.ray_probes_mean": "count",
    "transform.ray_probe_errors": "count",
    "transform.ray_bracket_rel_width_max": "fraction",
    "cone.check_calls": "count",
    "cone.self_s": "s",
    "statespace.project_calls": "count",
    "statespace.project_s": "s",
    "statespace.project_batch_calls": "count",
    "statespace.project_batch_rows": "count",
    "statespace.project_batch_s": "s",
    "statespace.project_batch_us_per_row": "us",
    "simulate.path_steps": "count",
    "simulate.path_steps_per_s": "1/s",
    "simulate.simulate_s": "s",
    "simulate.self_s": "s",
    "simulate.self_ns_per_path_step": "ns",
    "simulate.jumps_per_path_step": "count",
    "simulate.mc_transform_s": "s",
    "modelio.load_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_frac": "fraction",
}
