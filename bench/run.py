"""affinejd benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload many_u --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from
src/, the model files from models/ and the oracles from tests/oracles.py.

--trace 0 measures set-up time in fresh interpreters, warms up, then issues
operations one after another for a fixed number of rounds, sized to take
about --seconds, and reports the end-to-end metrics. --trace 1 runs a fixed
number of rounds twice, untraced and then traced, and reports the
per-layer metrics; --seconds does not apply there.
The last line of standard output is one JSON object; the lines before it
repeat the metrics with units and list failed operations by reason. Result
files and spans are written under bench/out/. See bench/README.md.
"""

import os

# Cap the thread pools before numpy is imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("many_u", "blowup", "mc_orthant", "mc_cone")
SETUP_RUNS = 5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB"}

# A fresh interpreter imports the package and loads the model files given
# as arguments; it prints the load time in seconds.
SETUP_CODE = """
import sys, time
import affinejd
from affinejd.modelio import load_model
t0 = time.perf_counter()
for path in sys.argv[1:]:
    load_model(path)
print(time.perf_counter() - t0)
"""
# The traced run measures the command-line module's import instead.
IMPORT_CODE = SETUP_CODE.replace("import affinejd\n", "import affinejd.cli\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def require_checkout():
    missing = [p for p in (SRC / "affinejd" / "__init__.py", ROOT / "models", ROOT / "tests" / "oracles.py")
               if not p.exists()]
    if missing:
        sys.exit(f"bench/run.py: not a source checkout, missing {', '.join(map(str, missing))}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(paths, calibrator):
    """Median wall time of fresh interpreters importing affinejd and loading
    the workload's model files: at reference host speed, and raw."""
    walls, raw = [], []
    for _ in range(SETUP_RUNS):
        before = calibrator.measure()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *paths], env=child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        walls.append(calibrator.normalize(raw[-1], before, calibrator.measure()))
    return statistics.median(walls), statistics.median(raw)


def measure_imports(paths):
    """Import split from `python -X importtime` in fresh processes: the
    affinejd.cli import (package included), the time spent importing scipy
    modules, and the model-file load time; medians over SETUP_RUNS."""
    cli, scipy_s, load = [], [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE, *paths],
                              env=child_env(), check=True, capture_output=True, text=True)
        cumulative, scipy_self = 0, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, raw_name = line[len("import time:"):].split("|")
            name = raw_name.strip()
            if not self_us.strip().isdigit():
                continue  # the header line
            top_level = len(raw_name) - len(raw_name.lstrip()) == 1  # deeper entries are nested
            if top_level and name in ("affinejd", "affinejd.cli"):
                cumulative += int(cum_us)
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(self_us)
        cli.append(cumulative * 1e-6)
        scipy_s.append(scipy_self * 1e-6)
        load.append(float(proc.stdout.split()[-1]))
    return {"modelio.load_s": statistics.median(load), "cli.import_s": statistics.median(cli),
            "cli.import_scipy_s": statistics.median(scipy_s)}


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "sim_threads": 1,
    }


def main(argv=None):
    args = parse_args(argv)
    require_checkout()
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import measure
    import workloads
    from calibrate import WORKLOAD_KERNEL, Calibrator
    from tracer import LAYER_UNITS

    paths = [str(ROOT / "models" / f"{name}.json") for name in workloads.MODEL_FILES[args.workload]]
    machine = machine_info()
    warnings.simplefilter("ignore", RuntimeWarning)  # exp overflow inside probes is expected
    models = workloads.load_models(ROOT, args.workload)
    calibrator = Calibrator(WORKLOAD_KERNEL[args.workload])
    OUT.mkdir(exist_ok=True)
    raw = {}
    if args.trace:
        metrics = measure_imports(paths)
        runner, layers, tracer = measure.traced(args.workload, models, args.seed, calibrator)
        metrics.update(layers)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        units = LAYER_UNITS
    else:
        setup_s, raw["setup_s"] = measure_setup(paths, Calibrator(WORKLOAD_KERNEL["setup"]))
        runner, metrics, raw_ops = measure.end_to_end(args.workload, models, args.seed, args.seconds,
                                                      calibrator)
        raw.update(raw_ops)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        if runner.simulate_s:
            raw["path_steps_per_s"] = runner.path_steps_per_s()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  operations {runner.attempted}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    slowdown = [r / calibrator.reference_s for r in calibrator.readings]
    print(f"host: calibration kernel took {min(slowdown):.2f}-{max(slowdown):.2f}x its reference time "
          f"over {len(slowdown)} readings")
    print(f"  {'metric':40s} {'value':19s} {'raw' if raw else ''}")
    for name in sorted(metrics):
        raw_value = f"{raw[name]:<14.6g}" if name in raw else ""
        print(f"  {name:40s} {metrics[name]:<19.6g} {raw_value:14s} {units[name]}")
    if "path_steps_per_s" in raw:
        print(f"  {'path_steps_per_s':40s} {'':19s} {raw['path_steps_per_s']:<14.6g} 1/s")
    print(f"  {'failed_frac':40s} {runner.failed / runner.attempted:<19.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    for reason, count in runner.failures.most_common():
        known = "  [known defect]" if reason in workloads.KNOWN_DEFECTS else ""
        print(f"    failed {count:5d}  {reason}{known}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "metrics": metrics, "raw": raw, "calibration_s": calibrator.readings,
              "attempted": runner.attempted, "failures": dict(runner.failures)}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
