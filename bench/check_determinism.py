"""Determinism self-check: the traced run's count metrics must repeat
exactly at one seed.

    python3 bench/check_determinism.py --seed 7919 [--workload NAME ...]

Runs `bench/run.py --trace 1` twice per workload and compares the counts;
exits 1 and names the metric if any differs.
"""

import argparse
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("many_u", "blowup", "mc_orthant", "mc_cone")
COUNTS = ("riccati.rhs_calls", "riccati.solve_calls", "riccati.grid_points_mean",
          "transform.ray_probes_mean", "simulate.path_steps", "statespace.project_batch_rows",
          "jumps.exp_moment_calls", "statespace.project_calls")


def counts(workload, seed):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"], capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7919)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        for name in COUNTS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:11s} {name:32s} {first[name]!r:>14} {second[name]!r:>14} {'ok' if same else 'DIFFERS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
