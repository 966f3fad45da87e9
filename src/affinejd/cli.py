"""Command-line front end.

Subcommands (all read a model file in the JSON schema documented in
``modelio``; outputs are JSON on stdout, or CSV where ``--csv`` applies):

    solve      --model M --u U --t T [--csv]
    transform  --model M --u U --x X --t T
    ray        --model M --direction D --t T [--lambda-max L] [--csv]
    simulate   --model M --x X --n-paths N --dt DT --t T [--seed S] [--u U] [--csv]
    validate   --model M [--n-samples N] [--seed S]
    damp       --model M --u U --x X --t T --n-list 10,100,1000
    idcheck    --model M --u U --t T --n N
    cone-check --model M --check {monotonicity,interior,regularity}
               --u U [--v V] [--t T]

Each flag has one spelling: the time is ``--t`` and the state ``--x``
wherever a subcommand reads them, and no prefix of a flag is accepted for
it. ``solve`` reports a blow-up: its verdict, the bracket around the
crossing of the blow-up radius, and ``t_last``, the crossing. Complex
arguments are written like ``-1+2i`` (vectors comma-separated);
values starting with a minus sign need the ``--u=-1+2i`` form; every entry
must be finite. The ``--seed`` of ``simulate`` and ``validate`` defaults to 0.
The Riccati solver runs at one fixed accuracy (relative tolerance 1e-10,
absolute 1e-12, blow-up radius 1e8, brackets of relative width 1e-8), so
no subcommand takes a tolerance flag. Exit codes: 0 success, 2 validation
or input error, 1 numeric failure (the diagnostic names the failing
operation). Output is standard JSON: a finite transform too large for a
float gives ``value`` null next to its exact ``log_value``, and where psi_0
alone left float range (``psi0_overflow`` names the time) ``psi0``,
``log_value`` and ``value`` are null. A reader that
closes the pipe early ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import cone as cone_mod
from . import modelio
from .errors import AffineError, DimensionMismatch, ModelFormatError, StateSpaceMismatch
from .model import check_admissibility, exponential_moment_condition
from .riccati import solution_to_csv, solve_riccati
from .simulate import SimConfig, ensemble_summary_csv, mc_transform, simulate_paths
from .transform import (
    damped_transform_sequence,
    effective_domain_ray,
    infinite_divisibility_check,
    transform,
)


def parse_complex_scalar(text):
    t = text.strip().replace(" ", "")
    # Only a trailing i is the imaginary unit: "inf" and "nan" keep theirs.
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        z = complex(t)
    except ValueError as exc:
        raise ModelFormatError(f"cannot parse complex number '{text}'") from exc
    if not cmath.isfinite(z):
        raise ModelFormatError(f"complex number '{text}' is not finite")
    return z


def parse_complex_vector(text):
    return np.array([parse_complex_scalar(part) for part in text.split(",")])


def parse_real_vector(text):
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ModelFormatError(f"cannot parse real vector '{text}'") from exc


def _c(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _cvec(zs):
    return [_c(z) for z in np.ravel(zs)]


def _emit(payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # Infinity and NaN are not standard JSON
        raise AffineError(f"output holds a non-finite number: {exc}") from exc
    print(text)


def _add_u_flag(sub, required=True):
    sub.add_argument("--u", required=required, help="complex vector, e.g. --u=-1+2i,0.3")


def _cmd_solve(model, args):
    sol = solve_riccati(model, parse_complex_vector(args.u), args.t)
    if args.csv:
        sys.stdout.write(solution_to_csv(sol))
        return 0
    psi0, psi = sol.terminal()
    payload = {
        **dataclasses.asdict(sol.stats),
        "verdict": sol.verdict,
        "t_last": sol.t_last,
        "psi0": None if sol.stats.psi0_overflow is not None else _c(psi0),
        "psi": _cvec(psi),
        "grid_points": int(sol.grid.size),
    }
    if sol.exploded:
        payload["bracket"] = list(sol.bracket)
    _emit(payload)
    return 0


def _cmd_transform(model, args):
    tv = transform(model, parse_complex_vector(args.u), parse_real_vector(args.x), args.t)
    payload = {"verdict": tv.kind}
    if tv.finite:  # value null on overflow; all three null where psi_0 is out of float range
        payload["value"] = None if tv.value is None else _c(tv.value)
        payload["log_value"] = None if tv.log_value is None else _c(tv.log_value)
        payload["psi0"] = None if tv.psi0 is None else _c(tv.psi0)
        payload["psi"] = _cvec(tv.psi)
    if tv.diagnostic:
        payload["diagnostic"] = tv.diagnostic
    _emit(payload)
    return 0


def _cmd_ray(model, args):
    probe = effective_domain_ray(model, parse_real_vector(args.direction), args.t, args.lambda_max)
    if args.csv:
        lines = ["lambda,t_inf_estimate,verdict"]
        for lam, est, verdict in probe.probes:
            lines.append(f"{lam!r},{'' if est is None else repr(est)},{verdict}")
        print("\n".join(lines))
        return 0
    _emit({
        "lambda_star": None if math.isinf(probe.lambda_star) else probe.lambda_star,
        "unbounded": not probe.bounded,
        "bracket": None if probe.bracket is None else list(probe.bracket),
        "horizon": probe.horizon,
        "probes": len(probe.probes),
    })
    return 0


def _cmd_simulate(model, args):
    cfg = SimConfig(n_paths=args.n_paths, dt=args.dt, horizon=args.t, seed=args.seed)
    ens = simulate_paths(model, parse_real_vector(args.x), cfg)
    if args.csv:
        sys.stdout.write(ensemble_summary_csv(ens))
        return 0
    payload = {
        "n_paths": ens.n_paths,
        "dt": ens.dt_effective,
        "horizon": args.t,
        "seed": args.seed,
        "mean_final": [float(v) for v in ens.final_states.mean(axis=0)],
        "mean_jumps": float(ens.jump_counts.mean()),
        "sup_sq_mean": float(ens.sup_sq.mean()),
        "model_hash": ens.model_hash,
    }
    if args.u is not None:
        est = mc_transform(ens, parse_complex_vector(args.u))
        payload["mc_transform"] = {
            "value": _c(est.value) if math.isfinite(est.value.real) else "infinite",
            "std_error": est.std_error if math.isfinite(est.std_error) else "infinite",
            "n_paths": est.n_paths,
        }
    _emit(payload)
    return 0


def _cmd_validate(model, args):
    report = check_admissibility(model, n_samples=args.n_samples, seed=args.seed)
    _emit({
        "verdict": "pass" if report.verdict else "fail",
        "admissibility": {
            "pass": report.verdict,
            "min_eigen_c": report.min_eigen_c,
            "min_jump_weight": None if math.isinf(report.min_jump_weight) else report.min_jump_weight,
            "support_violations": len(report.support_violations),
            "n_samples": report.n_samples,
            "tol": report.tol,
        },
        "k_min": None if math.isinf(report.k_min) else report.k_min,
        "exponential_moment_condition": [bool(b) for b in exponential_moment_condition(model)],
    })
    return 0 if report.verdict else 2


def _cmd_damp(model, args):
    n_list = [int(v) for v in args.n_list.split(",")]
    u, x = parse_complex_vector(args.u), parse_real_vector(args.x)
    diag = damped_transform_sequence(model, u, x, args.t, n_list)
    _emit({
        "n_list": diag.n_list,
        "values": _cvec(diag.values),
        "cauchy_diffs": diag.cauchy_diffs,
    })
    return 0


def _cmd_idcheck(model, args):
    residual = infinite_divisibility_check(model, parse_complex_vector(args.u), args.t, args.n)
    _emit({"residual": residual, "n": args.n, "t": args.t})
    return 0


def _cmd_cone_check(model, args):
    reads = {"monotonicity": ("--v", "--t"), "interior": ("--t",), "regularity": ()}[args.check]
    unread = [flag for flag, value in (("--v", args.v), ("--t", args.t)) if value is not None and flag not in reads]
    if unread:
        raise ModelFormatError(f"the {args.check} check does not read {' or '.join(unread)}")
    u = parse_complex_vector(args.u)
    t = 1.0 if args.t is None else args.t
    if args.check == "monotonicity":
        if args.v is None:
            raise ModelFormatError("monotonicity check needs --v")
        res = cone_mod.monotonicity_check(model, u, parse_complex_vector(args.v), t)
        _emit({"check": args.check, "passed": res.passed, "psi0_margin": res.psi0_margin,
               "cone_slack": res.cone_slack, "slack_tol": res.slack_tol})
        return 0 if res.passed else 2
    if args.check == "interior":
        res = cone_mod.interior_preservation_check(model, u, t)
        _emit({"check": args.check, "passed": res.passed, "cone_slack": res.cone_slack,
               "min_phi": res.min_phi, "slack_tol": res.slack_tol})
        return 0 if res.passed else 2
    ok = cone_mod.regularity_Lu_check(model, u)
    _emit({"check": "regularity", "passed": bool(ok)})
    return 0 if ok else 2


def build_parser():
    parser = argparse.ArgumentParser(prog="affinejd", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name, summary):
        p = subparsers.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--model", required=True, help="model JSON file")
        return p

    p = sub("solve", "integrate the Riccati system; a blow-up gives its bracket")
    _add_u_flag(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--csv", action="store_true", help="emit the solution grid as CSV")
    p.set_defaults(fn=_cmd_solve)

    p = sub("transform", "evaluate E_x exp(u.X_t)")
    _add_u_flag(p)
    p.add_argument("--x", required=True, help="state, comma-separated reals")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub("ray", "effective-domain boundary along a ray")
    p.add_argument("--direction", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambda-max", type=float, default=1e6)
    p.add_argument("--csv", action="store_true", help="emit probe rows as CSV")
    p.set_defaults(fn=_cmd_ray)

    p = sub("simulate", "Euler Monte Carlo paths")
    p.add_argument("--x", required=True)
    p.add_argument("--n-paths", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_u_flag(p, required=False)
    p.add_argument("--csv", action="store_true", help="emit the ensemble summary as CSV")
    p.set_defaults(fn=_cmd_simulate)

    p = sub("validate", "admissibility and invariant suite")
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)

    p = sub("damp", "damped-jump transform sequence")
    _add_u_flag(p)
    p.add_argument("--x", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-list", default="10,100,1000")
    p.set_defaults(fn=_cmd_damp)

    p = sub("idcheck", "parameter-scaling (divisibility) residual")
    _add_u_flag(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_idcheck)

    p = sub("cone-check", "self-dual cone checks")
    p.add_argument("--check", required=True, choices=["monotonicity", "interior", "regularity"])
    _add_u_flag(p)
    p.add_argument("--v", help="upper argument, monotonicity only")
    p.add_argument("--t", type=float, help="time, default 1; monotonicity and interior only")
    p.set_defaults(fn=_cmd_cone_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(modelio.load_model(args.model), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head -1`): stop quietly,
        # and keep the interpreter's final flush from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ModelFormatError, DimensionMismatch, StateSpaceMismatch, ValueError) as exc:
        print(f"invalid input for '{args.command}': {exc}", file=sys.stderr)
        return 2
    except AffineError as exc:
        print(f"numeric failure in '{args.command}' ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
