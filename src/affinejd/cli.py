"""Command-line front end.

Subcommands (all read a model file in the JSON schema documented in
``modelio``; outputs are JSON on stdout, or CSV where ``--csv`` applies):

    solve      --model M --u U --T T [--csv]
    explosion  --model M --u U --t-max T
    transform  --model M --u U --x X --t T
    ray        --model M --direction D --T T [--lambda-max L] [--csv]
    simulate   --model M --x0 X --n-paths N --dt DT --T T [--u U] [--csv]
    validate   --model M [--n-samples N] [--tol TOL]
    damp       --model M --u U --x X --t T --n-list 10,100,1000
    idcheck    --model M --u U --t T --n N
    cone-check --model M --check {monotonicity,interior,regularity}
               --u U [--v V] [--t T]

Complex arguments are written like ``-1+2i`` (vectors comma-separated), or
as paired ``--re``/``--im`` vectors; values starting with a minus sign need
the ``--u=-1+2i`` form; every entry must be finite. The seed of ``simulate``
and ``validate`` defaults to the AFFINE_SEED environment variable, then 0.
The Riccati solver runs at one fixed accuracy (relative tolerance 1e-10,
absolute 1e-12, blow-up radius 1e8, brackets of relative width 1e-8), so
no subcommand takes a tolerance flag. Exit codes: 0 success, 2 validation
or input error, 1 numeric failure (the diagnostic names the failing
operation). Output is standard JSON: a finite transform too large for a
float gives ``value`` null next to its exact ``log_value``. A reader that
closes the pipe early ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import cone as cone_mod
from . import modelio
from .errors import AffineError, DimensionMismatch, DivergentIntegral, ModelFormatError, StateSpaceMismatch
from .model import check_admissibility, exponential_moment_condition
from .riccati import explosion_time, k_eval, solution_to_csv, solve_riccati
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
        vec = np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ModelFormatError(f"cannot parse real vector '{text}'") from exc
    if not np.isfinite(vec).all():
        raise ModelFormatError(f"real vector '{text}' has a non-finite entry")
    return vec


def _c(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _cvec(zs):
    return [_c(z) for z in np.asarray(zs).ravel()]


def _emit(payload):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # Infinity and NaN are not standard JSON
        raise AffineError(f"output holds a non-finite number: {exc}") from exc
    print(text)


def _u_from_args(args):
    if args.u is not None:
        return parse_complex_vector(args.u)
    if args.re is not None:
        re = parse_real_vector(args.re)
        im = parse_real_vector(args.im) if args.im is not None else np.zeros_like(re)
        if re.size != im.size:
            raise ModelFormatError("--re and --im must have the same length")
        return re + 1j * im
    raise ModelFormatError("provide --u or --re/--im")


def _add_u_flags(sub):
    sub.add_argument("--u", help="complex vector, e.g. --u=-1+2i,0.3")
    sub.add_argument("--re", help="real parts (overridden by --u)")
    sub.add_argument("--im", help="imaginary parts")


def _cmd_solve(args):
    model = modelio.load_model(args.model)
    sol = solve_riccati(model, _u_from_args(args), args.T)
    if args.csv:
        sys.stdout.write(solution_to_csv(sol))
        return 0
    psi0, psi = sol.terminal()
    payload = {
        "verdict": sol.verdict,
        "t_last": sol.t_last,
        "psi0": _c(psi0),
        "psi": _cvec(psi),
        "grid_points": int(sol.grid.size),
        "stop_reason": sol.stats.stop_reason,
        "nfev": sol.stats.nfev,
        "steps_t": sol.stats.steps_t,
        "steps_s": sol.stats.steps_s,
        "rejected": sol.stats.rejected,
    }
    if sol.exploded:
        payload["bracket"] = list(sol.bracket)
    _emit(payload)
    return 0


def _cmd_explosion(args):
    model = modelio.load_model(args.model)
    res = explosion_time(model, _u_from_args(args), args.t_max)
    payload = {"verdict": res.kind, "t_max": res.t_max}
    if res.finite:
        payload["estimate"] = res.estimate
        payload["bracket"] = list(res.bracket)
    _emit(payload)
    return 0


def _cmd_transform(args):
    model = modelio.load_model(args.model)
    tv = transform(model, _u_from_args(args), parse_real_vector(args.x), args.t)
    payload = {"verdict": tv.kind}
    if tv.value is not None or tv.finite:
        payload["value"] = None if tv.value is None else _c(tv.value)  # null on overflow
    if tv.log_value is not None:
        payload["log_value"] = _c(tv.log_value)
    if tv.psi0 is not None:
        payload["psi0"] = _c(tv.psi0)
        payload["psi"] = _cvec(tv.psi)
    if tv.diagnostic:
        payload["diagnostic"] = tv.diagnostic
    _emit(payload)
    return 0


def _cmd_ray(args):
    model = modelio.load_model(args.model)
    probe = effective_domain_ray(model, parse_real_vector(args.direction), args.T, args.lambda_max)
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


def _cmd_simulate(args):
    model = modelio.load_model(args.model)
    cfg = SimConfig(
        n_paths=args.n_paths, dt=args.dt, horizon=args.T, seed=args.seed, threads=args.threads
    )
    ens = simulate_paths(model, parse_real_vector(args.x0), cfg)
    if args.csv:
        sys.stdout.write(ensemble_summary_csv(ens))
        return 0
    payload = {
        "n_paths": ens.n_paths,
        "dt": ens.dt_effective,
        "horizon": args.T,
        "seed": args.seed,
        "mean_final": [float(v) for v in ens.final_states.mean(axis=0)],
        "mean_jumps": float(ens.jump_counts.mean()),
        "sup_sq_mean": float(ens.sup_sq.mean()),
        "model_hash": ens.model_hash,
    }
    if args.u is not None or args.re is not None:
        est = mc_transform(ens, _u_from_args(args))
        payload["mc_transform"] = {
            "value": _c(est.value) if math.isfinite(est.value.real) else "infinite",
            "std_error": est.std_error if math.isfinite(est.std_error) else "infinite",
            "n_paths": est.n_paths,
        }
    _emit(payload)
    return 0


def _cmd_validate(args):
    model = modelio.load_model(args.model)
    report = check_admissibility(model, n_samples=args.n_samples, seed=args.seed, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    space = model.state_space
    k_min = math.inf
    if report.verdict:
        for _ in range(16):
            x = space.project(rng.normal(size=model.dim) * 1.5)
            y = rng.normal(size=model.dim)
            try:
                k_min = min(k_min, k_eval(model, x, y))
            except DivergentIntegral:  # y past a ray's rate
                pass
    passed = report.verdict and (k_min == math.inf or k_min >= -1e-9)
    _emit({
        "verdict": "pass" if passed else "fail",
        "admissibility": {
            "pass": report.verdict,
            "min_eigen_c": report.min_eigen_c,
            "min_jump_weight": None if math.isinf(report.min_jump_weight) else report.min_jump_weight,
            "support_violations": len(report.support_violations),
            "n_samples": report.n_samples,
            "tol": report.tol,
        },
        "k_min": None if math.isinf(k_min) else k_min,
        "exponential_moment_condition": [bool(b) for b in exponential_moment_condition(model)],
    })
    return 0 if passed else 2


def _cmd_damp(args):
    model = modelio.load_model(args.model)
    n_list = [int(v) for v in args.n_list.split(",")]
    u, x = _u_from_args(args), parse_real_vector(args.x)
    diag = damped_transform_sequence(model, u, x, args.t, n_list)
    _emit({
        "n_list": diag.n_list,
        "values": _cvec(diag.values),
        "cauchy_diffs": diag.cauchy_diffs,
    })
    return 0


def _cmd_idcheck(args):
    model = modelio.load_model(args.model)
    residual = infinite_divisibility_check(model, _u_from_args(args), args.t, args.n)
    _emit({"residual": residual, "n": args.n, "t": args.t})
    return 0


def _cmd_cone_check(args):
    model = modelio.load_model(args.model)
    u = _u_from_args(args)
    if args.check == "monotonicity":
        if args.v is None:
            raise ModelFormatError("monotonicity check needs --v")
        res = cone_mod.monotonicity_check(model, u.real, parse_complex_vector(args.v).real, args.t)
        _emit({"check": args.check, "passed": res.passed, "psi0_margin": res.psi0_margin,
               "cone_slack": res.cone_slack, "slack_tol": res.slack_tol})
        return 0 if res.passed else 2
    if args.check == "interior":
        res = cone_mod.interior_preservation_check(model, u, args.t)
        _emit({"check": args.check, "passed": res.passed, "cone_slack": res.cone_slack,
               "min_phi": res.min_phi, "slack_tol": res.slack_tol})
        return 0 if res.passed else 2
    ok = cone_mod.regularity_Lu_check(model, u.real)
    _emit({"check": "regularity", "passed": bool(ok)})
    return 0 if ok else 2


def build_parser():
    parser = argparse.ArgumentParser(prog="affinejd", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # A string default goes through type=int only when --seed is absent, so a
    # malformed AFFINE_SEED is a usage error of the subcommands that read it.
    default_seed = os.environ.get("AFFINE_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")

    p = sub.add_parser("solve", help="integrate the Riccati system")
    common(p)
    _add_u_flags(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--csv", action="store_true", help="emit the solution grid as CSV")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("explosion", help="locate the blow-up time")
    common(p)
    _add_u_flags(p)
    p.add_argument("--t-max", type=float, required=True)
    p.set_defaults(fn=_cmd_explosion)

    p = sub.add_parser("transform", help="evaluate E_x exp(u.X_t)")
    common(p)
    _add_u_flags(p)
    p.add_argument("--x", required=True, help="state, comma-separated reals")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("ray", help="effective-domain boundary along a ray")
    common(p)
    p.add_argument("--direction", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--lambda-max", type=float, default=1e6)
    p.add_argument("--csv", action="store_true", help="emit probe rows as CSV")
    p.set_defaults(fn=_cmd_ray)

    p = sub.add_parser("simulate", help="Euler Monte Carlo paths")
    common(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--n-paths", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--threads", type=int, default=1)
    _add_u_flags(p)
    p.add_argument("--csv", action="store_true", help="emit the ensemble summary as CSV")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("validate", help="admissibility and invariant suite")
    common(p)
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("damp", help="damped-jump transform sequence")
    common(p)
    _add_u_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-list", default="10,100,1000")
    p.set_defaults(fn=_cmd_damp)

    p = sub.add_parser("idcheck", help="parameter-scaling (divisibility) residual")
    common(p)
    _add_u_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_idcheck)

    p = sub.add_parser("cone-check", help="self-dual cone checks")
    common(p)
    p.add_argument("--check", required=True, choices=["monotonicity", "interior", "regularity"])
    _add_u_flags(p)
    p.add_argument("--v", help="upper argument for the monotonicity check")
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(fn=_cmd_cone_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
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
