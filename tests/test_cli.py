import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from affinejd.cli import build_parser, main, parse_complex_scalar, parse_complex_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment of a CLI subprocess that imports this tree's package."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_parse_complex_forms():
    assert parse_complex_scalar("0.5") == 0.5
    assert parse_complex_scalar("-1+2i") == -1 + 2j
    assert parse_complex_scalar("3i") == 3j
    assert np.array_equal(parse_complex_vector("1,2i"), np.array([1.0, 2.0j]))


def strict_json(text):
    """json.loads that refuses the non-standard constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_solve_cir(capsys, models_dir):
    code, out, _ = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"),
                           "--u", "0.5", "--t", "1")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "solved"
    assert payload["stop_reason"] == "horizon"
    assert abs(payload["psi0"]["re"] - np.log(2.0)) < 1e-6
    assert abs(payload["psi"][0]["re"] - 1.0) < 1e-6
    # One phase read at its horizon: start-up calls plus 12 per attempt.
    assert payload["steps_t"] > 0 and payload["steps_s"] == 0
    assert payload["nfev"] == 2 + 12 * (payload["steps_t"] + payload["rejected"])


def test_solve_csv(capsys, models_dir):
    code, out, _ = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"),
                           "--u", "0.5", "--t", "1", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,re_psi0,im_psi0,re_psi_1,im_psi_1"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.0, 0.0, 0.5, 0.0]


def test_solve_exploding_stop_reason(capsys, models_dir):
    code, out, _ = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"),
                           "--u", "1", "--t", "10")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "exploded" and payload["stop_reason"] == "radius"
    assert payload["steps_t"] > 0 and payload["steps_s"] > 0 and payload["rejected"] > 0
    assert payload["nfev"] > 12 * (payload["steps_t"] + payload["steps_s"] + payload["rejected"])


def test_transform_overflow_is_standard_json(capsys, models_dir):
    # exp(psi0 + psi x) = exp(9002.3...) overflows: value is null and the
    # exponent travels in log_value.
    code, out, _ = run_cli(capsys, "transform", "--model", str(models_dir / "cir.json"),
                           "--u", "0.9", "--x", "1000", "--t", "1")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "finite"
    assert payload["value"] is None
    assert abs(payload["log_value"]["re"] - (np.log(10.0) + 9000.0)) < 1e-5


def test_psi0_overflow_is_standard_json(capsys, models_dir):
    # R_0(1000) ~ 0.25 e^800 overflows while psi = 1000 stays constant: the
    # moment is finite, and psi_0 and the value are null.
    args = ("--model", str(models_dir / "compound_poisson.json"), "--u", "1000")
    code, out, _ = run_cli(capsys, "solve", *args, "--t", "1")
    payload = strict_json(out)
    assert code == 0 and payload["verdict"] == "solved" and payload["stop_reason"] == "horizon"
    assert payload["psi0"] is None and payload["psi0_overflow"] == 0.0
    assert payload["psi"] == [{"re": 1000.0, "im": 0.0}]
    code, out, _ = run_cli(capsys, "transform", *args, "--x", "1", "--t", "1")
    payload = strict_json(out)
    assert code == 0 and payload["verdict"] == "finite"
    assert payload["value"] is None and payload["log_value"] is None and payload["psi0"] is None
    assert "t=0.0" in payload["diagnostic"]


def test_psi0_overflow_by_accumulation_is_null(capsys, models_dir):
    # R_0(883) ~ 2.6e306 is finite, but psi_0 = t R_0 passes the largest
    # float near t = 68: the moment is finite, and psi_0 and the value are
    # null.
    args = ("--model", str(models_dir / "compound_poisson.json"), "--u", "883")
    code, out, _ = run_cli(capsys, "transform", *args, "--x", "1", "--t", "400")
    payload = strict_json(out)
    assert code == 0 and payload["verdict"] == "finite"
    assert payload["value"] is None and payload["log_value"] is None and payload["psi0"] is None
    assert "t=67.8" in payload["diagnostic"]


def test_transform_not_integrable(capsys, models_dir):
    code, out, _ = run_cli(capsys, "transform", "--model", str(models_dir / "cir.json"),
                           "--u", "2+1i", "--x", "1", "--t", "1")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "not_integrable"
    assert "value" not in payload
    assert "bracket" in payload["diagnostic"]


def test_transform_complex_blow_up_exits_1(capsys, models_dir):
    # u = (0, -i) blows up at t = 2 on the planar fixture while Re u = 0
    # stays at 0, which no admissible model allows.
    code, out, err = run_cli(capsys, "transform", "--model", str(models_dir / "nonadmissible_2d.json"),
                             "--u=0,-1i", "--x", "0.3,-0.2", "--t", "2.5")
    assert code == 1 and out == ""
    assert "ExplosionBeforeHorizon" in err and "Traceback" not in err
    assert "solution at u blows up in bracket (1.99999" in err
    assert "real solution at Re u reaches t=2.5" in err and "affinejd validate" in err


def test_closed_stdout_pipe_is_quiet(models_dir):
    # The reader goes away before the output is written, as `| head -1` can.
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as in a plain shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "affinejd", "ray", "--model", str(models_dir / "cir.json"),
         "--direction=-1", "--t", "1", "--csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_explosion_finite(capsys, models_dir):
    # solve reports the blow-up: t_last is the crossing of the blow-up
    # radius, inside the bracket around it.
    code, out, _ = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"),
                           "--u", "1", "--t", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "exploded"
    lo, hi = payload["bracket"]
    assert lo < payload["t_last"] < hi and abs(payload["t_last"] - 1.0) < 1e-6


def test_explosion_exceeds_horizon(capsys, models_dir):
    code, out, _ = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"),
                           "--u=-1", "--t", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "solved" and "bracket" not in payload


def test_transform_trivial_value(capsys, models_dir):
    code, out, _ = run_cli(capsys, "transform", "--model", str(models_dir / "lorentz.json"),
                           "--u", "0,0,0", "--x", "1,0,0", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "finite"
    assert payload["value"] == {"re": 1.0, "im": 0.0}


def test_ray_json_and_csv(capsys, models_dir):
    code, out, _ = run_cli(capsys, "ray", "--model", str(models_dir / "cir.json"),
                           "--direction", "1", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda_star"] - 1.0) < 1e-4
    code, out, _ = run_cli(capsys, "ray", "--model", str(models_dir / "cir.json"),
                           "--direction", "1", "--t", "1", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,t_inf_estimate,verdict"
    assert len(lines) > 2


def test_simulate_deterministic(capsys, models_dir, monkeypatch):
    args = ("simulate", "--model", str(models_dir / "compound_poisson.json"),
            "--x", "1", "--n-paths", "500", "--dt", "0.01", "--t", "1",
            "--seed", "3", "--u", "0.3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["mc_transform"]["n_paths"] == 500
    # The seed is --seed or 0: the environment holds no second seed.
    unseeded = args[:-4] + args[-2:]
    plain = run_cli(capsys, *unseeded)
    monkeypatch.setenv("AFFINE_SEED", "abc")
    assert plain[0] == 0 and run_cli(capsys, *unseeded) == plain


def test_simulate_negative_seed_exits_2(capsys, models_dir):
    code, _, err = run_cli(capsys, "simulate", "--model", str(models_dir / "cir.json"),
                           "--x", "1", "--n-paths", "10", "--dt", "0.1", "--t", "1",
                           "--seed=-1")
    assert code == 2
    assert "invalid input" in err and "seed" in err


def test_validate_bad_seed_exits_2(capsys, models_dir):
    # --seed -1 once reached numpy, whose message named no argument.
    code, out, err = run_cli(capsys, "validate", "--model", str(models_dir / "cir.json"), "--seed=-1")
    assert code == 2 and out == ""
    assert "invalid input for 'validate': seed must be an integer at least 0" in err and "Traceback" not in err


def test_non_finite_inputs_exit_2(capsys, models_dir):
    # Each row names a fragment the message must hold, or None.
    model = str(models_dir / "cir.json")
    for argv, message in [
        (("solve", "--u", "nan", "--t", "1"), "not finite"),
        (("solve", "--u", "1e999", "--t", "1"), "not finite"),
        (("solve", "--u", "0.5+nani", "--t", "1"), "not finite"),
        (("solve", "--u", "inf", "--t", "1"), "not finite"),
        (("solve", "--u=-inf", "--t", "1"), "not finite"),
        (("solve", "--u", "nan+infi", "--t", "1"), "not finite"),
        (("solve", "--u", "infj", "--t", "1"), "not finite"),
        (("transform", "--u", "0.5", "--x", "nan", "--t", "1"), None),
        (("transform", "--u", "0.5", "--x", "inf", "--t", "1"), None),
        (("simulate", "--x", "nan", "--n-paths", "10", "--dt", "0.1", "--t", "1"), None),
        (("simulate", "--x", "inf", "--n-paths", "10", "--dt", "0.1", "--t", "1"), None),
        (("solve", "--u", "0.5", "--t", "nan"), None),
        (("ray", "--direction", "1", "--t", "nan"), None),
        (("cone-check", "--check", "interior", "--u=-0.5", "--t", "nan"), "t must be positive"),
        (("idcheck", "--u", "0.5", "--t", "nan", "--n", "2"), "t must be positive"),
        (("solve", "--u", "0.5", "--t", "inf"), "horizon must be positive and finite"),
        (("transform", "--u", "0.5", "--x", "1", "--t", "inf"), "t must be nonnegative and finite"),
        (("ray", "--direction", "1", "--t", "inf"), "horizon must be positive and finite"),
        (("cone-check", "--check", "interior", "--u=-0.5", "--t", "inf"), "t must be positive and finite"),
        (("simulate", "--x", "1", "--n-paths", "10", "--dt", "0.1", "--t", "inf"), None),
        (("simulate", "--x", "1", "--n-paths", "10", "--dt", "nan", "--t", "1"), None),
        (("simulate", "--x", "1", "--n-paths", "10", "--dt", "1e-300", "--t", "1e300"),
         "stream-key budget"),
    ]:
        code, out, err = run_cli(capsys, argv[0], "--model", model, *argv[1:])
        assert code == 2 and out == "", argv
        assert "invalid input" in err and "Traceback" not in err, argv
        assert message is None or message in err, (argv, err)


def test_solve_refuses_non_finite_u_past_the_parser(capsys, models_dir, monkeypatch):
    # The library's own check of u, reached when the parser lets a value by.
    monkeypatch.setattr("affinejd.cli.parse_complex_vector", lambda text: np.array([complex(text)]))
    model = str(models_dir / "cir.json")
    for u in ("nan", "inf"):
        code, out, err = run_cli(capsys, "solve", "--model", model, "--u", u, "--t", "1")
        assert code == 2 and out == ""
        assert "invalid input for 'solve': u must be finite" in err


def test_non_finite_state_past_the_parser_exits_2(capsys, models_dir, monkeypatch):
    # The library's own check of a state, reached when the parser lets a
    # value by.
    monkeypatch.setattr("affinejd.cli.parse_real_vector", lambda text: np.array([float(text)]))
    model = str(models_dir / "ou.json")
    for argv in (("transform", "--u", "0.5i", "--x", "nan", "--t", "1"),
                 ("simulate", "--x", "inf", "--n-paths", "10", "--dt", "0.1", "--t", "1")):
        code, out, err = run_cli(capsys, argv[0], "--model", model, *argv[1:])
        assert code == 2 and out == ""
        assert "state entry 0 is" in err and "not a finite number" in err


def test_tolerance_flags_are_rejected(capsys, models_dir):
    # The solver accuracy is fixed, so no subcommand accepts a tolerance
    # flag; u is given by --u alone, the time by --t and the state by --x,
    # and simulate runs on one thread.
    model = str(models_dir / "cir.json")
    tolerances, u_parts, times = ("--rel-tol", "--abs-tol"), ("--re", "--im"), ("--T", "--t-max")
    for argv, flags in [
        (("solve", "--u", "0.5", "--t", "1"), tolerances + u_parts + times),
        (("transform", "--u", "0.5", "--x", "1", "--t", "1"), tolerances + u_parts + times),
        (("ray", "--direction", "1", "--t", "1"), tolerances + times),
        (("simulate", "--x", "1", "--n-paths", "10", "--dt", "0.1", "--t", "1", "--u", "0.5"),
         u_parts + times + ("--x0", "--threads")),
        (("validate",), ("--tol",)),
        (("damp", "--u", "0.5i", "--x", "1", "--t", "1"), tolerances + u_parts + times),
        (("idcheck", "--u", "0.5", "--t", "1", "--n", "2"), tolerances + u_parts + times),
        (("cone-check", "--check", "interior", "--u=-0.5"), tolerances + u_parts + times),
    ]:
        for flag in flags:
            code, out, err = run_cli(capsys, argv[0], "--model", model, *argv[1:], flag, "1e-6")
            assert code == 2 and out == "", argv
            assert f"unrecognized arguments: {flag}" in err, argv
    # solve reports the blow-up, so there is no explosion subcommand.
    code, out, err = run_cli(capsys, "explosion", "--model", model, "--u", "1", "--t-max", "10")
    assert code == 2 and out == ""
    assert "invalid choice: 'explosion'" in err


def subparsers():
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def long_flags(sub):
    return {flag for action in sub._actions for flag in action.option_strings if flag.startswith("--")} - {"--help"}


# A value for each flag of more than one letter that a subcommand does not
# require.
OPTIONAL_VALUES = {"--csv": (), "--lambda-max": ("5",), "--seed": ("3",), "--n-samples": ("20",),
                   "--n-list": ("10,100",)}


def test_flag_prefixes_are_rejected(capsys, models_dir):
    # A prefix of a flag is no spelling of it: `ray ... --lambda 5` once ran
    # as `--lambda-max 5`. Each command below, of a subcommand with a flag it
    # does not require, parses without the flag.
    model = str(models_dir / "cir.json")
    commands = {
        "solve": ("--u", "0.5", "--t", "1"),
        "ray": ("--direction", "1", "--t", "1"),
        "simulate": ("--x", "1", "--n-paths", "10", "--dt", "0.1", "--t", "1"),
        "validate": (),
        "damp": ("--u", "0.5i", "--x", "1", "--t", "1"),
    }
    prefixed = [("ray", "--lambda", ("5",)), ("validate", "--n-s", ("20",))]
    for name, sub in subparsers().items():
        for action in sub._actions:
            flag = action.option_strings[-1]
            if flag != "--help" and not action.required and len(flag) > 3:
                prefixed.append((name, flag[:-1], OPTIONAL_VALUES[flag]))
    assert {name for name, _, _ in prefixed} == {"solve", "ray", "simulate", "validate", "damp"}
    for name, prefix, value in prefixed:
        code, out, err = run_cli(capsys, name, "--model", model, *commands[name], prefix, *value)
        assert code == 2 and out == "", (name, prefix)
        assert f"unrecognized arguments: {prefix}" in err, (name, prefix)


def test_cone_check_refuses_a_flag_its_check_does_not_read(capsys, models_dir):
    # --v is read by monotonicity alone, and --t by monotonicity and
    # interior; each was once ignored elsewhere, unparsed.
    model = str(models_dir / "cir.json")
    for argv, named in [
        (("--check", "interior", "--u=-0.5", "--v=7"), "--v"),
        (("--check", "regularity", "--u=-0.5", "--v=abc", "--t", "99"), "--v or --t"),
        (("--check", "regularity", "--u=-0.5", "--t", "1"), "--t"),
    ]:
        code, out, err = run_cli(capsys, "cone-check", "--model", model, *argv)
        assert code == 2 and out == "", argv
        assert f"invalid input for 'cone-check': the {argv[1]} check does not read {named}" in err, argv


def readme_commands():
    """README's command lines: each line of a shell block that runs
    affinejd, continuations joined and comments dropped."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("affinejd ")]


def test_docstring_synopsis_matches_the_parser():
    # The cli docstring lists each subcommand with every flag it takes.
    import affinejd.cli

    block = affinejd.cli.__doc__.split("\n\n")[2]
    synopsis = {}
    for line in block.splitlines():
        if line[4] != " ":  # a subcommand's first line
            name = line.split()[0]
        synopsis.setdefault(name, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert synopsis == {name: long_flags(sub) for name, sub in subparsers().items()}


def test_readme_commands_parse():
    # The docs name only flags the parser has; parsing solves nothing.
    commands = readme_commands()
    assert [argv[1] for argv in commands] == ["solve", "transform", "ray", "simulate", "validate",
                                              "damp", "idcheck", "cone-check"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_simulate_negative_jump_weight_exits_2(capsys, tmp_path):
    from affinejd.jumps import FiniteAtomic
    from affinejd.model import AffineModel
    from affinejd.modelio import save_model
    from affinejd.statespace import Canonical

    m = AffineModel(a0=[1.0], a=[[-0.5]], A=[[[0.0]], [[0.0]]],
                    K=[FiniteAtomic([2.0, -1.0], [[0.4], [0.8]]), None],
                    state_space=Canonical(1, 1))
    path = tmp_path / "signed.json"
    save_model(m, path)
    code, out, err = run_cli(capsys, "simulate", "--model", str(path), "--x", "1",
                             "--n-paths", "10", "--dt", "0.1", "--t", "1")
    assert code == 2 and out == ""
    assert "negative weight" in err and "Traceback" not in err


RAY = {"family": "exponential_ray", "mass": 1.0, "rate": 3.0, "direction": [1.0]}
ATOM = {"family": "finite_atomic", "atoms": [{"weight": 0.5, "z": [0.4]}]}
MALFORMED = {
    # id: (model file, path to the field, bad value, text the error must hold)
    "a0_nan": ("cir", ["a0"], [float("nan")], "'a0'"),
    "a0_null": ("cir", ["a0"], [None], "'a0'"),
    "a0_mixed_bool": ("wishart_2d", ["a0"], [True, 0.0, 1.0], "'a0'"),
    "ray_mass_nan": ("cir", ["K", 0], dict(RAY, mass=float("nan")), "mass"),
    "ray_rate_nan": ("cir", ["K", 0], dict(RAY, rate=float("nan")), "rate"),
    "ray_direction_nan": ("cir", ["K", 0], dict(RAY, direction=[float("nan")]), "direction"),
    "atom_weight_null": ("cir", ["K", 0], dict(ATOM, atoms=[{"weight": None, "z": [0.4]}]), "weights"),
    "d_not_integer": ("wishart_2d", ["state_space", "d"], 1.5, "'d'"),
    "A_null": ("cir", ["A"], [[0.0], [None]], "A[1]"),
    "K_not_a_list": ("cir", ["K"], 5, "'K'"),
    "dim_bool": ("cir", ["dim"], True, "'dim'"),
    "m_string": ("cir", ["state_space", "m"], "1", "'m'"),
    # Atoms of rank 3 once reached numpy's untyped matmul error.
    "atom_z_nested": ("cir", ["K", 0], dict(ATOM, atoms=[{"weight": 0.5, "z": [[0.4]]}]), "points must form"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_record_exits_2(capsys, models_dir, tmp_path, case):
    # Each record was read before: NaN and null numbers gave verdicts (a0 =
    # [NaN] passed validate), 1.5 was read as 1, and the rest crashed with a
    # TypeError traceback.
    stem, field, value, named = MALFORMED[case]
    record = json.loads((models_dir / f"{stem}.json").read_text())
    target = record
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    # The model is refused on loading, before u or x is read.
    for argv in (["transform", "--u", "0.5", "--x", "1", "--t", "1"], ["validate"]):
        code, out, err = run_cli(capsys, argv[0], "--model", str(path), *argv[1:])
        assert code == 2 and out == "", err
        assert "invalid input" in err and named in err and "Traceback" not in err


def test_overflowing_jump_mass_is_intensity_infinite(capsys, models_dir, tmp_path):
    # Each weight is finite, but their sum, the mass of K^0, is not.
    record = json.loads((models_dir / "cir.json").read_text())
    record["K"][0] = {"family": "finite_atomic",
                      "atoms": [{"weight": 1e308, "z": [0.4]}, {"weight": 1e308, "z": [0.8]}]}
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, "simulate", "--model", str(path), "--x", "1",
                             "--n-paths", "4", "--dt", "0.1", "--t", "1")
    assert code == 1 and out == ""
    assert "IntensityInfinite" in err and "K^0 has non-finite mass" in err


def test_simulate_transform_overflow_is_quiet(capsys, models_dir):
    # exp(1000 x) overflows on every path; the suite turns a RuntimeWarning
    # into an error.
    code, out, err = run_cli(capsys, "simulate", "--model", str(models_dir / "cir.json"), "--x", "1",
                             "--n-paths", "8", "--dt", "0.1", "--t", "0.5", "--u", "1000")
    assert code == 0 and err == ""
    assert strict_json(out)["mc_transform"] == {"n_paths": 8, "std_error": "infinite", "value": "infinite"}


def test_simulate_u_of_wrong_length_exits_2(capsys, models_dir):
    code, out, err = run_cli(capsys, "simulate", "--model", str(models_dir / "cir.json"),
                             "--x", "1", "--n-paths", "10", "--dt", "0.1", "--t", "1", "--u", "1,2")
    assert code == 2 and out == ""
    assert "u has length 2, the model has dimension 1" in err


def test_u_of_wrong_length_exits_2(capsys, models_dir):
    for args, message in (
        (("solve", "--t", "1"), "the model has dimension 1"),
        (("transform", "--x", "1", "--t", "1"), "the model has dimension 1"),
        (("transform", "--x", "1", "--t", "0"), "the model has dimension 1"),
        (("damp", "--x", "1", "--t", "1"), "the state space has dimension 1"),
    ):
        model = str(models_dir / "compound_poisson.json")
        code, out, err = run_cli(capsys, args[0], "--model", model, "--u", "1,2", *args[1:])
        assert code == 2 and out == ""
        assert f"u has length 2, {message}" in err


def test_ray_of_wrong_length_exits_2(models_dir):
    # In a subprocess with a timeout: a probe loop that never ends fails
    # this test instead of stalling the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "affinejd", "ray", "--model", str(models_dir / "cir.json"),
         "--direction", "1,2", "--t", "1"],
        capture_output=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert "direction has length 2, the model has dimension 1" in proc.stderr.decode()


def test_simulate_csv(capsys, models_dir):
    code, out, _ = run_cli(capsys, "simulate", "--model", str(models_dir / "cir.json"),
                           "--x", "1", "--n-paths", "64", "--dt", "0.01", "--t", "0.5",
                           "--csv")
    assert code == 0
    assert out.startswith("t,mean_1,std_1,min_1,max_1")


def test_validate_pass_and_fail(capsys, models_dir):
    code, out, _ = run_cli(capsys, "validate", "--model", str(models_dir / "cir.json"))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(capsys, "validate", "--model", str(models_dir / "nonadmissible_2d.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["admissibility"]["min_eigen_c"] < 0.0


def test_damp_sequence(capsys, models_dir):
    code, out, _ = run_cli(capsys, "damp", "--model", str(models_dir / "compound_poisson.json"),
                           "--u=-1+2i", "--x", "1", "--t", "1", "--n-list", "10,100,1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_list"] == [10, 100, 1000]
    assert payload["cauchy_diffs"][0] > payload["cauchy_diffs"][1]


def test_idcheck(capsys, models_dir):
    code, out, _ = run_cli(capsys, "idcheck", "--model", str(models_dir / "cir.json"),
                           "--u", "0.2", "--t", "0.4", "--n", "5")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-8


def test_cone_check_monotonicity(capsys, models_dir):
    code, out, _ = run_cli(capsys, "cone-check", "--model", str(models_dir / "cir.json"),
                           "--check", "monotonicity", "--u=-2", "--v=-1", "--t", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_cone_check_interior(capsys, models_dir):
    code, out, _ = run_cli(capsys, "cone-check", "--model", str(models_dir / "cir.json"),
                           "--check", "interior", "--u=-1", "--t", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_cone_check_regularity(capsys, models_dir, tmp_path):
    from affinejd.jumps import FiniteAtomic
    from affinejd.model import AffineModel
    from affinejd.modelio import save_model
    from affinejd.statespace import Canonical

    m = AffineModel(a0=[1.0], a=[[-0.5]], A=[[[0.0]], [[1.0]]],
                    K=[None, FiniteAtomic([1.0], [[1.0]])], state_space=Canonical(1, 1))
    path = tmp_path / "jumps.json"
    save_model(m, path)
    code, out, _ = run_cli(capsys, "cone-check", "--model", str(path), "--check", "regularity", "--u", "1")
    assert code == 0 and strict_json(out) == {"check": "regularity", "passed": True}
    # No jumps: the mass vector is 0, on the boundary of the cone.
    code, out, _ = run_cli(capsys, "cone-check", "--model", str(models_dir / "cir.json"),
                           "--check", "regularity", "--u", "1")
    assert code == 2 and strict_json(out) == {"check": "regularity", "passed": False}


def test_malformed_model_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1')
    code, _, err = run_cli(capsys, "solve", "--model", str(path), "--u", "0.5", "--t", "1")
    assert code == 2
    assert "line" in err


def test_missing_model_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--model", str(tmp_path / "none.json"),
                           "--u", "0.5", "--t", "1")
    assert code == 2
    assert "none.json" in err


def test_dimension_mismatch_exits_2(capsys, models_dir):
    code, _, err = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"),
                           "--u", "0.5,0.5", "--t", "1")
    assert code == 2


def test_state_outside_space_exits_2(capsys, models_dir):
    code, _, err = run_cli(capsys, "transform", "--model", str(models_dir / "cir.json"),
                           "--u", "0.5", "--x=-1", "--t", "1")
    assert code == 2
    assert "state space" in err


def test_numeric_failure_exits_1(capsys, tmp_path):
    # CIR-style diffusion with an exponential ray: psi crosses the ray's
    # integrability boundary, a numeric failure naming the operation.
    from affinejd.jumps import ExponentialRay
    from affinejd.model import AffineModel
    from affinejd.modelio import save_model
    from affinejd.statespace import Canonical

    m = AffineModel(a0=[0.5], a=[[0.0]], A=[[[0.0]], [[2.0]]],
                    K=[ExponentialRay(1.0, 3.0, [1.0]), None],
                    state_space=Canonical(1, 1))
    path = tmp_path / "ray.json"
    save_model(m, path)
    code, _, err = run_cli(capsys, "solve", "--model", str(path), "--u", "1", "--t", "2")
    assert code == 1
    assert "solve" in err and "DivergentIntegral" in err


def test_step_limit_exits_1(capsys, models_dir, monkeypatch):
    from affinejd import riccati

    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    code, out, err = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"), "--u", "0.5", "--t", "1")
    assert code == 1 and out == ""
    assert "numeric failure in 'solve' (StepLimitExceeded)" in err


def test_state_past_float_range_exits_1(capsys, tmp_path):
    from affinejd.model import AffineModel
    from affinejd.modelio import save_model
    from affinejd.statespace import Canonical

    path = tmp_path / "overflow.json"
    save_model(AffineModel(a0=[1e308], a=[[0.0]], A=[[[0.0]], [[0.0]]], K=None, state_space=Canonical(1, 1)), path)
    code, _, err = run_cli(capsys, "simulate", "--model", str(path), "--x", "0", "--n-paths", "4",
                           "--dt", "1", "--t", "3")
    assert code == 1
    assert "numeric failure in 'simulate' (PathOverflow)" in err


def test_missing_required_flag_exits_2(capsys, models_dir):
    code, _, _ = run_cli(capsys, "solve", "--model", str(models_dir / "cir.json"), "--t", "1")
    assert code == 2
