import json
import pathlib
import warnings

import numpy as np
import pytest

from affinejd import golden
from affinejd.errors import ModelFormatError
from affinejd.jumps import ExponentialRay, TabulatedDensity
from affinejd.model import AffineModel
from affinejd.modelio import (
    canonical_json,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    save_model,
)
from affinejd.statespace import Canonical


BUNDLED = sorted(path.stem for path in golden.MODELS_DIR.glob("*.json"))

# The golden function that loads each bundled file.
GOLDEN_BY_FILE = {
    "cir": golden.cir,
    "compound_poisson": golden.compound_poisson,
    "lorentz": golden.lorentz_drift,
    "nonadmissible_2d": golden.nonadmissible_2d,
    "ou": golden.ou,
    "wishart_2d": golden.wishart_2d,
}


def test_a_finite_record_loads_finite(tmp_path):
    # The symmetrization once summed A + A^T before halving, so an entry of
    # 1e308 loaded as inf.
    record = json.loads((golden.MODELS_DIR / "cir.json").read_text())
    record["A"][1] = [1e308]
    path = tmp_path / "cir.json"
    path.write_text(json.dumps(record))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = load_model(path)
    assert np.isfinite(model.A).all() and model.A[1, 0, 0] == 1e308


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip_hash_equal(name, tmp_path):
    model = load_model(golden.MODELS_DIR / f"{name}.json")
    path = tmp_path / f"{name}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert model_hash(loaded) == model_hash(model)
    # A second round trip is a fixed point.
    save_model(loaded, path)
    assert model_hash(load_model(path)) == model_hash(model)


@pytest.mark.parametrize("name", BUNDLED)
def test_golden_name_loads_bundled_file(name, models_dir):
    # The package ships the repository's models/ file byte for byte, and
    # each golden name loads the file of the same model.
    assert (golden.MODELS_DIR / f"{name}.json").read_bytes() == (models_dir / f"{name}.json").read_bytes()
    assert GOLDEN_BY_FILE[name]() == load_model(models_dir / f"{name}.json")


def test_canonical_json_deterministic(cir_model):
    assert canonical_json(cir_model) == canonical_json(golden.cir())


def test_column_major_drift_layout(cir_model):
    d = model_to_dict(golden.wishart_2d())
    a = np.column_stack([np.asarray(c) for c in d["a"]])
    assert np.array_equal(a, golden.wishart_2d().a)


def test_upper_triangle_layout():
    d = model_to_dict(golden.wishart_2d())
    # A^1 is 3x3: its upper triangle has 6 entries, row-wise.
    assert d["A"][1] == [4.0, 0.0, 0.0, 2.0, 0.0, 0.0]


def test_missing_field_named():
    with pytest.raises(ModelFormatError, match="dim"):
        model_from_dict({"a0": [1.0]})


def test_a_record_without_K_has_no_jumps():
    d = model_to_dict(golden.compound_poisson())
    del d["K"]
    model = model_from_dict(d)
    assert model.K == (None, None) and not model.has_jumps
    assert model == model_from_dict(dict(d, K=[None, None]))


def test_bad_a0_length_named():
    d = model_to_dict(golden.cir())
    d["a0"] = [1.0, 2.0]
    with pytest.raises(ModelFormatError, match="a0"):
        model_from_dict(d)


def test_bad_triangle_length_named():
    d = model_to_dict(golden.cir())
    d["A"] = [[0.0], [2.0, 1.0]]
    with pytest.raises(ModelFormatError, match=r"A\[1\]"):
        model_from_dict(d)


def test_unknown_family_rejected():
    d = model_to_dict(golden.cir())
    d["K"] = [{"family": "levy_flight"}, None]
    with pytest.raises(ModelFormatError, match="levy_flight"):
        model_from_dict(d)


def test_state_space_dimension_mismatch():
    d = model_to_dict(golden.cir())
    d["state_space"] = {"kind": "canonical", "m": 1, "p": 2}
    with pytest.raises(ModelFormatError, match="state_space"):
        model_from_dict(d)


@pytest.mark.parametrize("space", [{"kind": "canonical", "m": 1, "p": 2**70}, {"kind": "lorentz", "p": 2**70},
                                   {"kind": "parabolic", "p": 2**70}, {"kind": "psd_cone", "d": 2**70}])
def test_a_huge_state_space_is_refused_by_its_size(models_dir, tmp_path, space):
    # A canonical space of p = 2**70 would ask numpy for a row of p bounds;
    # the size is compared with dim first, and numpy refuses 2**70 at once.
    d = json.loads((models_dir / "cir.json").read_text())
    d["state_space"] = space
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ModelFormatError, match="disagrees with dim 1"):
        load_model(path)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 1,,}')
    with pytest.raises(ModelFormatError, match="line"):
        load_model(path)


def test_missing_file_reported(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "nope.json")


def _ray_and_tabulated_model():
    return AffineModel(
        a0=[1.0],
        a=[[0.0]],
        A=np.zeros((2, 1, 1)),
        K=[ExponentialRay(0.5, 2.0, [1.0]), TabulatedDensity([0.1, 0.2], [[0.5], [1.5]])],
        state_space=Canonical(1, 1),
    )


def test_jump_records_round_trip(tmp_path):
    m = _ray_and_tabulated_model()
    path = tmp_path / "jumps.json"
    save_model(m, path)
    assert load_model(path) == m


# canonical_json and model_hash of the bundled models and of the ray plus
# tabulated model above, pinned as literals: stored hashes stay valid only
# while every record serializes byte for byte the same.
PINNED_JSON = {
    "cir": (
        '{"A":[[0.0],[2.0]],"K":[null,null],"a":[[0.0]],"a0":[1.0],"dim":1,'
        '"state_space":{"kind":"canonical","m":1,"p":1}}',
        "f3232559edd130b4870c819311bfa733abee4ad184d6fb13a658fc20ae954606",
    ),
    "compound_poisson": (
        '{"A":[[0.0],[0.0]],"K":[{"atoms":[{"weight":0.5,"z":[0.4]},{"weight":0.25,"z":[0.8]}],'
        '"family":"finite_atomic"},null],"a":[[0.0]],"a0":[1.0],"dim":1,'
        '"state_space":{"kind":"canonical","m":1,"p":1}}',
        "8e3f90774bf298ac6d5d78e7a9dfd556ef27c349f2dc7bc8928ccb12356b0296",
    ),
    "lorentz": (
        '{"A":[[0.0,0.0,0.0,0.0,0.0,0.0],[0.0,0.0,0.0,0.0,0.0,0.0],[0.0,0.0,0.0,0.0,0.0,0.0],'
        '[0.0,0.0,0.0,0.0,0.0,0.0]],"K":[null,null,null,null],'
        '"a":[[-1.0,-0.0,-0.0],[-0.0,-1.0,-0.0],[-0.0,-0.0,-1.0]],"a0":[1.0,0.0,0.0],"dim":3,'
        '"state_space":{"kind":"lorentz","p":3}}',
        "ff4c4b0aaa7886fec887c9c49106534e5411c65ca83f0658074c127fa2b0ba90",
    ),
    "nonadmissible_2d": (
        '{"A":[[0.0,0.0,0.0],[1.0,0.0,-1.0],[0.0,1.0,0.0]],"K":[null,null,null],'
        '"a":[[0.0,0.0],[0.0,0.0]],"a0":[0.0,0.0],"dim":2,'
        '"state_space":{"kind":"canonical","m":0,"p":2}}',
        "861b268d398b28a8b5f9e5b6069490f65504ba4fa6c89426457f595d72c429ce",
    ),
    "ou": (
        '{"A":[[1.0],[0.0]],"K":[null,null],"a":[[-1.0]],"a0":[0.0],"dim":1,'
        '"state_space":{"kind":"canonical","m":0,"p":1}}',
        "6875bf39582efae2e9c0802b23a5178caf5bd38e2d5881eb387b904ce7ec87f8",
    ),
    "wishart_2d": (
        '{"A":[[0.0,0.0,0.0,0.0,0.0,0.0],[4.0,0.0,0.0,2.0,0.0,0.0],[0.0,2.0,0.0,0.0,2.0,0.0],'
        '[0.0,0.0,0.0,2.0,0.0,4.0]],"K":[null,null,null,null],'
        '"a":[[-1.0,-0.0,-0.0],[-0.0,-1.0,-0.0],[-0.0,-0.0,-1.0]],"a0":[3.0,0.0,3.0],"dim":3,'
        '"state_space":{"d":2,"kind":"psd_cone"}}',
        "6d867f35b599c8416d0505866eeb94e334f1a64f931cbd679d1511ca9dc5da2e",
    ),
    "ray_and_tabulated": (
        '{"A":[[0.0],[0.0]],"K":[{"direction":[1.0],"family":"exponential_ray","mass":0.5,"rate":2.0},'
        '{"family":"tabulated_density","nodes":[[0.5],[1.5]],"weights":[0.1,0.2]}],'
        '"a":[[0.0]],"a0":[1.0],"dim":1,"state_space":{"kind":"canonical","m":1,"p":1}}',
        "ece36087348dfaf964dfb6992cffad2873cb781c76ff1c70412244a6abba5d33",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_canonical_json_and_hash_pinned(name, models_dir):
    if name == "ray_and_tabulated":
        model = _ray_and_tabulated_model()
    else:
        model = load_model(models_dir / f"{name}.json")
    text, digest = PINNED_JSON[name]
    assert canonical_json(model) == text
    assert model_hash(model) == digest


def test_hash_is_sha256_of_canonical_json(cir_model):
    import hashlib

    assert model_hash(cir_model) == hashlib.sha256(canonical_json(cir_model).encode()).hexdigest()


def test_package_models_match_pins():
    # The files golden loads are exactly the pinned ones, and the package
    # ships them.
    tomllib = pytest.importorskip("tomllib")
    assert BUNDLED == sorted(set(PINNED_JSON) - {"ray_and_tabulated"})
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "models/*.json" in package_data["affinejd"]
