"""Model files: a JSON schema with canonical serialization and hashing.

Schema (all numbers are finite floats unless noted):

    {
      "dim": p,                       # positive integer
      "a0": [..p floats..],
      "a": [[..], ..],                # p columns, column i is the drift vector a^i
      "A": [[..], ..],                # p+1 upper triangles (row-wise, diagonal
                                      # included) of the symmetric matrices A^i
      "K": [rec | null, ..],          # p+1 records; null or missing = no jumps
      "state_space": {"kind": ...}    # tagged record, see statespace module
    }

Jump records:

    {"family": "finite_atomic", "atoms": [{"weight": w, "z": [..]}, ..]}
    {"family": "exponential_ray", "mass": m, "rate": r, "direction": [..]}
    {"family": "tabulated_density", "weights": [..], "nodes": [[..], ..]}

State-space records:

    {"kind": "canonical", "m": m, "p": p}
    {"kind": "psd_cone", "d": d}            # scaled half-vectorized coordinates
    {"kind": "lorentz", "p": p}
    {"kind": "parabolic", "p": p}
    {"kind": "half_spaces", "normals": [[..], ..], "offsets": [..]}
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ModelFormatError, _check_count, finite_floats
from .jumps import measure_from_dict
from .model import AffineModel
from .statespace import space_from_dict


def _upper_triangle(mat):
    p = mat.shape[0]
    return [float(mat[i, j]) for i in range(p) for j in range(i, p)]


def _from_upper_triangle(vals, p, name):
    vals = finite_floats(vals, f"field '{name}'")
    if vals.shape != (p * (p + 1) // 2,):
        raise ModelFormatError(
            f"field '{name}': upper triangle needs {p*(p+1)//2} entries for dim {p}, got shape {vals.shape}"
        )
    rows, cols = np.triu_indices(p)  # row-wise, diagonal included
    mat = np.zeros((p, p))
    mat[rows, cols] = mat[cols, rows] = vals
    return mat


def model_to_dict(model):
    p = model.dim
    return {
        "dim": p,
        "a0": [float(v) for v in model.a0],
        "a": [[float(v) for v in model.a[:, i]] for i in range(p)],
        "A": [_upper_triangle(model.A[i]) for i in range(p + 1)],
        "K": [None if m is None else m.to_dict() for m in model.K],
        "state_space": model.state_space.to_dict(),
    }


def _require(d, key, kind=object):
    if key not in d:
        raise ModelFormatError(f"missing field '{key}'")
    val = d[key]
    if not isinstance(val, kind):
        raise ModelFormatError(f"field '{key}' has the wrong type ({type(val).__name__})")
    return val


def model_from_dict(d):
    if not isinstance(d, dict):
        raise ModelFormatError("model file must hold a JSON object")
    p = _check_count(_require(d, "dim"), "field 'dim'", 1, ModelFormatError)
    a0 = finite_floats(_require(d, "a0", list), "field 'a0'", (p,))
    # p columns of length p, so the rows of the array are the columns of a.
    a = finite_floats(_require(d, "a", list), "field 'a'", (p, p)).T
    tri = _require(d, "A", list)
    if len(tri) != p + 1:
        raise ModelFormatError(f"field 'A' must list {p + 1} upper triangles")
    A = np.stack([_from_upper_triangle(t, p, f"A[{i}]") for i, t in enumerate(tri)])
    k_recs = d.get("K")
    if k_recs is None:
        k_recs = [None] * (p + 1)
    if not isinstance(k_recs, list) or len(k_recs) != p + 1:
        raise ModelFormatError(f"field 'K' must list {p + 1} records (null allowed)")
    K = [measure_from_dict(rec, p) for rec in k_recs]
    space = space_from_dict(_require(d, "state_space", dict))
    if space.dim != p:
        raise ModelFormatError(
            f"state_space dimension {space.dim} disagrees with dim {p}"
        )
    return AffineModel(a0=a0, a=a, A=A, K=K, state_space=space)


def canonical_json(model):
    """Deterministic serialization: sorted keys, shortest-repr floats."""
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def model_hash(model):
    return hashlib.sha256(canonical_json(model).encode()).hexdigest()


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    try:
        return model_from_dict(d)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
