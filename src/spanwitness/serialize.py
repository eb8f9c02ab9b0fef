"""JSON encoding of witnesses and states.

Complex scalars are two-element arrays [re, im]; matrices nested row-major
lists; the tensor structure a "dims" array. Files carry a free-form "meta"
object. The format is language neutral and round-trips exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError
from .maps import Witness
from .tensor import State, TensorShape, state_from


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_payload(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[complex_pair(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]


def _entry(re, im) -> complex:
    """One matrix entry; complex() rejects every JSON value but numbers and bools."""
    if type(re) is bool or type(im) is bool:
        raise TypeError(f"entry [{re!r}, {im!r}] is not two numbers")
    return complex(re, im)


def parse_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_entry(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"malformed matrix payload: {exc}") from exc


def payload(matrix: np.ndarray, dims, meta: dict | None = None) -> dict:
    return {
        "dims": [int(d) for d in dims],
        "matrix": matrix_payload(matrix),
        "meta": dict(meta or {}),
    }


def witness_payload(w: Witness) -> dict:
    return payload(w.matrix, w.shape.dims, w.meta)


def state_payload(s: State, meta: dict | None = None) -> dict:
    return payload(s.matrix, s.shape.dims, meta)


def parse_payload(doc: dict) -> tuple[np.ndarray, TensorShape, dict]:
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise DimensionMismatchError("payload must carry 'dims' and 'matrix'")
    dims = doc["dims"]
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise DimensionMismatchError(f"'dims' must be a list of integers, got {dims!r}")
    try:
        meta = dict(doc.get("meta", {}))
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"malformed 'meta' in payload: {exc}") from exc
    shape = TensorShape(tuple(dims))
    matrix = parse_matrix(doc["matrix"])
    if matrix.shape != (shape.total_dim, shape.total_dim):
        raise DimensionMismatchError(
            f"matrix shape {matrix.shape} does not match dims {shape.dims}"
        )
    return matrix, shape, meta


def state_from_payload(doc: dict) -> State:
    matrix, shape, _ = parse_payload(doc)
    return state_from(matrix, shape.dims)


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def save_json(path, doc: dict) -> None:
    Path(path).write_text(dump_json(doc), encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
