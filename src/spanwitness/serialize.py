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
from .tensor import State, TensorShape


def matrix_payload(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _entry(re, im) -> complex:
    """One matrix entry; complex() rejects every JSON value but numbers and bools."""
    if type(re) is bool or type(im) is bool:
        raise TypeError(f"entry [{re!r}, {im!r}] is not two numbers")
    return complex(re, im)


def state_payload(s: State, meta: dict | None = None) -> dict:
    return {
        "dims": [int(d) for d in s.shape.dims],
        "matrix": matrix_payload(s.matrix),
        "meta": dict(meta or {}),
    }


def state_from_payload(doc: dict) -> State:
    """The state a payload describes; DimensionMismatchError on any malformed part."""
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise DimensionMismatchError("payload must carry 'dims' and 'matrix'")
    dims = doc["dims"]
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise DimensionMismatchError(f"'dims' must be a list of integers, got {dims!r}")
    # a mapping, though the state does not keep it
    try:
        dict(doc.get("meta", {}))
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"malformed 'meta' in payload: {exc}") from exc
    shape = TensorShape(tuple(dims))
    try:
        matrix = np.array([[_entry(re, im) for re, im in row] for row in doc["matrix"]], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"malformed matrix payload: {exc}") from exc
    return State(matrix=matrix, shape=shape)


def dump_json(doc: dict) -> str:
    """The document as JSON text; a NaN or infinity raises DimensionMismatchError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DimensionMismatchError(f"cannot write a non-finite number as JSON: {exc}") from exc


def save_json(path, doc: dict) -> None:
    Path(path).write_text(dump_json(doc), encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
