import numpy as np
import pytest

from spanwitness import CANONICAL, DimensionMismatchError, witness_matrix
from spanwitness.serialize import (
    complex_pair,
    dump_json,
    load_json,
    parse_payload,
    save_json,
    state_from_payload,
    state_payload,
    witness_payload,
)
from spanwitness.tensor import state_from


def test_complex_pair():
    assert complex_pair(1.5 - 2j) == [1.5, -2.0]


def test_witness_round_trip(tmp_path, canonical_witness):
    path = tmp_path / "w.json"
    save_json(path, witness_payload(canonical_witness))
    matrix, shape, meta = parse_payload(load_json(path))
    assert np.array_equal(matrix, canonical_witness.matrix)
    assert shape == canonical_witness.shape
    assert meta["s"] == canonical_witness.meta["s"]


def test_state_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    state = state_from((g + g.conj().T) / 2, (2, 2, 2))
    path = tmp_path / "s.json"
    save_json(path, state_payload(state, meta={"label": "random"}))
    loaded = state_from_payload(load_json(path))
    assert np.array_equal(loaded.matrix, state.matrix)


def test_payload_shape_validation():
    with pytest.raises(DimensionMismatchError):
        parse_payload({"dims": [2, 2], "matrix": [[[0.0, 0.0]]]})
    with pytest.raises(DimensionMismatchError):
        parse_payload({"matrix": []})
    with pytest.raises(DimensionMismatchError):
        parse_payload({"dims": [2, 2], "matrix": [["oops"] * 4] * 4})


def test_json_text_is_stable(canonical_witness):
    a = dump_json(witness_payload(canonical_witness))
    b = dump_json(witness_payload(witness_matrix(CANONICAL)))
    assert a == b
