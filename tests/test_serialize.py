import math

import numpy as np
import pytest

from spanwitness import CANONICAL, DimensionMismatchError, witness_matrix
from spanwitness.serialize import (
    dump_json,
    load_json,
    matrix_payload,
    save_json,
    state_from_payload,
    state_payload,
)
from spanwitness.tensor import state_from


def test_matrix_payload_writes_each_entry_as_re_im():
    # plain floats, rows first, and the sign of a zero kept
    payload = matrix_payload(np.array([[1.5 - 2j, complex(-0.0, 0.0)], [complex(0.0, -0.0), 3j]]))
    assert payload == [[[1.5, -2.0], [-0.0, 0.0]], [[0.0, -0.0], [0.0, 3.0]]]
    assert [math.copysign(1.0, x) for row in payload for re_im in row for x in re_im] == [
        1, -1, -1, 1, 1, -1, 1, 1
    ]
    assert all(type(x) is float for row in payload for re_im in row for x in re_im)


def test_witness_round_trip(tmp_path, canonical_witness):
    path = tmp_path / "w.json"
    save_json(path, state_payload(canonical_witness, canonical_witness.meta))
    loaded = state_from_payload(load_json(path))
    assert np.array_equal(loaded.matrix, canonical_witness.matrix)
    assert loaded.shape == canonical_witness.shape
    assert load_json(path)["meta"]["s"] == canonical_witness.meta["s"]


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
        state_from_payload({"dims": [2, 2], "matrix": [[[0.0, 0.0]]]})
    with pytest.raises(DimensionMismatchError):
        state_from_payload({"matrix": []})
    with pytest.raises(DimensionMismatchError):
        state_from_payload({"dims": [2, 2], "matrix": [["oops"] * 4] * 4})


def test_json_text_is_stable(canonical_witness):
    a = dump_json(state_payload(canonical_witness, canonical_witness.meta))
    fresh = witness_matrix(CANONICAL)
    b = dump_json(state_payload(fresh, fresh.meta))
    assert a == b


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dump_json_refuses_non_finite_numbers(bad):
    with pytest.raises(DimensionMismatchError, match="non-finite"):
        dump_json({"values": {"min": bad}})
