from itertools import islice

import numpy as np
import pytest

import inputs


def _take(gen, n):
    return list(islice(gen, n))


def test_curve_points_repeat_for_a_seed_and_differ_across_seeds():
    a = _take(inputs.curve_points(5), 50)
    assert a == _take(inputs.curve_points(5), 50)
    assert a != _take(inputs.curve_points(6), 50)


def test_curve_points_are_distinct_and_on_the_curve():
    points = _take(inputs.curve_points(1), 500)
    assert len({(p.s, p.t) for p in points}) == len(points)
    lo, hi = (2.0 ** u for u in inputs.CURVE_U)
    for p in points:
        assert lo <= p.s <= hi
        assert abs(p.s * p.t - 8.0) < 1e-12


def test_detect_ops_repeat_for_a_seed():
    files = [(f"/x/{sf.name}", sf) for sf in inputs.state_files(3)]
    a = _take(inputs.detect_ops(3, files), 400)
    assert a == _take(inputs.detect_ops(3, files), 400)
    kinds = {op.spec.split(":")[0] for op in a}
    assert kinds == {"xstate", "rho-lambda", "perturbed", "file"}
    assert {op.s for op in a} == set(inputs.DETECT_S)
    # both perturbed verdicts occur: eps beyond the margin is undetected at s = 1
    perturbed = {op.verdict for op in a if op.spec.startswith("perturbed:")}
    assert perturbed == {inputs.DETECTED, inputs.INCONCLUSIVE}


def test_state_files_repeat_and_have_the_stated_partial_transpose_sign():
    from spanwitness import THREE_QUBITS, all_subsets, partial_transpose, state_from

    files = inputs.state_files(9)
    assert files == inputs.state_files(9)
    for sf in files:
        state = state_from(sf.matrix, THREE_QUBITS.dims)
        assert np.allclose(state.matrix, state.matrix.conj().T)
        assert np.trace(state.matrix).real == pytest.approx(1.0)
        lowest = min(
            np.linalg.eigvalsh(partial_transpose(state, sub))[0] for sub in all_subsets(3)
        )
        if sf.verdict == inputs.NPT:
            assert lowest < -0.01
        else:
            assert lowest > 0.01


def test_witness_pairing_matches_the_package():
    from spanwitness import FamilyParams, pairing, witness_matrix, x_state

    for s in inputs.DETECT_S:
        params = FamilyParams(s, 8.0 / s)
        state = x_state(params)
        rows = state.matrix.tolist()
        expected = pairing(state, witness_matrix(params))
        assert inputs.witness_pairing(rows, s, 8.0 / s) == pytest.approx(expected, abs=1e-12)
        assert inputs.xstate_pairing(s, 8.0 / s) == pytest.approx(expected, abs=1e-12)


def test_cli_ops_cycle_of_five_timed_commands_then_one_malformed():
    ops = _take(inputs.cli_ops(4, "out.json", "missing.json"), 18)
    assert ops == _take(inputs.cli_ops(4, "out.json", "missing.json"), 18)
    labels = [op.label for op in ops[:6]]
    assert labels == ["build", "verify", "detect", "spanning", "report", "malformed"]
    assert [op.timed for op in ops[:6]] == [True] * 5 + [False]
    assert [op.closes_cycle for op in ops[:6]] == [False] * 5 + [True]
    assert ops[6:11] == ops[0:5]
