from functools import reduce
from itertools import product

import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    DimensionMismatchError,
    MultilinearMapTable,
    NonRealPairingError,
    NotHermitianError,
    State,
    TensorShape,
    THREE_QUBITS,
    bilinear_map,
    biseparable_vector,
    choi_matrix,
    evaluate,
    hermitian_eigenvalues,
    pairing,
    state_from,
    value_on_product,
    x_state,
)
from spanwitness.family import CANONICAL_TEN_ROWS, SQRT2, default_zero_sample


def block_table(w):
    """Oracle: the block table of an 8x8 matrix, one entry at a time,
    blocks[i1, j1, i2, j2, k, l] = W[4 i1 + 2 i2 + k, 4 j1 + 2 j2 + l]."""
    blocks = np.zeros((2,) * 6, dtype=complex)
    for i1, j1, i2, j2, k, l in product(range(2), repeat=6):
        blocks[i1, j1, i2, j2, k, l] = w[4 * i1 + 2 * i2 + k, 4 * j1 + 2 * j2 + l]
    return MultilinearMapTable(blocks)


def random_hermitian_table(rng):
    w = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return block_table((w + w.conj().T) / 2)


def test_choi_single_block():
    blocks = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    blocks[0, 0, 0, 0, 0, 0] = 1.0  # image of (|0><0|, |0><0|) is E00
    w = choi_matrix(MultilinearMapTable(blocks))
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.array_equal(w.matrix, expected)


def test_choi_of_family_map_is_witness(canonical_witness):
    assembled = choi_matrix(bilinear_map(CANONICAL))
    assert np.array_equal(assembled.matrix, canonical_witness.matrix)


def test_choi_round_trip_exact():
    rng = np.random.default_rng(14)
    table = random_hermitian_table(rng)
    w = choi_matrix(table)
    assert np.array_equal(block_table(w.matrix).blocks, table.blocks)
    assert np.array_equal(choi_matrix(block_table(w.matrix)).matrix, w.matrix)


def test_choi_matrix_does_not_share_the_table_memory():
    # a table laid out as W's own transpose would reshape to a view of it
    w = np.eye(8, dtype=complex)
    table = MultilinearMapTable(w.reshape((2,) * 6).transpose(0, 3, 1, 4, 2, 5))
    assert not np.shares_memory(choi_matrix(table).matrix, table.blocks)


def test_choi_rejects_non_hermitian_table():
    blocks = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    blocks[0, 1, 0, 0, 0, 0] = 1.0  # no conjugate partner at (1, 0, ...)
    with pytest.raises(NotHermitianError):
        choi_matrix(MultilinearMapTable(blocks))


def test_table_holds_a_map_on_qubit_pairs():
    # (2,) * 6 only: one more party, or a qutrit input, is not a table
    for shape in ((2,) * 8, (2, 2, 3, 3, 2, 2), (2,) * 4):
        with pytest.raises(DimensionMismatchError):
            MultilinearMapTable(np.zeros(shape))


def test_choi_matrix_of_identity_table():
    blocks = np.zeros((2,) * 6, dtype=complex)
    for i1, i2 in product(range(2), repeat=2):
        blocks[i1, i1, i2, i2] = np.eye(2)
    table = MultilinearMapTable(blocks)
    assert np.array_equal(choi_matrix(table).matrix, np.eye(8))
    assert np.array_equal(block_table(np.eye(8)).blocks, blocks)


def test_choi_matrix_family_blocks(canonical_witness):
    table = bilinear_map(CANONICAL)
    assert np.array_equal(block_table(canonical_witness.matrix).blocks, table.blocks)
    t = canonical_witness.matrix[3, 3].real
    assert np.array_equal(table.blocks[0, 0, 1, 1], np.diag([0.0, t]))
    # the (0,1,0,1) block collects both off-diagonal slots
    assert np.array_equal(table.blocks[0, 1, 0, 1], np.array([[0, 1], [1, 0]]))


def test_evaluate_pinned_slot():
    table = bilinear_map(CANONICAL)
    rng = np.random.default_rng(1)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p0 = np.array([[1, 0], [0, 0]])
    got = evaluate(table, p0, y)
    t = CANONICAL.t
    assert np.allclose(got, [[0, 0], [0, t * y[1, 1]]], atol=1e-14)


@pytest.mark.parametrize(
    "inputs, error",
    [
        ((np.zeros((72, 2, 3)), np.eye(2)), DimensionMismatchError),
        ((np.eye(2), np.array([np.eye(2), [[0.0, np.nan], [0.0, 1.0]]])), DimensionMismatchError),
        # the map takes exactly two inputs: Python's own arity error
        ((np.eye(2),), TypeError),
        ((np.zeros((3, 2, 2)), np.zeros((4, 2, 2))), DimensionMismatchError),
    ],
    ids=["stack_of_2x3", "nan_inside_a_stack", "one_input_for_two", "stacks_do_not_broadcast"],
)
def test_evaluate_rejects_malformed_inputs(inputs, error):
    with pytest.raises(error):
        evaluate(bilinear_map(CANONICAL), *inputs)


def test_evaluate_zero_input_is_zero():
    table = bilinear_map(CANONICAL)
    assert np.array_equal(evaluate(table, np.zeros((2, 2)), np.eye(2)), np.zeros((2, 2)))


def test_evaluate_is_bilinear():
    table = bilinear_map(CANONICAL)
    rng = np.random.default_rng(13)
    x1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = evaluate(table, 2.0 * x1 + 3j * x2, y)
    rhs = 2.0 * evaluate(table, x1, y) + 3j * evaluate(table, x2, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_product_identity_random_vectors():
    # <xi|W_phi|xi> = <xi_3| phi(|conj xi_1><conj xi_1|, |conj xi_2><conj xi_2|) |xi_3>
    rng = np.random.default_rng(100)
    table = bilinear_map(CANONICAL)
    w = choi_matrix(table)
    for _ in range(100):
        pv = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        lhs = value_on_product(w, reduce(np.kron, pv))
        x1 = np.outer(pv[0].conj(), pv[0])
        x2 = np.outer(pv[1].conj(), pv[1])
        image = evaluate(table, x1, x2)
        rhs = float(np.vdot(pv[2], image @ pv[2]).real)
        assert abs(lhs - rhs) < 1e-10


def test_pairing_values(canonical_witness):
    assert abs(pairing(x_state(CANONICAL), canonical_witness) - (8 / SQRT2 - 8)) < 1e-10
    ident = state_from(np.eye(8), (2, 2, 2))
    s = t = 2 * SQRT2
    assert abs(pairing(ident, canonical_witness) - (s + t)) < 1e-12
    v = reduce(np.kron, np.array([[1, 0], [1, 0], [1, 0]], dtype=complex))
    assert pairing(state_from(np.outer(v, v.conj()), (2, 2, 2)), canonical_witness) == 0.0


def test_pairing_matches_quadratic_form_on_conjugate(canonical_witness):
    rng = np.random.default_rng(15)
    for _ in range(25):
        pv = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        v = reduce(np.kron, [f.conj() for f in pv])
        conj_proj = state_from(np.outer(v, v.conj()), (2, 2, 2))
        value = value_on_product(canonical_witness, reduce(np.kron, pv))
        assert abs(pairing(conj_proj, canonical_witness) - value) < 1e-10


def test_pairing_matches_matrix_product():
    # entrywise and unconjugated: tr(rho^T W), not tr(rho W)
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1], a[1, 0] = 1j, -1j
    assert pairing(state_from(a, (2, 2)), State(matrix=a, shape=TensorShape((2, 2)))) == -2.0
    rng = np.random.default_rng(9)
    for _ in range(10):
        g, h = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        rho, w = g + g.conj().T, h + h.conj().T
        value = pairing(state_from(rho, (2, 2, 2)), State(matrix=w, shape=THREE_QUBITS))
        assert abs(value - np.trace(rho.T @ w)) < 1e-12


def test_pairing_dimension_mismatch(canonical_witness):
    bad = state_from(np.eye(4), (2, 2))
    with pytest.raises(DimensionMismatchError):
        pairing(bad, canonical_witness)


def test_pairing_rejects_complex_result():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = 1j
    b = np.zeros((4, 4), dtype=complex)
    b[0, 1] = 1.0
    with pytest.raises(NonRealPairingError):
        pairing(state_from(a, (2, 2)), State(matrix=b, shape=TensorShape((2, 2))))


def test_value_on_product_zero_set(canonical_witness):
    assert value_on_product(canonical_witness, np.eye(8)[0]) == 0.0
    # Z1 at (a, b) = (1, 1), a row of the default sample
    z1 = default_zero_sample(CANONICAL)[1][:, CANONICAL_TEN_ROWS[6]]
    assert abs(value_on_product(canonical_witness, reduce(np.kron, z1))) < 1e-12


def test_value_on_product_biseparable(canonical_witness):
    omega = complex(SQRT2 / 2, SQRT2 / 2)
    val = value_on_product(canonical_witness, biseparable_vector(1, omega))
    assert abs(val + 2.0) < 1e-12



def test_value_on_product_returns_a_float_per_vector_and_an_array_per_stack(canonical_witness):
    pv = np.array([[1, 0], [0, 1], [1, 1j]])
    flat = reduce(np.kron, pv)
    assert type(value_on_product(canonical_witness, flat)) is float
    stack = value_on_product(canonical_witness, np.stack([flat, 2 * flat]).reshape(2, 1, 8))
    assert isinstance(stack, np.ndarray) and stack.shape == (2, 1)
    assert stack[1, 0] == 4 * stack[0, 0] == 4 * value_on_product(canonical_witness, flat)
    # flat vectors only: a (3, 2) factor array is not one
    for bad in (pv, flat[:4], flat.reshape(2, 4), flat.reshape(8, 1), np.zeros((2, 9)), 1.0):
        with pytest.raises(DimensionMismatchError):
            value_on_product(canonical_witness, bad)


def test_is_completely_positive():
    # a map is completely positive iff its assembled matrix is positive
    # semidefinite, the test demo 01 prints
    def completely_positive(table):
        return hermitian_eigenvalues(choi_matrix(table).matrix)[0] >= 0

    # phi(x, y) = tr(x) tr(y) I has Choi matrix I, clearly positive
    blocks = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            blocks[i, i, k, k] += np.eye(2)
    assert completely_positive(MultilinearMapTable(blocks))
    assert not completely_positive(bilinear_map(CANONICAL))
    zero = MultilinearMapTable(np.zeros((2, 2, 2, 2, 2, 2)))
    assert completely_positive(zero)
