import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    DimensionMismatchError,
    MultilinearMapTable,
    NonHermitianMapError,
    NonRealPairingError,
    NotHermitianError,
    ProductVector,
    TensorShape,
    THREE_QUBITS,
    Witness,
    bilinear_map,
    biseparable_vector,
    choi_matrix,
    evaluate,
    flatten,
    hermitian_eigenvalues,
    map_from_choi,
    pairing,
    state_from,
    value_on_product,
    x_state,
    zeta_vector,
)
from spanwitness.family import SQRT2, ZeroFamily


def random_hermitian_table(rng):
    w = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    w = (w + w.conj().T) / 2
    return map_from_choi(Witness(matrix=w, shape=THREE_QUBITS))


def test_choi_single_block():
    blocks = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    blocks[0, 0, 0, 0, 0, 0] = 1.0  # image of (|0><0|, |0><0|) is E00
    w = choi_matrix(MultilinearMapTable(shape=THREE_QUBITS, blocks=blocks))
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.array_equal(w.matrix, expected)


def test_choi_of_family_map_is_witness(canonical_witness):
    assembled = choi_matrix(bilinear_map(CANONICAL))
    assert np.array_equal(assembled.matrix, canonical_witness.matrix)


def test_choi_round_trip_exact():
    rng = np.random.default_rng(14)
    table = random_hermitian_table(rng)
    again = map_from_choi(choi_matrix(table))
    assert np.array_equal(again.blocks, table.blocks)
    w = choi_matrix(table)
    assert np.array_equal(choi_matrix(map_from_choi(w)).matrix, w.matrix)


def test_choi_rejects_non_hermitian_table():
    blocks = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    blocks[0, 1, 0, 0, 0, 0] = 1.0  # no conjugate partner at (1, 0, ...)
    with pytest.raises(NonHermitianMapError):
        choi_matrix(MultilinearMapTable(shape=THREE_QUBITS, blocks=blocks))


def test_map_from_choi_identity():
    table = map_from_choi(Witness(matrix=np.eye(8, dtype=complex), shape=THREE_QUBITS))
    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    expected = (i1 == j1) * (i2 == j2) * np.eye(2)
                    assert np.array_equal(table.blocks[i1, j1, i2, j2], expected)


def test_map_from_choi_family_blocks(canonical_witness):
    table = map_from_choi(canonical_witness)
    t = canonical_witness.matrix[3, 3].real
    assert np.array_equal(table.blocks[0, 0, 1, 1], np.diag([0.0, t]))
    # the (0,1,0,1) block collects both off-diagonal slots
    assert np.array_equal(table.blocks[0, 1, 0, 1], np.array([[0, 1], [1, 0]]))


def test_map_from_choi_rejects_non_hermitian():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        map_from_choi(Witness(matrix=m, shape=THREE_QUBITS))


def test_evaluate_pinned_slot():
    table = bilinear_map(CANONICAL)
    rng = np.random.default_rng(1)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p0 = np.array([[1, 0], [0, 0]])
    got = evaluate(table, p0, y)
    t = CANONICAL.t
    assert np.allclose(got, [[0, 0], [0, t * y[1, 1]]], atol=1e-14)


@pytest.mark.parametrize(
    "inputs",
    [
        (np.zeros((72, 2, 3)), np.eye(2)),
        (np.eye(2), np.array([np.eye(2), [[0.0, np.nan], [0.0, 1.0]]])),
        (np.eye(2),),
    ],
    ids=["stack_of_2x3", "nan_inside_a_stack", "one_input_for_two"],
)
def test_evaluate_rejects_malformed_inputs(inputs):
    with pytest.raises(DimensionMismatchError):
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
        pv = ProductVector(
            [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        )
        lhs = value_on_product(w, pv)
        x1 = np.outer(pv.factors[0].conj(), pv.factors[0])
        x2 = np.outer(pv.factors[1].conj(), pv.factors[1])
        image = evaluate(table, x1, x2)
        rhs = float(np.vdot(pv.factors[2], image @ pv.factors[2]).real)
        assert abs(lhs - rhs) < 1e-10


def test_pairing_values(canonical_witness):
    assert abs(pairing(x_state(CANONICAL), canonical_witness) - (8 / SQRT2 - 8)) < 1e-10
    ident = state_from(np.eye(8), (2, 2, 2))
    s = t = 2 * SQRT2
    assert abs(pairing(ident, canonical_witness) - (s + t)) < 1e-12
    v = flatten(ProductVector([[1, 0], [1, 0], [1, 0]]))
    assert pairing(state_from(np.outer(v, v.conj()), (2, 2, 2)), canonical_witness) == 0.0


def test_pairing_matches_quadratic_form_on_conjugate(canonical_witness):
    rng = np.random.default_rng(15)
    for _ in range(25):
        pv = ProductVector(
            [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        )
        v = flatten(ProductVector([f.conj() for f in pv.factors]))
        conj_proj = state_from(np.outer(v, v.conj()), (2, 2, 2))
        assert (
            abs(pairing(conj_proj, canonical_witness) - value_on_product(canonical_witness, pv))
            < 1e-10
        )


def test_pairing_matches_matrix_product():
    # entrywise and unconjugated: tr(rho^T W), not tr(rho W)
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1], a[1, 0] = 1j, -1j
    assert pairing(state_from(a, (2, 2)), Witness(matrix=a, shape=TensorShape((2, 2)))) == -2.0
    rng = np.random.default_rng(9)
    for _ in range(10):
        g, h = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        rho, w = g + g.conj().T, h + h.conj().T
        value = pairing(state_from(rho, (2, 2, 2)), Witness(matrix=w, shape=THREE_QUBITS))
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
        pairing(state_from(a, (2, 2)), Witness(matrix=b, shape=TensorShape((2, 2))))


def test_value_on_product_zero_set(canonical_witness):
    assert value_on_product(canonical_witness, ProductVector([[1, 0], [1, 0], [1, 0]])) == 0.0
    z1 = zeta_vector(ZeroFamily.Z1, 1.0, 1.0, CANONICAL)
    assert abs(value_on_product(canonical_witness, z1)) < 1e-12


def test_value_on_product_biseparable(canonical_witness):
    omega = complex(SQRT2 / 2, SQRT2 / 2)
    val = value_on_product(canonical_witness, biseparable_vector(1, omega))
    assert abs(val + 2.0) < 1e-12



def test_value_on_product_returns_a_float_per_vector_and_an_array_per_stack(canonical_witness):
    pv = ProductVector([[1, 0], [0, 1], [1, 1j]])
    flat = flatten(pv)
    assert type(value_on_product(canonical_witness, pv)) is float
    assert type(value_on_product(canonical_witness, flat)) is float
    stack = value_on_product(canonical_witness, np.stack([flat, 2 * flat]).reshape(2, 1, 8))
    assert isinstance(stack, np.ndarray) and stack.shape == (2, 1)
    assert stack[1, 0] == 4 * stack[0, 0] == 4 * value_on_product(canonical_witness, pv)
    for bad in (flat[:4], flat.reshape(2, 4), flat.reshape(8, 1), np.zeros((2, 9)), 1.0):
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
    assert completely_positive(MultilinearMapTable(shape=THREE_QUBITS, blocks=blocks))
    assert not completely_positive(bilinear_map(CANONICAL))
    zero = MultilinearMapTable(shape=THREE_QUBITS, blocks=np.zeros((2, 2, 2, 2, 2, 2)))
    assert completely_positive(zero)
