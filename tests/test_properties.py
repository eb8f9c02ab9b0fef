"""Properties over random Hermitian 8x8 matrices and random party subsets.

Derandomized and small, so every run draws the same few examples and the
suite stays deterministic and fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spanwitness import (
    THREE_QUBITS,
    TOLERANCES,
    Witness,
    choi_matrix,
    hermitian_eigenvalues,
    map_from_choi,
    pairing,
    partial_transpose,
    state_from,
    subset_complement,
    trace_pairing,
)

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _hermitian(parts: np.ndarray) -> np.ndarray:
    # (A + A^H) / 2 is Hermitian bit for bit: x - y rounds to -(y - x)
    a = parts[0] + 1j * parts[1]
    return (a + a.conj().T) / 2


hermitian8 = arrays(np.float64, (2, 8, 8), elements=_ENTRIES).map(_hermitian)
subsets3 = st.sets(st.integers(1, 3)).map(lambda s: tuple(sorted(s)))


@PROPERTY
@given(hermitian8, subsets3)
def test_partial_transpose_is_an_involution(h, subset):
    once = partial_transpose(state_from(h, THREE_QUBITS.dims), subset)
    twice = partial_transpose(state_from(once, THREE_QUBITS.dims), subset)
    assert np.array_equal(twice, h)


@PROPERTY
@given(hermitian8, subsets3)
def test_complementary_subsets_give_equal_spectra(h, subset):
    state = state_from(h, THREE_QUBITS.dims)
    ours = hermitian_eigenvalues(partial_transpose(state, subset))
    theirs = hermitian_eigenvalues(partial_transpose(state, subset_complement(subset, 3)))
    # the two partial transposes are each other's transpose; eigvalsh errs by
    # a few ulps of the spectral norm
    scale = max(1.0, float(np.max(np.abs(ours))))
    assert np.max(np.abs(ours - theirs)) <= 1e-13 * scale


@PROPERTY
@given(hermitian8)
def test_choi_matrix_inverts_map_from_choi(h):
    w = Witness(matrix=h, shape=THREE_QUBITS)
    assert np.array_equal(choi_matrix(map_from_choi(w)).matrix, h)


@PROPERTY
@given(hermitian8, hermitian8)
def test_pairing_of_hermitian_operands_is_real(rho, w):
    value = pairing(state_from(rho, THREE_QUBITS.dims), Witness(matrix=w, shape=THREE_QUBITS))
    exact = trace_pairing(rho, w)
    assert type(value) is float and value == exact.real
    assert abs(exact.imag) <= TOLERANCES["imaginary"]
