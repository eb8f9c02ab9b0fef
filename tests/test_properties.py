"""Properties over random Hermitian 8x8 matrices, random party subsets and
random witness parameters.

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
    FamilyParams,
    Witness,
    choi_matrix,
    hermitian_eigenvalues,
    map_from_choi,
    pairing,
    partial_transpose,
    state_from,
    subset_complement,
    trace_pairing,
    value_on_product,
    witness_matrix,
)
from spanwitness.report import Context, _closed_form_spectrum, check_cut_negativity

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _hermitian(parts: np.ndarray) -> np.ndarray:
    # (A + A^H) / 2 is Hermitian bit for bit: x - y rounds to -(y - x)
    a = parts[0] + 1j * parts[1]
    return (a + a.conj().T) / 2


hermitian8 = arrays(np.float64, (2, 8, 8), elements=_ENTRIES).map(_hermitian)
subsets3 = st.sets(st.integers(1, 3)).map(lambda s: tuple(sorted(s)))
log_uniform = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


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


@PROPERTY
@given(log_uniform, log_uniform)
def test_cut_certificates_reach_the_spectral_floor_exactly(s, t):
    params = FamilyParams(s, t)
    ok, values = check_cut_negativity(Context(params), TOLERANCES["seesaw"])
    witness = witness_matrix(params)
    for key, pairs in values["vectors"].items():
        v = np.array([complex(re, im) for re, im in pairs])
        # product across its cut: rank 1 with the cut party's axis first
        cut = int(key[0]) - 1
        across = np.moveaxis(v.reshape(2, 2, 2), cut, 0).reshape(2, 4)
        assert np.linalg.matrix_rank(across) == 1
        assert float(np.vdot(v, v).real) == 4.0
        assert value_on_product(witness, v) == -4.0
    # the central block's smaller eigenvalue stays above the floor -1
    spectrum = _closed_form_spectrum(params)
    assert spectrum[:3] == [-1.0, -1.0, -1.0] and spectrum[3] > -1.0
    assert ok and values["floor"] == -1.0
    assert list(values["minima"].values()) == [-1.0, -1.0, -1.0]
