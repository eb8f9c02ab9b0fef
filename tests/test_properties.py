"""Properties over random Hermitian 8x8 matrices, random party subsets and
random witness parameters.

Derandomized and small, so every run draws the same few examples and the
suite stays deterministic and fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spanwitness import (
    State,
    THREE_QUBITS,
    TOLERANCES,
    FamilyParams,
    all_subsets,
    choi_matrix,
    hermitian_eigenvalues,
    hermiticity_defect,
    pairing,
    partial_transpose,
    state_from,
    value_on_product,
    witness_matrix,
)
from spanwitness.linalg import qubit_lowest
from spanwitness.report import Context, _closed_form_spectrum, check_cut_negativity
from spanwitness.family import GRID_MODULI, GRID_PHASES
from spanwitness.seesaw import _lowest_eigenpairs
from test_maps import block_table

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _hermitian(parts: np.ndarray) -> np.ndarray:
    # (A + A^H) / 2 is Hermitian bit for bit: x - y rounds to -(y - x)
    a = parts[0] + 1j * parts[1]
    return (a + a.conj().T) / 2


hermitian8 = arrays(np.float64, (2, 8, 8), elements=_ENTRIES).map(_hermitian)
general8 = arrays(np.float64, (2, 8, 8), elements=_ENTRIES).map(lambda parts: parts[0] + 1j * parts[1])
subsets3 = st.sets(st.integers(1, 3)).map(lambda s: tuple(sorted(s)))
log_uniform = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


@PROPERTY
@given(hermitian8, subsets3)
def test_partial_transpose_is_an_involution(h, subset):
    once = partial_transpose(state_from(h, THREE_QUBITS.dims), subset)
    twice = partial_transpose(state_from(once, THREE_QUBITS.dims), subset)
    assert np.array_equal(twice, h)


@PROPERTY
@given(general8)
def test_partial_transposes_keep_the_hermiticity_defect(m):
    # PT_S(M) - PT_S(M)^H = PT_S(M - M^H): every partial transpose permutes the
    # same pairs of entries, so a Hermiticity check on the state covers them all
    state = state_from(m, THREE_QUBITS.dims)
    defects = [hermiticity_defect(partial_transpose(state, sub)) for sub in all_subsets(3)]
    assert defects == [hermiticity_defect(m)] * 8


@PROPERTY
@given(hermitian8, subsets3)
def test_complementary_subsets_give_equal_spectra(h, subset):
    state = state_from(h, THREE_QUBITS.dims)
    ours = hermitian_eigenvalues(partial_transpose(state, subset))
    complement = tuple(j for j in (1, 2, 3) if j not in subset)
    theirs = hermitian_eigenvalues(partial_transpose(state, complement))
    # the two partial transposes are each other's transpose; eigvalsh errs by
    # a few ulps of the spectral norm
    scale = max(1.0, float(np.max(np.abs(ours))))
    assert np.max(np.abs(ours - theirs)) <= 1e-13 * scale


@PROPERTY
@given(hermitian8)
def test_choi_matrix_inverts_the_block_table(h):
    assert np.array_equal(choi_matrix(block_table(h)).matrix, h)


@PROPERTY
@given(hermitian8, hermitian8)
def test_pairing_of_hermitian_operands_is_real(rho, w):
    value = pairing(state_from(rho, THREE_QUBITS.dims), State(matrix=w, shape=THREE_QUBITS))
    exact = complex(np.sum(rho * w))
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


def grid_candidates() -> np.ndarray:
    """Both poles and (1, z) / |(1, z)| per z = m e^{2 pi i k / GRID_PHASES}."""
    points = [m * np.exp(2j * np.pi * k / GRID_PHASES) for m in GRID_MODULI for k in range(GRID_PHASES)]
    return np.array([[1, 0], [0, 1], *([1, z] / np.hypot(1, abs(z)) for z in points)])


def grid_oracle(w: np.ndarray, n: int) -> float:
    """Minimum of <xi|W|xi> over every flattened product of n grid candidates."""
    cand = grid_candidates()
    rest = np.ones((1, 1))
    for _ in range(n - 1):
        rest = (rest[:, None, :, None] * cand[None, :, None, :]).reshape(len(rest) * len(cand), -1)
    # one first-party candidate at a time keeps the flattened block small
    flats = ((c[:, None] * rest[:, None, :]).reshape(len(rest), -1) for c in cand)
    return min(float(((xi.conj() @ w) * xi).sum(axis=1).real.min()) for xi in flats)


stacks2 = arrays(np.float64, (2, 4, 2, 2), elements=_ENTRIES).map(lambda p: p[0] + 1j * p[1])
EPS = np.finfo(float).eps


def assert_lowest_eigenpairs_match_eigh(h: np.ndarray) -> None:
    kets, values = _lowest_eigenpairs(h)
    # the see-saw's step and the rank-one grid read one eigenvalue formula
    mag = np.abs((h[..., 0, 1] + h[..., 1, 0].conj()) / 2)
    assert np.array_equal(values, qubit_lowest(h[..., 0, 0].real, h[..., 1, 1].real, mag)[1])
    herm = (h + h.conj().swapaxes(-1, -2)) / 2
    want = np.linalg.eigh(herm)[0][:, 0]
    for m, ket, value, lo in zip(herm, kets, values, want):
        scale = np.linalg.norm(m, 2)
        assert abs(value - lo) <= 4 * EPS * scale
        assert abs(np.linalg.norm(ket) - 1.0) <= 1e-15
        assert np.linalg.norm(m @ ket - value * ket) <= 8 * EPS * scale


@PROPERTY
@given(st.one_of(stacks2, stacks2.map(lambda a: (a + a.conj().swapaxes(-1, -2)) / 2)))
def test_qubit_lowest_eigenpairs_match_eigh(h):
    assert_lowest_eigenpairs_match_eigh(h)


@pytest.mark.parametrize(
    "h",
    [
        np.zeros((2, 2)),
        3.0 * np.eye(2),
        -0.5 * np.eye(2),
        np.diag([-1.0, 2.0]),
        np.diag([2.0, -1.0]),
        np.array([[1.0, 1e-300j], [-1e-300j, 1.0]]),
        np.array([[1.0, 1e-300], [1e-300, 3.0]]),
        1e150 * np.array([[0.7, 1.3 - 0.4j], [1.3 + 0.4j, -0.9]]),
        1e150 * np.array([[1.0, 0.5j], [0.2, 1.0]]),
    ],
    ids=["zero", "3I", "-I/2", "a<d", "a>d", "tiny-b", "tiny-b-split", "1e150", "1e150-non-hermitian"],
)
def test_qubit_lowest_eigenpairs_edge_cases(h):
    assert_lowest_eigenpairs_match_eigh(np.asarray(h, dtype=complex)[None])


vector_stacks = arrays(np.float64, (2, 2, 3, 8), elements=_ENTRIES).map(lambda p: p[0] + 1j * p[1])


@PROPERTY
@given(hermitian8, vector_stacks)
def test_stacked_value_on_product_matches_vdot_row_by_row(h, vs):
    witness = State(matrix=h, shape=THREE_QUBITS)
    got = value_on_product(witness, vs)
    assert got.shape == (2, 3)
    bound = 8 * EPS * np.linalg.norm(h, 2)
    for value, v in zip(got.reshape(-1), vs.reshape(-1, 8)):
        assert abs(value - np.vdot(v, h @ v).real) <= bound * np.vdot(v, v).real
        assert value == value_on_product(witness, v)
