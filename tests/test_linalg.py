import math

import numpy as np
import pytest

from spanwitness import (
    CANONICAL,
    NotHermitianError,
    default_zero_sample,
    hermitian_eigenvalues,
)
from spanwitness.family import CANONICAL_TEN_ROWS, PV1_FAMILIES
from spanwitness.linalg import numerical_ranks
from spanwitness.tensor import kron_rows

SQRT2 = math.sqrt(2.0)


def block_pair_spectrum(s, t):
    """Oracle: the witness is block diagonal in the index pairs {0,7}, {1,6},
    {2,5}, {3,4}; solve each 2x2 block by the quadratic formula."""
    out = [-1.0, 1.0]          # [[0, 1], [1, 0]]
    out += [-1.0, 1.0]         # [[0, 1], [1, 0]]
    out += [-1.0, 1.0]         # [[0, -1], [-1, 0]]
    disc = math.sqrt((s - t) ** 2 + 4.0)
    out += [(s + t - disc) / 2.0, (s + t + disc) / 2.0]
    return sorted(out)


def test_eigenvalues_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])


def test_eigenvalues_symmetric_flip():
    assert np.allclose(hermitian_eigenvalues(np.array([[0, 1], [1, 0]])), [-1, 1])


def test_eigenvalues_witness_block_oracle(canonical_witness):
    evals = hermitian_eigenvalues(canonical_witness.matrix)
    expected = block_pair_spectrum(2 * SQRT2, 2 * SQRT2)
    assert np.max(np.abs(evals - np.array(expected))) < 1e-10


def test_eigenvalues_not_hermitian_raises():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-9


def test_eigenvalues_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (g + g.conj().T) / 2
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        rotated = q @ h @ q.conj().T
        assert np.max(np.abs(hermitian_eigenvalues(h) - hermitian_eigenvalues(rotated))) < 1e-8


def test_numerical_rank_dependent_triple():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert numerical_ranks(np.array([e0, e1, e0 + e1])) == 2


def test_numerical_rank_tolerance_is_on_singular_values():
    # singular values 1 and ~1e-6: independent at a 1e-8 relative tolerance
    # (a Gram-eigenvalue threshold would square it away), dependent at 1e-5
    e0 = np.array([1.0, 0.0])
    tilted = np.array([1.0, 1e-6])
    assert numerical_ranks(np.array([e0, tilted])) == 2
    assert numerical_ranks(np.array([e0, tilted]), tol=1e-5) == 1


def test_numerical_rank_pv1_families_span_six():
    labels, factors = default_zero_sample(CANONICAL)
    vecs = kron_rows(factors)[[fam in PV1_FAMILIES for fam in labels]]
    assert len(vecs) == 24
    assert numerical_ranks(vecs) == 6


def test_numerical_rank_canonical_ten_is_eight():
    assert numerical_ranks(kron_rows(default_zero_sample(CANONICAL)[1])[list(CANONICAL_TEN_ROWS)]) == 8


def test_numerical_rank_random_independent():
    rng = np.random.default_rng(3)
    for k in (1, 3, 6, 8):
        vecs = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(k)]
        assert numerical_ranks(np.array(vecs)) == k
