"""Dense complex linear algebra primitives sized for small tensor systems.

Everything here is a pure function on numpy arrays. Numerical ranks count
singular values above a tolerance relative to the largest one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError

# Absolute Hermiticity tolerance; all constructions in this package have
# entries of order one, so an absolute threshold is appropriate.
HERMITICITY_ATOL = 1e-9

# Default rank tolerance, relative to the largest singular value.
RANK_RTOL = 1e-8


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatchError("matrix contains non-finite entries")
    return a


def hermiticity_defect(m) -> float:
    """max |M[i,j] - conj(M[j,i])| over all entries."""
    a = as_matrix(m)
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(m, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if defect > atol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |M - M^H| = {defect:.3e} > {atol:.1e}"
        )
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product, big-endian block convention.

    Entry ((i*dB + k), (j*dB + l)) of the result is A[i, j] * B[k, l].
    """
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_eigenvalues(m, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises NotHermitianError if the Hermiticity defect exceeds `atol`.
    """
    a = require_hermitian(m, atol)
    return np.linalg.eigvalsh(a)


class PsdCheck(NamedTuple):
    ok: bool
    min_eigenvalue: float


def is_psd(m, tol: float = 1e-10, atol: float = HERMITICITY_ATOL) -> PsdCheck:
    """Positive semidefiniteness up to -tol, reporting the smallest eigenvalue."""
    evals = hermitian_eigenvalues(m, atol)
    lo = float(evals[0])
    return PsdCheck(lo >= -tol, lo)


def numerical_rank(vectors: Sequence, tol: float = RANK_RTOL) -> int:
    """Rank of a family of vectors, from its singular values.

    Counts singular values of the stacked vectors exceeding `tol` times the
    largest one. An empty or all-zero family has rank 0.
    """
    if tol <= 0:
        raise DimensionMismatchError("rank tolerance must be positive")
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        return 0
    dim = vecs[0].shape[0]
    if any(v.shape[0] != dim for v in vecs):
        raise DimensionMismatchError("vectors must share a common dimension")
    sv = np.linalg.svd(np.array(vecs), compute_uv=False)
    top = float(sv[0])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * top))


def trace_pairing(a, b) -> complex:
    """Bilinear pairing <A, B> = tr(A^T B) = sum_ij A[i,j] * B[i,j].

    Note the transpose: the sum is entrywise and unconjugated.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(
            f"pairing needs equal shapes, got {am.shape} and {bm.shape}"
        )
    return complex(np.sum(am * bm))
