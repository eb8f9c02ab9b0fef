"""Dense complex linear algebra primitives sized for small tensor systems,
and the package's one table of numeric thresholds.

Everything here is a pure function on numpy arrays. Numerical ranks count
singular values above a tolerance relative to the largest one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, UsageError

# Every numeric threshold of the package, one entry per role, commented with
# what it bounds and in which unit: absolute on matrix entries, absolute on
# eigenvalues (so also on <xi|W|xi> for unit xi and on pairings <rho, W>),
# or relative to a stated scale.
TOLERANCES = {
    # recorded in every report; a command's --tol overrides one (cli.TOL_OPTIONS)
    "pairing": 1e-10,  # eigenvalues: pairings, zero-set and bi-separable values
    "seesaw": 1e-7,  # eigenvalues: see-saw minimum and cut certificate values
    "rank": 1e-8,  # relative: singular values that count toward a numerical rank
    "eigenvalue": 1e-9,  # eigenvalues, relative to max(1, |W|): W's spectrum vs its closed form
    # fixed
    "hermiticity": 1e-9,  # entries: max |M - M^H| of a matrix taken as Hermitian
    "psd": 1e-10,  # eigenvalues: a smallest eigenvalue >= -psd is positive
    "certificate": 1e-10,  # entries: a separable decomposition against its state
    "imaginary": 1e-10,  # eigenvalues: Im <rho, W>, zero for Hermitian operands
    "determinant": 1e-10,  # eigenvalues squared: det of a 2x2 rank-one image against D
    "strict": 1e-12,  # relative to the largest eigenvalue: a smallest one above it is positive
    "grid_slack": 1e-6,  # eigenvalues: how far the see-saw minimum may exceed the grid's
    "sweep": 1e-12,  # eigenvalues: a see-saw restart stops once a sweep gains less
    "rounding": 1e-12,  # entries and eigenvalues: fixtures against their closed forms
    "variety": 1e-12,  # absolute on s t - 8: the curve s t = 8
    "exact": 0.0,  # entries: equal bit for bit
}

DEFAULT_TOLERANCES = {k: TOLERANCES[k] for k in ("pairing", "seesaw", "rank", "eigenvalue")}


def document_tolerances(**overrides: float) -> dict:
    """`DEFAULT_TOLERANCES` with overrides, each finite and >= 0 (the rank
    tolerance > 0); raises UsageError otherwise."""
    for key, value in overrides.items():
        if not (math.isfinite(value) and (value > 0 or value == 0 and key != "rank")):
            bound = "> 0" if key == "rank" else ">= 0"
            raise UsageError(f"{key} tolerance must be finite and {bound}, got {value!r}")
    return dict(DEFAULT_TOLERANCES, **overrides)


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
    return _defect(as_matrix(m))


def _defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(m) -> np.ndarray:
    a = as_matrix(m)
    defect = _defect(a)
    if defect > TOLERANCES["hermiticity"]:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |M - M^H| = {defect:.3e}"
            f" > {TOLERANCES['hermiticity']:.1e}"
        )
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix; NotHermitianError otherwise."""
    return np.linalg.eigvalsh(require_hermitian(m))


def qubit_hermitian_parts(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each 2x2 matrix of a stack, with [[a, b], [b*, d]] its Hermitian
    part: b, |b|, (a - d)/2 and the smallest eigenvalue
    (a + d)/2 - hypot((a - d)/2, |b|)."""
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    b = (m[..., 0, 1] + m[..., 1, 0].conj()) / 2
    mag, half = np.abs(b), (a - d) / 2
    return b, mag, half, (a + d) / 2 - np.hypot(half, mag)


def lowest_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each 2x2 matrix of a stack."""
    return qubit_hermitian_parts(m)[-1]


def numerical_rank(vectors: Sequence, tol: float = TOLERANCES["rank"]) -> int:
    """Rank of a family of vectors (`numerical_ranks`); an empty family has rank 0."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if len({v.shape[0] for v in vecs}) > 1:
        raise DimensionMismatchError("vectors must share a common dimension")
    return int(numerical_ranks(np.array(vecs) if vecs else np.zeros((0, 0)), tol))


def numerical_ranks(stack: np.ndarray, tol: float = TOLERANCES["rank"]) -> np.ndarray:
    """Ranks of vector families stacked as (..., vectors, dim), from one SVD: per
    family, the count of singular values above `tol` times its largest one."""
    if tol <= 0:
        raise DimensionMismatchError("rank tolerance must be positive")
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(sv > tol * sv[..., :1], axis=-1)
