"""Tensor-product structure over parties.

Index convention is big-endian throughout: for local dimensions
(d_1, ..., d_n), the flat index of (i_1, ..., i_n) is
i_1 * (d_2 ... d_n) + ... + i_n, i.e. party 1 is most significant.
Party subsets are tuples of 1-based party indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidCutError
from .linalg import TOLERANCES, hermitian_eigenvalues, singular_value_ranks


@dataclass(frozen=True)
class TensorShape:
    """Ordered local dimensions (d_1, ..., d_n), n >= 2, each d_j >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2 or any(d < 2 for d in dims):
            raise DimensionMismatchError(f"need n >= 2 parties of dimension >= 2, got {dims}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


THREE_QUBITS = TensorShape((2, 2, 2))


def all_subsets(n: int) -> list[tuple[int, ...]]:
    """All 2^n party subsets, in bitmask order (party j <-> bit j-1)."""
    return [tuple(j + 1 for j in range(n) if mask >> j & 1) for mask in range(2**n)]


def check_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    s = tuple(sorted(set(int(j) for j in subset)))
    if any(j < 1 or j > n for j in s):
        raise InvalidCutError(f"party subset {s} out of range for {n} parties")
    return s


def kron_rows(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product along the last axis, left to right under the
    big-endian convention: party factors stacked as (..., d_j), with equal
    leading axes, give the flattened vectors (..., d_1 ... d_n)."""
    flat = factors[0]
    for f in factors[1:]:
        dim = flat.shape[-1] * f.shape[-1]
        flat = (flat[..., :, None] * f[..., None, :]).reshape(*f.shape[:-1], dim)
    return flat


@dataclass
class State:
    """A Hermitian matrix on the full tensor space, possibly unnormalized."""

    matrix: np.ndarray
    shape: TensorShape

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.shape.total_dim, self.shape.total_dim):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match dims {self.shape.dims}"
            )


def state_from(matrix, dims: Sequence[int]) -> State:
    """Wrap a matrix as a State on the parties of local dimensions `dims`."""
    return State(matrix=matrix, shape=TensorShape(tuple(dims)))


def partial_transpose(state: State, subset: Iterable[int]) -> np.ndarray:
    """Transpose the tensor factors indexed by `subset` (1-based), leave the rest.

    The empty subset is the identity, the full subset the ordinary transpose.
    """
    dims = state.shape.dims
    n = len(dims)
    sub = check_subset(subset, n)
    t = state.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for party in sub:
        k = party - 1
        axes[k], axes[n + k] = axes[n + k], axes[k]
    return t.transpose(axes).reshape(state.matrix.shape).copy()


def conjugation_stack(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Each product vector with the factors of every party subset conjugated
    entrywise, flattened; on a pure product state this realizes the partial
    transpose of its projector. From each party's factors as one complex
    (N, d_j) array, row i of each party making vector i: one (2^n, N,
    total_dim) array, subsets in `all_subsets` order, party j's factors
    conjugated where bit j of the subset mask is set."""
    masks = np.arange(2 ** len(factors))[:, None, None]
    return kron_rows([np.where(masks >> j & 1, f.conj(), f) for j, f in enumerate(factors)])


def conjugation_ranks(stack: np.ndarray, tol: float = TOLERANCES["rank"]) -> dict:
    """`numerical_ranks` of a `conjugation_stack`, keyed by subset: `subset_ranks` of its first half's SVD."""
    return subset_ranks(np.linalg.svd(stack[: len(stack) // 2], compute_uv=False), tol)


def subset_ranks(half: np.ndarray, tol: float = TOLERANCES["rank"]) -> dict:
    """Ranks keyed by subset from the singular values of a conjugation stack's first half:
    mask 2^n - 1 - m is mask m's entrywise conjugate, with the same singular values."""
    ranks = singular_value_ranks(half, tol).tolist()
    return dict(zip(all_subsets(len(half).bit_length()), ranks + ranks[::-1]))


@dataclass
class PptReport:
    """Verdict plus the smallest partial-transpose eigenvalue per subset, and
    the least ratio of that eigenvalue to its matrix's spectral norm (0 for 0)."""

    is_ppt: bool
    min_eigenvalues: dict[tuple[int, ...], float] = field(default_factory=dict)
    min_ratio: float = math.nan


def is_ppt(state: State, tol: float = TOLERANCES["psd"]) -> PptReport:
    """Check positivity of every partial transpose, all 2^n subsets.

    The empty subset (positivity of the state itself) is included, and so are
    complementary pairs even though they carry equal spectra; the redundancy
    is cheap and doubles as a self-check. The empty subset, first, also
    rejects a non-Hermitian state.
    """
    table: dict[tuple[int, ...], float] = {}
    ratio = math.inf
    for sub in all_subsets(state.shape.n_parties):
        evals = hermitian_eigenvalues(partial_transpose(state, sub))
        table[sub] = lo = float(evals[0])
        ratio = min(ratio, lo / (max(-lo, float(evals[-1])) or 1.0))
    return PptReport(all(v >= -tol for v in table.values()), table, ratio)
