"""Tensor-product structure over parties.

Index convention is big-endian throughout: for local dimensions
(d_1, ..., d_n), the flat index of (i_1, ..., i_n) is
i_1 * (d_2 ... d_n) + ... + i_n, i.e. party 1 is most significant.
Party subsets are tuples of 1-based party indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from string import ascii_lowercase
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidCutError
from .linalg import TOLERANCES, hermitian_eigenvalues, numerical_ranks, require_hermitian


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


def subset_complement(subset: Iterable[int], n: int) -> tuple[int, ...]:
    s = set(subset)
    return tuple(j for j in range(1, n + 1) if j not in s)


def _check_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    s = tuple(sorted(set(int(j) for j in subset)))
    if any(j < 1 or j > n for j in s):
        raise InvalidCutError(f"party subset {s} out of range for {n} parties")
    return s


@dataclass
class ProductVector:
    """One local vector per party; the flattened vector is their Kronecker product."""

    factors: list[np.ndarray]

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=complex).reshape(-1) for f in self.factors]
        if len(self.factors) < 2:
            raise DimensionMismatchError("a product vector needs at least two factors")

    @property
    def shape(self) -> TensorShape:
        return TensorShape(tuple(f.shape[0] for f in self.factors))


def product_vector(*factors) -> ProductVector:
    return ProductVector(list(factors))


def kron_rows(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product along the last axis, left to right under the
    big-endian convention: party factors stacked as (..., d_j), with equal
    leading axes, give the flattened vectors (..., d_1 ... d_n)."""
    flat = factors[0]
    for f in factors[1:]:
        dim = flat.shape[-1] * f.shape[-1]
        flat = (flat[..., :, None] * f[..., None, :]).reshape(*f.shape[:-1], dim)
    return flat


def flatten(pv: ProductVector) -> np.ndarray:
    """Kronecker product of the factors under the big-endian convention."""
    return kron_rows(pv.factors)


@dataclass
class State:
    """A Hermitian matrix on the full tensor space, possibly unnormalized."""

    matrix: np.ndarray
    shape: TensorShape
    normalized: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.shape.total_dim, self.shape.total_dim):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match dims {self.shape.dims}"
            )


def state_from(matrix, dims: Sequence[int]) -> State:
    """Wrap a matrix as a State, flagged normalized when tr = 1 within tolerance."""
    shape = TensorShape(tuple(dims))
    m = np.asarray(matrix, dtype=complex)
    tr = complex(np.trace(m)) if m.size else 0.0
    return State(matrix=m, shape=shape, normalized=abs(tr - 1.0) < TOLERANCES["trace"])


def product_state(pv: ProductVector) -> State:
    """Projector onto the flattened product vector (unnormalized if pv is)."""
    v = flatten(pv)
    return state_from(np.outer(v, v.conj()), pv.shape.dims)


def partial_transpose(state: State, subset: Iterable[int]) -> np.ndarray:
    """Transpose the tensor factors indexed by `subset` (1-based), leave the rest.

    The empty subset is the identity, the full subset the ordinary transpose.
    """
    dims = state.shape.dims
    n = len(dims)
    sub = _check_subset(subset, n)
    t = state.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for party in sub:
        k = party - 1
        axes[k], axes[n + k] = axes[n + k], axes[k]
    return t.transpose(axes).reshape(state.matrix.shape).copy()


def partial_conjugate(pv: ProductVector, subset: Iterable[int]) -> ProductVector:
    """Conjugate the factors indexed by `subset` entrywise; on pure product
    states this realizes the partial transpose of the projector."""
    n = len(pv.factors)
    sub = set(_check_subset(subset, n))
    return ProductVector(
        [f.conj() if (j + 1) in sub else f.copy() for j, f in enumerate(pv.factors)]
    )


def conjugation_stack(pvs: Sequence[ProductVector], shape: TensorShape) -> np.ndarray:
    """`flatten(partial_conjugate(pv, subset))` for every subset and pv, as one
    (2^n, len(pvs), total_dim) array, subsets in `all_subsets` order: party
    j's factors are conjugated where bit j of the subset mask is set."""
    masks = np.arange(2**shape.n_parties)[:, None, None]
    parties = []
    for j, d in enumerate(shape.dims):
        f = np.array([pv.factors[j] for pv in pvs], dtype=complex).reshape(len(pvs), d)
        parties.append(np.where(masks >> j & 1, f.conj(), f))
    return kron_rows(parties)


def conjugation_ranks(
    pvs: Sequence[ProductVector], shape: TensorShape, tol: float = TOLERANCES["rank"]
) -> dict[tuple[int, ...], int]:
    """Rank of each subset's conjugated family of `conjugation_stack`, all
    2^n from one stacked SVD (`numerical_ranks`)."""
    ranks = numerical_ranks(conjugation_stack(pvs, shape), tol)
    return dict(zip(all_subsets(shape.n_parties), ranks.tolist()))


def party_script(
    n: int,
    terms: Callable[[int, str, str], Sequence[str]],
    out: str = "",
    open_party: int | None = None,
) -> str:
    """einsum script contracting an n-party matrix, reshaped to dims + dims
    and first in the script, with operands per party.

    The matrix carries all row labels, then all column labels.
    `terms(j, row, col)` gives the subscripts of party j's operands. The
    open party is not contracted: its row and column follow `out` in the
    output.
    """
    letters = ascii_lowercase[: 2 * n]
    rows, cols = letters[:n], letters[n:]
    subs = [sub for j in range(n) if j != open_party for sub in terms(j, rows[j], cols[j])]
    if open_party is not None:
        out += rows[open_party] + cols[open_party]
    return ",".join([letters] + subs) + "->" + out


@dataclass
class PptReport:
    """Verdict plus the smallest partial-transpose eigenvalue per subset."""

    is_ppt: bool
    min_eigenvalues: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.is_ppt


def is_ppt(state: State, tol: float = TOLERANCES["psd"]) -> PptReport:
    """Check positivity of every partial transpose, all 2^n subsets.

    The empty subset (positivity of the state itself) is included, and so are
    complementary pairs even though they carry equal spectra; the redundancy
    is cheap and doubles as a self-check. The empty subset, first, also
    rejects a non-Hermitian state.
    """
    table: dict[tuple[int, ...], float] = {}
    for sub in all_subsets(state.shape.n_parties):
        evals = hermitian_eigenvalues(partial_transpose(state, sub))
        table[sub] = float(evals[0])
    return PptReport(is_ppt=all(v >= -tol for v in table.values()), min_eigenvalues=table)


@dataclass
class InteriorReport:
    """Partial-transpose ranks; full_rank means every rank equals the total dimension.

    Together with a PPT verdict this certifies an interior point of the PPT cone.
    """

    full_rank: bool
    ranks: dict[tuple[int, ...], int] = field(default_factory=dict)
    dimension: int = 0

    def __bool__(self) -> bool:
        return self.full_rank


def ppt_interior_check(state: State) -> InteriorReport:
    require_hermitian(state.matrix)
    d = state.shape.total_dim
    subsets = all_subsets(state.shape.n_parties)
    stack = np.array([partial_transpose(state, sub) for sub in subsets])
    ranks = dict(zip(subsets, numerical_ranks(stack).tolist()))
    return InteriorReport(full_rank=all(r == d for r in ranks.values()), ranks=ranks, dimension=d)
