"""Multilinear maps as witness matrices and back.

A multilinear map phi from M_{d_1} x ... x M_{d_{n-1}} into M_{d_n} is stored
as its table of matrix-unit images, and corresponds to the matrix

    W_phi = sum |i_1><j_1| (x) ... (x) |i_{n-1}><j_{n-1}| (x) phi(|i_1><j_1|, ...).

W_phi is Hermitian iff the table satisfies block(i, j) = block(j, i)^dagger;
positivity of phi on positive inputs is exactly block positivity of W_phi,
through the identity

    <xi_1 ... xi_n | W_phi | xi_1 ... xi_n>
        = <xi_n | phi(|conj(xi_1)><conj(xi_1)|, ...) | xi_n>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from string import ascii_lowercase

import numpy as np

from .errors import DimensionMismatchError, NonHermitianMapError, NonRealPairingError
from .linalg import TOLERANCES, as_matrix, hermiticity_defect, require_hermitian
from .tensor import ProductVector, State, TensorShape, flatten


@dataclass
class Witness(State):
    """Hermitian matrix on the full tensor space with provenance metadata.

    A useful witness is block positive but not positive semidefinite; both
    facts are checked by callers, never assumed here.
    """

    meta: dict = field(default_factory=dict)


@dataclass
class MultilinearMapTable:
    """Matrix-unit images of a multilinear map.

    `blocks` has axes (i_1, j_1, ..., i_{n-1}, j_{n-1}, k, l): the image of
    the matrix-unit tuple (|i_1><j_1|, ...) is the d_n x d_n matrix
    blocks[i_1, j_1, ..., :, :].
    """

    shape: TensorShape
    blocks: np.ndarray

    def __post_init__(self):
        dims = self.shape.dims
        expected = tuple(d for d in dims[:-1] for _ in range(2)) + (dims[-1], dims[-1])
        self.blocks = np.asarray(self.blocks, dtype=complex)
        if self.blocks.shape != expected:
            raise DimensionMismatchError(
                f"blocks shape {self.blocks.shape} does not match dims {dims}"
            )


def choi_matrix(table: MultilinearMapTable) -> Witness:
    """Assemble W_phi from the block table.

    Pure reindexing, so the round trip with `map_from_choi` is exact.
    Raises NonHermitianMapError when the table violates Hermiticity.
    """
    n = table.shape.n_parties
    row_axes = list(range(0, 2 * n, 2))
    col_axes = list(range(1, 2 * n, 2))
    d = table.shape.total_dim
    w = table.blocks.transpose(row_axes + col_axes).reshape(d, d).copy()
    defect = hermiticity_defect(w)
    if defect > TOLERANCES["hermiticity"]:
        raise NonHermitianMapError(
            f"map table violates block(i,j) = block(j,i)^dagger: defect {defect:.3e}"
        )
    return Witness(matrix=w, shape=table.shape, meta={})


def map_from_choi(witness: Witness) -> MultilinearMapTable:
    """Extract the block table of a Hermitian witness; inverse of `choi_matrix`."""
    a = require_hermitian(witness.matrix)
    dims = witness.shape.dims
    n = len(dims)
    t = a.reshape(dims + dims)
    perm = [axis for j in range(n) for axis in (j, n + j)]
    return MultilinearMapTable(shape=witness.shape, blocks=t.transpose(perm).copy())


def evaluate(table: MultilinearMapTable, *inputs) -> np.ndarray:
    """Multilinear extension of the block table to arbitrary matrix inputs."""
    dims = table.shape.dims
    n = len(dims)
    if len(inputs) != n - 1:
        raise DimensionMismatchError(f"map takes {n - 1} inputs, got {len(inputs)}")
    xs = []
    for j, x in enumerate(inputs):
        m = as_matrix(x)
        if m.shape != (dims[j], dims[j]):
            raise DimensionMismatchError(
                f"input {j + 1} has shape {m.shape}, expected ({dims[j]}, {dims[j]})"
            )
        xs.append(m)
    # the block table's axes are (row, column) party by party, output last
    letters = ascii_lowercase[: 2 * n]
    inputs = [letters[2 * j : 2 * j + 2] for j in range(n - 1)]
    return np.einsum(",".join(inputs + [letters]) + "->" + letters[-2:], *xs, table.blocks)


def pairing(state: State, witness: Witness) -> float:
    """<rho, W> = tr(W rho^T), the entrywise sum of products.

    For Hermitian operands this is real; a residual imaginary part above
    its tolerance raises NonRealPairingError. Negative values mean detection.
    """
    if state.shape != witness.shape:
        raise DimensionMismatchError(
            f"state dims {state.shape.dims} do not match witness dims {witness.shape.dims}"
        )
    # as_matrix: the finiteness check on a state read from outside the program
    val = complex(np.sum(as_matrix(state.matrix) * as_matrix(witness.matrix)))
    if abs(val.imag) > TOLERANCES["imaginary"]:
        raise NonRealPairingError(f"pairing has imaginary part {val.imag:.3e}")
    return float(val.real)


def value_on_product(witness: Witness, pv) -> float:
    """<xi|W|xi> for a product vector (or any flat vector of matching dimension)."""
    v = np.asarray(pv, dtype=complex).reshape(-1) if not isinstance(pv, ProductVector) else flatten(pv)
    if v.shape[0] != witness.shape.total_dim:
        raise DimensionMismatchError(
            f"vector dimension {v.shape[0]} does not match witness dimension "
            f"{witness.shape.total_dim}"
        )
    return float(complex(np.vdot(v, witness.matrix @ v)).real)
