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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonHermitianMapError, NonRealPairingError
from .linalg import TOLERANCES, as_matrix, hermiticity_defect
from .tensor import State, TensorShape


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

    Pure reindexing: each entry of W is one entry of the table, bit for bit.
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


def evaluate(table: MultilinearMapTable, *inputs) -> np.ndarray:
    """Multilinear extension of the block table to matrix inputs: input j is
    one d_j x d_j matrix or a stack (..., d_j, d_j), the stacks broadcast
    together (DimensionMismatchError otherwise), and so do the images,
    (..., d_n, d_n)."""
    dims = table.shape.dims
    n = len(dims)
    if len(inputs) != n - 1:
        raise DimensionMismatchError(f"map takes {n - 1} inputs, got {len(inputs)}")
    operands = []
    for j, x in enumerate(inputs):
        a = np.asarray(x, dtype=complex)
        if a.shape[-2:] != (dims[j], dims[j]) or not np.isfinite(a).all():
            raise DimensionMismatchError(
                f"input {j + 1} must be finite of shape (..., {dims[j]}, {dims[j]}), got {a.shape}"
            )
        # the block table's axes are (row, column) party by party, output last
        operands += [a, [..., 2 * j, 2 * j + 1]]
    # a fixed path, no search: the table against input 1, the result against input 2, ...
    path = ["einsum_path", *((0, k) for k in range(n - 1, 0, -1))]
    try:
        return np.einsum(
            *operands, table.blocks, list(range(2 * n)), [..., 2 * n - 2, 2 * n - 1], optimize=path
        )
    except ValueError as exc:  # the trailing shapes are checked: the stacks do not broadcast
        stacks = [a.shape[:-2] for a in operands[::2]]
        raise DimensionMismatchError(f"input stacks of shapes {stacks} do not broadcast") from exc


def pairing(state: State, witness: Witness) -> float:
    """<rho, W> = tr(W rho^T), the entrywise sum of products.

    For Hermitian operands this is real; a residual imaginary part above
    its tolerance, or a sum that overflows, raises NonRealPairingError.
    Negative values mean detection.
    """
    if state.shape != witness.shape:
        raise DimensionMismatchError(
            f"state dims {state.shape.dims} do not match witness dims {witness.shape.dims}"
        )
    # as_matrix: the finiteness check on a state read from outside the program
    rho, w = as_matrix(state.matrix), as_matrix(witness.matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        val = complex(np.sum(rho * w))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NonRealPairingError(f"pairing overflows the float range: {val}")
    if abs(val.imag) > TOLERANCES["imaginary"]:
        raise NonRealPairingError(f"pairing has imaginary part {val.imag:.3e}")
    return float(val.real)


def value_on_product(witness: Witness, v) -> float | np.ndarray:
    """<xi|W|xi> as a float for a flat vector (D,), as an array for a stack
    (..., D) of flat vectors: a row's multiply-and-sum does not depend on the stack."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (witness.shape.total_dim,):
        raise DimensionMismatchError(
            f"vector shape {v.shape} does not end in the witness dimension "
            f"{witness.shape.total_dim}"
        )
    values = (v.conj() * (witness.matrix * v[..., None, :]).sum(-1)).sum(-1).real
    return float(values) if v.ndim == 1 else values
