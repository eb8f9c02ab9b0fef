"""Bilinear maps on qubit pairs as witness matrices.

A bilinear map phi from M_2 x M_2 into M_2 is stored as its table of
matrix-unit images, and corresponds to the 8 x 8 matrix

    W_phi = sum |i_1><j_1| (x) |i_2><j_2| (x) phi(|i_1><j_1|, |i_2><j_2|).

W_phi is Hermitian iff the table satisfies block(i, j) = block(j, i)^dagger;
positivity of phi on positive inputs is exactly block positivity of W_phi,
through the identity

    <xi_1 xi_2 xi_3 | W_phi | xi_1 xi_2 xi_3>
        = <xi_3 | phi(|conj(xi_1)><conj(xi_1)|, |conj(xi_2)><conj(xi_2)|) | xi_3>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonRealPairingError
from .linalg import TOLERANCES, as_matrix, require_hermitian
from .tensor import THREE_QUBITS, State


@dataclass
class MultilinearMapTable:
    """Matrix-unit images of a bilinear map on qubit pairs.

    `blocks` has axes (i_1, j_1, i_2, j_2, k, l): the image of the pair
    (|i_1><j_1|, |i_2><j_2|) is the 2 x 2 matrix blocks[i_1, j_1, i_2, j_2, :, :].
    """

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=complex)
        if self.blocks.shape != (2,) * 6:
            raise DimensionMismatchError(f"blocks shape {self.blocks.shape} is not (2,) * 6")


def choi_matrix(table: MultilinearMapTable) -> State:
    """Assemble W_phi from the block table.

    Pure reindexing: each entry of W is one entry of the table, bit for bit.
    Raises NotHermitianError when the table violates Hermiticity.
    """
    w = table.blocks.transpose(0, 2, 4, 1, 3, 5).reshape(8, 8).copy()
    return State(matrix=require_hermitian(w), shape=THREE_QUBITS)


def evaluate(table: MultilinearMapTable, x, y) -> np.ndarray:
    """Bilinear extension of the block table to matrix inputs: x and y are each
    one 2 x 2 matrix or a stack (..., 2, 2), the stacks broadcast together
    (DimensionMismatchError otherwise), and so do the images, (..., 2, 2)."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    for j, a in enumerate((x, y)):
        if a.shape[-2:] != (2, 2) or not np.isfinite(a).all():
            raise DimensionMismatchError(
                f"input {j + 1} must be finite of shape (..., 2, 2), got {a.shape}"
            )
    # the block table's axes are (row, column) per input, output last; a fixed
    # path, no search: the table against x, the result against y
    path = ["einsum_path", (0, 2), (0, 1)]
    try:
        return np.einsum(
            x, [..., 0, 1], y, [..., 2, 3], table.blocks, list(range(6)), [..., 4, 5], optimize=path
        )
    except ValueError as exc:  # the trailing shapes are checked: the stacks do not broadcast
        stacks = [x.shape[:-2], y.shape[:-2]]
        raise DimensionMismatchError(f"input stacks of shapes {stacks} do not broadcast") from exc


def pairing(state: State, witness: State) -> float:
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


def value_on_product(witness: State, v) -> float | np.ndarray:
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
