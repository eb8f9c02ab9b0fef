"""See-saw search for the minimum of <xi|W|xi> over unit product vectors.

Holding every factor but one fixed, the objective is a quadratic form
xi_k^H H_k xi_k in the remaining factor, where H_k is the contraction of W
against the other factors. Each step replaces xi_k by the eigenvector of the
smallest eigenvalue of H_k, so the value is nonincreasing sweep by sweep.
The search restarts from several random product vectors: restart r's start
is read from the r-th run of bytes of one draw from random.Random(seed), so
it depends on (seed, r) alone, not on the execution order or on how many
restarts run.

The restarts run as one stack. W is written once per party k as an
(R R, d_k, d_k, 1) block, R = D / d_k: the other parties' rows and columns
first, flattened in party order, then party k's. A step forms the Kronecker
product v of the other parties' factors and gets H_k from one elementwise
product of the block with conj(v) (x) v, an (R R, 1, 1, restarts) stack,
summed over the leading axis; then its lowest eigenpair, in closed form for
a qubit, one stacked `eigh` for a larger party. numpy sums a leading axis
element by element, in order, so a restart's arithmetic does not depend on
how many run and the stack matches a one-restart-at-a-time loop bit for
bit; BLAS does not (an (n, 16) @ (16, 4) product changes most rows' bits
with n), and a short trailing-axis sum costs one tiny loop per element. A
restart stops, and stays frozen, at the first sweep that improves its value
by less than the tolerance, exactly as if it ran alone; only the factors of
the restarts still moving are stacked, and they return to the full stack
when restarts freeze, and at the sweep cap.

A negative minimum certifies failure of block positivity; a minimum at zero
(within tolerance) is what a witness with a nonempty zero set must show.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidCutError
from .linalg import TOLERANCES, qubit_lowest, require_hermitian
from .maps import value_on_product
from .tensor import State, TensorShape, check_subset, kron_rows


@dataclass
class SeeSawResult:
    min_value: float
    argmin: tuple[np.ndarray, ...]
    converged: bool
    history: list[float] = field(default_factory=list)


# Sweeps after which a restart stops even if it still improves.
MAX_SWEEPS = 500


def _random_unit_factors(dims: Sequence[int], seed: int, restarts: int) -> list[np.ndarray]:
    """Unit start factors per party, stacked over restarts. One
    random.Random(seed).randbytes call gives 16 sum(dims) bytes per restart,
    restart r reading the r-th run of them: per complex entry, party by party,
    two little-endian 64-bit words whose top 52 bits make uniforms u1, u2 in
    (0, 1), and by Box-Muller the entry sqrt(-2 ln u1) e^{2 pi i u2}, a
    complex normal, so each normalized factor is uniform on the unit sphere."""
    size = sum(dims)
    words = np.frombuffer(random.Random(seed).randbytes(16 * size * restarts), "<u8")
    u = ((words >> 12) + 0.5).reshape(restarts, size, 2) * 2.0**-52
    radius, angle = np.sqrt(-2.0 * np.log(u[..., 0])), 2.0 * np.pi * u[..., 1]
    draws = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
    factors = []
    for v in np.split(draws, np.cumsum(dims)[:-1], axis=1):
        # row @ column of the strided .real and .imag views: np.linalg.norm's own dots
        re, im = v.real[:, None], v.imag[:, None]
        factors.append(v / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0])
    return factors


def _lowest_eigenpairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kets and values of the smallest eigenvalue of the Hermitian part of
    each (d, d) matrix of a stack. For a qubit the ket is
    (-sin(theta/2) e^{i phi}, cos(theta/2)), theta = atan2(|b|, (a - d)/2),
    e^{i phi} = b / |b| (1 where b = 0), with a, d, b the Hermitian part's
    diagonal and upper entries; a larger party takes one stacked `eigh`."""
    if h.shape[-1] != 2:
        evals, evecs = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)
        return evecs[:, :, 0], evals[:, 0]
    b = (h[..., 0, 1] + h[..., 1, 0].conj()) / 2
    mag = np.abs(b)
    half_gap, lowest = qubit_lowest(h[..., 0, 0].real, h[..., 1, 1].real, mag)
    half = np.arctan2(mag, half_gap) / 2
    kets = np.empty(b.shape + (2,), dtype=complex)
    np.multiply(np.divide(b, mag, out=np.ones_like(b), where=mag > 0), -np.sin(half), out=kets[..., 0])
    kets[..., 1] = np.cos(half)
    return kets, lowest


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    mag = abs(v[idx])
    if not mag > 0:  # zero, or NaN once W overflows
        return v
    return v * (v[idx].conjugate() / mag)


def seesaw_block_positivity(witness: State, restarts: int = 64, seed: int = 0) -> SeeSawResult:
    """Best product-vector minimum over `restarts` random starts.

    Deterministic for a fixed (seed, restarts) pair: restart r starts from
    the r-th run of bytes of one draw from random.Random(seed), the same for
    any restart count, and ties between restarts break toward the lower
    restart index.
    `history` is the best restart's value per sweep; `converged` holds when
    every restart stopped within `MAX_SWEEPS` sweeps.
    """
    require_hermitian(witness.matrix)
    if restarts < 1:
        raise DimensionMismatchError("see-saw needs at least one restart")
    # the per-sweep float table below must be describable in bytes at all
    if (MAX_SWEEPS + 1) * restarts * 8 > np.iinfo(np.intp).max:
        raise DimensionMismatchError(f"see-saw cannot hold {restarts} restarts")
    # random.Random seeds from |seed|: a negative seed would draw another's starts
    if seed < 0:
        raise DimensionMismatchError(f"see-saw seed must be non-negative, got {seed}")
    dims = witness.shape.dims
    n = len(dims)
    tensor = witness.matrix.reshape(dims + dims)
    # blocks[k][r R + c, a, b, 0]: W at the other parties' rows r and columns
    # c, flattened in party order, and party k's row a and column b
    blocks = []
    for k, d in enumerate(dims):
        rest = [j for j in range(n) if j != k]
        axes = [*rest, *(n + j for j in rest), k, n + k]
        blocks.append(tensor.transpose(axes).reshape(-1, d, d, 1))
    # allocated before the draw, so a count too large to hold fails at once
    by_sweep = np.empty((MAX_SWEEPS + 1, restarts))
    # factors[k][r] is party k's factor in restart r
    factors = _random_unit_factors(dims, seed, restarts)
    flat = kron_rows(factors)
    by_sweep[0] = live = value_on_product(witness, flat)
    sweeps = np.zeros(restarts, dtype=int)
    moving = np.arange(restarts)
    # the moving restarts' factors, compacted
    kets = list(factors)

    for sweep in range(1, MAX_SWEEPS + 1):
        before = live
        for k in range(n):
            # H_k[a, b] = sum_rc conj(v_r) v_c W_k[r R + c, a, b], over the leading axis
            v = kron_rows([f for j, f in enumerate(kets) if j != k]).T
            o = (v.conj()[:, None] * v).reshape(-1, 1, 1, v.shape[-1])
            kets[k], live = _lowest_eigenpairs((blocks[k] * o).sum(0).transpose(2, 0, 1))
        by_sweep[sweep, moving] = live
        sweeps[moving] = sweep
        keep = before - live >= TOLERANCES["sweep"]
        # back into the full stack when restarts freeze, and at the sweep cap
        if sweep == MAX_SWEEPS or not keep.all():
            for f, ket in zip(factors, kets):
                f[moving] = ket
            moving, live = moving[keep], live[keep]
            kets = [f[keep] for f in kets]
            if moving.size == 0:
                break

    values = by_sweep[sweeps, np.arange(restarts)]
    best = int(np.argmin(values))
    return SeeSawResult(
        min_value=float(values[best]),
        argmin=tuple(_canonical_phase(f[best]) for f in factors),
        converged=moving.size == 0,
        history=by_sweep[: sweeps[best] + 1, best].tolist(),
    )


def cut_block_positivity(
    witness: State, cut: Iterable[int], restarts: int = 64, seed: int = 0
) -> SeeSawResult:
    """Two-party see-saw across one bipartite cut of the parties.

    `cut` lists the parties (1-based) of the first group, the complement is
    the second. Tensor legs are permuted so the cut becomes contiguous, then
    each group is flattened into a single party.
    """
    dims = witness.shape.dims
    n = len(dims)
    first = check_subset(cut, n)
    if not first or len(first) == n:
        raise InvalidCutError(f"cut {first} must leave both sides nonempty")
    perm = [p - 1 for p in first] + [q for q in range(n) if q + 1 not in first]
    d = witness.shape.total_dim
    tensor = witness.matrix.reshape(dims + dims)
    merged = tensor.transpose(perm + [n + q for q in perm]).reshape(d, d)
    d_first = math.prod(dims[p - 1] for p in first)
    regrouped = State(matrix=merged, shape=TensorShape((d_first, d // d_first)))
    return seesaw_block_positivity(regrouped, restarts=restarts, seed=seed)
