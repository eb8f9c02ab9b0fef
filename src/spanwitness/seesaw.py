"""See-saw search for the minimum of <xi|W|xi> over unit product vectors.

Holding every factor but one fixed, the objective is a quadratic form
xi_k^H H_k xi_k in the remaining factor, where H_k is the contraction of W
against the other factors. Each step replaces xi_k by the eigenvector of the
smallest eigenvalue of H_k, so the value is nonincreasing sweep by sweep.
The search restarts from several random product vectors: row r of one seeded
draw is restart r's start, so that start depends on (seed, r) alone, not on
the execution order or on how many restarts run.

The restarts run as one stack along a leading axis. W is written once per
party k as a (d_k, d_k, R, R) block, R = D / d_k: party k's row and column
first, the other parties' rows and columns flattened in party order. A step
forms the Kronecker product v of the other parties' factors and gets H_k
from two elementwise multiply-and-sums over a contiguous last axis, then
its lowest eigenpair: in closed form for a qubit, one stacked `eigh` for a
larger party. Elementwise arithmetic and short reductions do the same work
per restart whether one restart runs or many, so the stack matches a
one-restart-at-a-time loop bit for bit. A restart stops, and stays frozen,
at the first sweep that improves its value by less than the tolerance,
exactly as if it ran alone; only the factors of the restarts still moving
are stacked, and they return to the full stack when restarts freeze, and at
the sweep cap.

A negative minimum certifies failure of block positivity; a minimum at zero
(within tolerance) is what a witness with a nonempty zero set must show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidCutError
from .linalg import TOLERANCES, qubit_hermitian_parts, require_hermitian
from .maps import Witness, value_on_product
from .tensor import ProductVector, TensorShape, check_subset, kron_rows, subset_complement


@dataclass
class SeeSawResult:
    min_value: float
    argmin: ProductVector
    converged: bool
    history: list[float] = field(default_factory=list)


# Sweeps after which a restart stops even if it still improves.
MAX_SWEEPS = 500


def _random_unit_factors(dims: Sequence[int], seed: int, restarts: int) -> list[np.ndarray]:
    """Unit start factors per party, stacked over restarts. Restart r takes
    row r of one (restarts, 2 sum(dims)) draw of normals from
    default_rng(seed): party by party, d real parts, then d imaginary parts."""
    draws = np.random.default_rng(seed).standard_normal((restarts, 2 * sum(dims)))
    factors = []
    for part, d in zip(np.split(draws, np.cumsum([2 * d for d in dims])[:-1], axis=1), dims):
        v = part[:, :d] + 1j * part[:, d:]
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
    b, mag, half_gap, lowest = qubit_hermitian_parts(h)
    half = np.arctan2(mag, half_gap) / 2
    phase = np.divide(b, mag, out=np.ones_like(b), where=mag > 0)
    return np.stack([-np.sin(half) * phase, np.cos(half)], axis=-1), lowest


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    mag = abs(v[idx])
    if mag == 0:
        return v
    return v * (v[idx].conjugate() / mag)


def seesaw_block_positivity(witness: Witness, restarts: int = 64, seed: int = 0) -> SeeSawResult:
    """Best product-vector minimum over `restarts` random starts.

    Deterministic for a fixed (seed, restarts) pair: restart r starts from
    row r of one draw from default_rng(seed), the same row for any restart
    count, and ties between restarts break toward the lower restart index.
    `history` is the best restart's value per sweep; `converged` holds when
    every restart stopped within `MAX_SWEEPS` sweeps.
    """
    require_hermitian(witness.matrix)
    if restarts < 1:
        raise DimensionMismatchError("see-saw needs at least one restart")
    # the per-sweep float table below must be describable in bytes at all
    if (MAX_SWEEPS + 1) * restarts * 8 > np.iinfo(np.intp).max:
        raise DimensionMismatchError(f"see-saw cannot hold {restarts} restarts")
    if seed < 0:
        raise DimensionMismatchError(f"see-saw seed must be non-negative, got {seed}")
    dims = witness.shape.dims
    n = len(dims)
    tensor = witness.matrix.reshape(dims + dims)
    # blocks[k][a, b, r, c]: W at party k's row a and column b, the other
    # parties' rows r and columns c flattened in party order
    blocks = []
    for k, d in enumerate(dims):
        rest = [j for j in range(n) if j != k]
        axes = [k, n + k, *rest, *(n + j for j in rest)]
        blocks.append(tensor.transpose(axes).reshape(d, d, len(witness.matrix) // d, -1))
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
            # H_k[a, b] = sum_rc conj(v_r) W_k[a, b, r, c] v_c, columns first
            v = kron_rows([f for j, f in enumerate(kets) if j != k])
            u = (blocks[k] * v[:, None, None, None, :]).sum(-1)
            kets[k], live = _lowest_eigenpairs((u * v.conj()[:, None, None, :]).sum(-1))
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
    argmin = ProductVector([_canonical_phase(f[best]) for f in factors])
    return SeeSawResult(
        min_value=float(values[best]),
        argmin=argmin,
        converged=moving.size == 0,
        history=by_sweep[: sweeps[best] + 1, best].tolist(),
    )


def regroup_for_cut(witness: Witness, cut: Iterable[int]) -> Witness:
    """Merge the parties into the two groups of a bipartite cut.

    `cut` lists the parties (1-based) of the first group, the complement is
    the second; `meta["cut"]` records both. Tensor legs are permuted so the
    cut becomes contiguous, then each group is flattened into a single party.
    """
    dims = witness.shape.dims
    n = len(dims)
    group1 = check_subset(cut, n)
    group2 = subset_complement(group1, n)
    if not group1 or not group2:
        raise InvalidCutError(f"cut {group1} must leave both sides nonempty")
    perm = [p - 1 for p in group1 + group2]
    tensor = witness.matrix.reshape(dims + dims)
    axes = perm + [n + q for q in perm]
    d = witness.shape.total_dim
    merged = tensor.transpose(axes).reshape(d, d)
    d_left = math.prod(dims[p - 1] for p in group1)
    d_right = d // d_left
    return Witness(
        matrix=merged,
        shape=TensorShape((d_left, d_right)),
        meta=dict(witness.meta, cut=(group1, group2)),
    )


def cut_block_positivity(
    witness: Witness, cut: Iterable[int], restarts: int = 64, seed: int = 0
) -> SeeSawResult:
    """Two-party see-saw across one bipartite cut of the parties."""
    return seesaw_block_positivity(regroup_for_cut(witness, cut), restarts=restarts, seed=seed)
