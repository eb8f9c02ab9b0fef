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
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidCutError
from .linalg import TOLERANCES, lowest_eigenvalues, require_hermitian
from .maps import Witness
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
    b = (h[:, 0, 1] + h[:, 1, 0].conj()) / 2
    mag = np.abs(b)
    half = np.arctan2(mag, (h[:, 0, 0].real - h[:, 1, 1].real) / 2) / 2
    phase = np.divide(b, mag, out=np.ones_like(b), where=mag > 0)
    return np.stack([-np.sin(half) * phase, np.cos(half)], axis=-1), lowest_eigenvalues(h)


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
    # factors[k][r] is party k's factor in restart r
    factors = _random_unit_factors(dims, seed, restarts)
    flat = kron_rows(factors)
    by_sweep = np.empty((MAX_SWEEPS + 1, restarts))
    by_sweep[0] = live = (flat.conj() * (witness.matrix * flat[:, None, :]).sum(-1)).sum(-1).real
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


def regroup_for_cut(witness: Witness, cut: Iterable[int]) -> tuple[Witness, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Merge the parties into the two groups of a bipartite cut.

    `cut` lists the parties (1-based) of the first group; the second group is
    the complement. Tensor legs are permuted so the cut becomes contiguous,
    then each group is flattened into a single party.
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
    regrouped = Witness(
        matrix=merged,
        shape=TensorShape((d_left, d_right)),
        meta=dict(witness.meta, cut=(group1, group2)),
    )
    return regrouped, (group1, group2)


def cut_block_positivity(
    witness: Witness, cut: Iterable[int], restarts: int = 64, seed: int = 0
) -> SeeSawResult:
    """Two-party see-saw across one bipartite cut of the parties."""
    regrouped, _ = regroup_for_cut(witness, cut)
    return seesaw_block_positivity(regrouped, restarts=restarts, seed=seed)


# Grid of product_grid_minimum, also the report's rank-one grid.
GRID_PHASES = 24
GRID_MODULI = (0.5, 1.0, 2.0)


def phase_modulus_grid() -> np.ndarray:
    """The points m e^{2 pi i k / GRID_PHASES}, modulus m by modulus."""
    angles = [2j * np.pi * k / GRID_PHASES for k in range(GRID_PHASES)]
    return np.array([m * np.exp(x) for m in GRID_MODULI for x in angles])


# Per qubit party: the 2x2 entries (00, 01, 10, 11) to the real coordinates
# A00, A11, Re A01, -Im A01 of the Hermitian part, paired with _grid_coordinates.
_HERMITIAN_COORDINATES = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, 0.5j, -0.5j, 0]])


@cache
def _grid_coordinates() -> np.ndarray:
    """(|x0|^2, |x1|^2, 2 Re x0* x1, 2 Im x0* x1) per grid candidate x, as
    4 x candidates. The candidates are both poles and the unit vectors
    (1, z) / norm over the phase-modulus grid."""
    unnormed = [np.array([1.0, z]) for z in phase_modulus_grid()]
    cand = np.array([*np.eye(2), *(v / np.linalg.norm(v) for v in unnormed)], dtype=complex)
    cross = 2 * cand[:, 0].conj() * cand[:, 1]
    return np.array([abs(cand[:, 0]) ** 2, abs(cand[:, 1]) ** 2, cross.real, cross.imag])


def product_grid_minimum(witness: Witness) -> float:
    """Exhaustive minimum of <xi|W|xi> over a deterministic grid of unit
    product vectors. A finite grid's minimum is an upper bound on the true
    minimum over all unit product vectors, so the see-saw must not exceed it.

    Only qubit factors are supported (each candidate set covers both poles
    and `GRID_PHASES` points per circle at each modulus). W, written in each
    party's real Hermitian coordinates as a real (4,) * n tensor, meets the
    candidates' coordinates party by party in real matrix products: the
    values are Re<xi|W|xi>, those of W's Hermitian part.
    """
    dims = witness.shape.dims
    if any(d != 2 for d in dims):
        raise DimensionMismatchError("grid search is implemented for qubit factors only")
    n = len(dims)
    # each step contracts the leading party axis and appends the new axis last
    coords = witness.matrix.reshape(dims + dims).transpose([a for k in range(n) for a in (k, n + k)])
    for _ in range(n):
        coords = coords.reshape(4, -1).T @ _HERMITIAN_COORDINATES.T
    values = coords.real
    for _ in range(n):
        values = values.reshape(4, -1).T @ _grid_coordinates()
    return float(values.min())
