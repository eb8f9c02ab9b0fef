"""Concrete states of the witness family: the detected X-shaped PPT entangled
family, bi-separable detection vectors, and the boundary separable states
rho_0, rho_1, rho_lambda with full-rank partial transposes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, OutOfRangeError
from .family import (
    CANONICAL,
    R,
    Z_FAMILIES,
    FamilyParams,
    canonical_ten,
    zeta_vector,
)
from .linalg import TOLERANCES
from .maps import Witness, pairing
from .tensor import (
    THREE_QUBITS,
    PptReport,
    ProductVector,
    State,
    is_ppt,
    kron_rows,
    state_from,
)


def x_state(params: FamilyParams) -> State:
    """The X-shaped 8x8 state detected by the family witness, unnormalized.

    Diagonal (1, 1, 1, s / 2 sqrt 2, t / 2 sqrt 2, 1, 1, 1); anti-diagonal
    -1 on the pairs (0,7), (1,6), (3,4) and +1 on (2,5). Every partial
    transpose is positive exactly when s t >= 8, while the witness pairing is
    s t / sqrt 2 - 8, negative on the whole curve s t = 8.
    """
    m = np.diag(
        np.array([1.0, 1.0, 1.0, params.s / R, params.t / R, 1.0, 1.0, 1.0])
    ).astype(complex)
    m[0, 7] = m[7, 0] = -1.0
    m[1, 6] = m[6, 1] = -1.0
    m[2, 5] = m[5, 2] = 1.0
    m[3, 4] = m[4, 3] = -1.0
    return State(matrix=m, shape=THREE_QUBITS)


_CUTS = {1: ((1,), (2, 3)), 2: ((2,), (1, 3)), 3: ((3,), (1, 2))}


def biseparable_vector(i: int, alpha: complex) -> np.ndarray:
    """Detection vector across cut i = 1 (A|BC), 2 (B|AC) or 3 (C|AB), in the
    A, B, C order, product across `_CUTS[i]` (single party, merged pair) only.
    The witness quadratic form is -2|alpha|^2 + (alpha^2 + conj(alpha)^2) on
    cuts 1 and 2 and -2|alpha|^2 - (alpha^2 + conj(alpha)^2) on cut 3 (signs
    by direct evaluation): each cut is detected where the square is not real.
    """
    if i not in _CUTS:
        raise OutOfRangeError(f"cut index must be 1, 2 or 3, got {i}")
    a = complex(alpha)
    local = np.array([1.0, -a.conjugate()], dtype=complex)
    if i == 1:
        extended = np.array([0.0, 1.0, a, 0.0], dtype=complex)
    else:
        extended = np.array([1.0, 0.0, 0.0, a], dtype=complex)
    # axes (cut party, other two in order), permuted back to party order;
    # scalar products, since an array multiply may fuse and leave conj(a) a
    # with a nonzero imaginary part
    outer = np.array([[x * y for y in extended] for x in local]).reshape(2, 2, 2)
    perm = [p - 1 for p in _CUTS[i][0] + _CUTS[i][1]]
    return outer.transpose(np.argsort(perm)).reshape(8)


@dataclass
class SeparableDecomposition:
    """Positive weights and product vectors certifying separability."""

    weights: list[float]
    vectors: list[ProductVector]

    def __post_init__(self):
        if not self.vectors or len(self.weights) != len(self.vectors):
            raise DimensionMismatchError("one weight per product vector, at least one vector")
        if any(w <= 0 for w in self.weights):
            raise OutOfRangeError("decomposition weights must be positive")


def assemble(dec: SeparableDecomposition) -> np.ndarray:
    """Sum of weighted projectors onto the product vectors, flattened as one stack."""
    flats = kron_rows([np.array(f) for f in zip(*(pv.factors for pv in dec.vectors), strict=True)])
    w = np.asarray(dec.weights)
    return (w[:, None, None] * (flats[:, :, None] * flats.conj()[:, None, :])).sum(axis=0)


def verify_decomposition(
    state: State, dec: SeparableDecomposition, tol: float = TOLERANCES["certificate"]
) -> bool:
    """True iff the decomposition reassembles the state entrywise within tol."""
    built = assemble(dec)
    if built.shape != state.matrix.shape:
        raise DimensionMismatchError(
            f"decomposition dimension {built.shape} does not match state {state.matrix.shape}"
        )
    return bool(np.max(np.abs(built - state.matrix)) <= tol)


def rho0() -> tuple[State, SeparableDecomposition]:
    """Equal mixture of the six basis zero-set vectors: diag(1,1,1,0,0,1,1,1)/6."""
    vectors = canonical_ten(CANONICAL)[:6]
    dec = SeparableDecomposition(weights=[1.0 / 6.0] * 6, vectors=vectors)
    return state_from(assemble(dec), THREE_QUBITS.dims), dec


def rho1(params: FamilyParams = CANONICAL) -> tuple[State, SeparableDecomposition]:
    """Normalized mixture of the four phase-locked vectors at (a, b) = (1, 1).

    Built from its separability certificate; the matrix is the consequence,
    not the definition. At s = t = 2 sqrt 2 every flattened vector has
    squared norm 8, so the weights are 1/32 each.
    """
    vectors = [zeta_vector(fam, 1.0, 1.0, params) for fam in Z_FAMILIES]
    # each flattened vector has squared norm 2 * 2 * (1 + u^2)
    weight = 1.0 / (16.0 * (1.0 + params.u**2))
    dec = SeparableDecomposition(weights=[weight] * 4, vectors=vectors)
    return state_from(assemble(dec), THREE_QUBITS.dims), dec


def rho_lambda(
    lam: float, params: FamilyParams = CANONICAL
) -> tuple[State, SeparableDecomposition]:
    """(1 - lambda) rho_0 + lambda rho_1 with the merged ten-vector certificate.

    Boundary separable (zero witness pairing) with full-rank partial
    transposes for every 0 < lambda < 1.
    """
    if not 0.0 < lam < 1.0:
        raise OutOfRangeError(f"lambda must lie in (0, 1), got {lam}")
    s0, d0 = rho0()
    s1, d1 = rho1(params)
    weights = [(1.0 - lam) * w for w in d0.weights] + [lam * w for w in d1.weights]
    vectors = d0.vectors + d1.vectors
    dec = SeparableDecomposition(weights=weights, vectors=vectors)
    matrix = (1.0 - lam) * s0.matrix + lam * s1.matrix
    return state_from(matrix, THREE_QUBITS.dims), dec


# Upper bound on the mixing ratio eps. On the curve the pairing stays negative
# only for eps below the detection margin (8 - 8/sqrt 2) / (8 - 8/sqrt 2 + s + t),
# which depends on s + t: 0.2929 at s = t = 2 sqrt 2, but 0.2066 at (1, 8).
PERTURBATION_LIMIT = 0.29


def perturbed_detected_state(eps: float, params: FamilyParams = CANONICAL) -> State:
    """(1 - eps) x/8 + eps I/8: strictly PPT, and detected while eps is below
    the detection margin, which depends on s + t (see `PERTURBATION_LIMIT`).

    On the curve every partial transpose has smallest eigenvalue eps/8,
    witnessing an open neighbourhood of detected PPT states. Past the margin,
    e.g. eps = 0.25 at (1, 8), the state is not detected (INCONCLUSIVE).
    """
    if not 0.0 < eps < PERTURBATION_LIMIT:
        raise OutOfRangeError(f"eps must lie in (0, {PERTURBATION_LIMIT}), got {eps}")
    base = x_state(params).matrix / 8.0
    matrix = (1.0 - eps) * base + eps * np.eye(8, dtype=complex) / 8.0
    return State(matrix=matrix, shape=THREE_QUBITS)


class Verdict(str, Enum):
    SEPARABLE_CERTIFIED = "SEPARABLE_CERTIFIED"
    PPT_ENTANGLED_DETECTED = "PPT_ENTANGLED_DETECTED"
    ENTANGLED_NPT = "ENTANGLED_NPT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class DetectionReport:
    """Pairing value, PPT table and the resulting classification."""

    pairing_value: float
    ppt: PptReport
    verdict: Verdict
    certified: bool = False


def detect(
    state: State,
    witness: Witness,
    tol: float = TOLERANCES["pairing"],
    decomposition: SeparableDecomposition | None = None,
) -> DetectionReport:
    """Classify a state against a witness.

    SEPARABLE_CERTIFIED needs an explicit decomposition that verifies;
    PPT_ENTANGLED_DETECTED needs a PPT state with pairing below -tol; a
    negative partial transpose yields ENTANGLED_NPT; anything else is
    INCONCLUSIVE (a witness only ever certifies entanglement, not its
    absence). `tol` is the pairing threshold alone: the PPT table and the
    certificate keep their own tolerances, `psd` and `certificate`.
    """
    value = pairing(state, witness)
    table = is_ppt(state)
    certified = decomposition is not None and verify_decomposition(state, decomposition)
    if certified:
        verdict = Verdict.SEPARABLE_CERTIFIED
    elif not table.is_ppt:
        verdict = Verdict.ENTANGLED_NPT
    elif value < -tol:
        verdict = Verdict.PPT_ENTANGLED_DETECTED
    else:
        verdict = Verdict.INCONCLUSIVE
    return DetectionReport(pairing_value=value, ppt=table, verdict=verdict, certified=certified)
