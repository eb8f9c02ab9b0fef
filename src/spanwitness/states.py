"""Concrete states of the witness family: the detected X-shaped PPT entangled
family, bi-separable detection vectors, and the boundary separable states
rho_0, rho_1, rho_lambda with full-rank partial transposes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .errors import DimensionMismatchError, OffVarietyError, OutOfRangeError
from .family import CANONICAL, CANONICAL_TEN_ROWS, R, Z_FAMILIES, FamilyParams, free_rows, z_factors
from .linalg import TOLERANCES, read_only
from .maps import pairing
from .tensor import THREE_QUBITS, PptReport, State, is_ppt, kron_rows


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
    """Product vectors certifying separability: `weights` as floats (k,), each
    finite and positive, and `factors` as one complex (parties, k, d) array,
    parties >= 2, row i of each party making vector i, at weight i."""

    weights: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.factors = np.asarray(self.factors, dtype=complex)
        shape = self.factors.shape
        if len(shape) != 3 or shape[0] < 2 or self.weights.shape != shape[1:2] or not shape[1]:
            raise DimensionMismatchError(
                f"need (k,) weights and (parties, k, d) factors, parties >= 2, k >= 1, got "
                f"{self.weights.shape} and {shape}"
            )
        if not (np.isfinite(self.weights) & (self.weights > 0)).all():
            raise OutOfRangeError("decomposition weights must be finite and positive")


def assemble(dec: SeparableDecomposition) -> np.ndarray:
    """Sum of weighted projectors onto the product vectors, flattened as one stack."""
    flats = kron_rows(dec.factors)
    return (dec.weights[:, None, None] * (flats[:, :, None] * flats.conj()[:, None, :])).sum(axis=0)


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


def _equal_mixture(factors: np.ndarray, weight: float) -> tuple[State, SeparableDecomposition]:
    """The product vectors of a (3, k, 2) factor array, each at `weight`, with
    their certificate; the state is the certificate assembled."""
    dec = SeparableDecomposition(weights=np.full(factors.shape[1], weight), factors=factors)
    return State(matrix=assemble(dec), shape=THREE_QUBITS), dec


@cache
def rho0() -> tuple[State, SeparableDecomposition]:
    """Equal mixture of the six basis zero-set vectors: diag(1,1,1,0,0,1,1,1)/6.

    No (s, t) enters it, so it is built once per process, its arrays
    read-only; `rho_lambda` reads it, for the `boundary_family` row and
    `detect rho-lambda:X`."""
    state, dec = _equal_mixture(free_rows()[:, CANONICAL_TEN_ROWS[:6]], 1.0 / 6.0)
    for table in (state.matrix, dec.weights, dec.factors):
        read_only(table)
    return state, dec


def rho1(params: FamilyParams = CANONICAL) -> tuple[State, SeparableDecomposition]:
    """Normalized mixture of the four phase-locked vectors Z1..Z4 at
    (a, b) = (1, 1), the default zero-set sample's rows built alone; on
    s t = 8 only.

    Built from its separability certificate; the matrix is the consequence,
    not the definition. At s = t = 2 sqrt 2 every flattened vector has
    squared norm 8, so the weights are 1/32 each.
    """
    if not params.on_variety:
        raise OffVarietyError(f"rho_1 needs s*t = 8, got {params.s * params.t}")
    # each flattened vector has squared norm 2 * 2 * (1 + u^2)
    weight = 1.0 / (16.0 * (1.0 + params.u**2))
    rows = [z_factors(fam, 1.0, 1.0, params.u) for fam in Z_FAMILIES]
    return _equal_mixture(np.array(rows, dtype=complex).transpose(1, 0, 2), weight)


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
    dec = SeparableDecomposition(
        weights=np.concatenate([(1.0 - lam) * d0.weights, lam * d1.weights]),
        factors=np.concatenate([d0.factors, d1.factors], axis=1),
    )
    matrix = (1.0 - lam) * s0.matrix + lam * s1.matrix
    return State(matrix=matrix, shape=THREE_QUBITS), dec


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
    witness: State,
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
