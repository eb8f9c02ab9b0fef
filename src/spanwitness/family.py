"""The X-shaped three-qubit witness family W(s, t).

The family comes from the bilinear map sending a pair of 2x2 matrices
([x_ij], [y_ij]) (1-based indices, x_11 = <0|x|0>) to

    [[ s x22 y11,                x12 y12 - x12 y21 + x21 y12 + x21 y21 ],
     [ x12 y12 + x12 y21 - x21 y12 + x21 y21,               t x11 y22 ]]

with parameters s, t > 0. Its witness matrix is supported on the
anti-diagonal and the central 2x2 block, hence "X-shaped". On rank-one
inputs P_a = (1, a)(1, a)^H the image has determinant

    (s t - 8) |a b|^2 + D(a, b),
    D(a, b) = |ab - conj(ab)|^2 + |a conj(b) + conj(a) b|^2 >= 0,

so the map is positive (block-positive witness) exactly on s t >= 8. All
statements about the zero set and spanning live on the curve s t = 8, where
the determinant degenerates to D and the zero set acquires the four
phase-locked product-vector families realized below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .errors import InvalidParamsError, OffVarietyError
from .linalg import TOLERANCES, numerical_ranks
from .maps import MultilinearMapTable, Witness
from .tensor import THREE_QUBITS, ProductVector, all_subsets, conjugation_stack

SQRT2 = math.sqrt(2.0)

# Coupling scale of the anti-diagonal: the zero-set families lock to
# eighth roots of unity because the off-diagonal image has modulus
# R |a b| with R = 2 sqrt(2).
R = 2.0 * SQRT2

ST_PRODUCT = 8.0

_HALF = SQRT2 / 2.0

# Exact eighth roots of unity; powers are taken by index arithmetic mod 8
# rather than repeated multiplication, so phases never drift.
_EIGHTH_ROOTS = (
    complex(1.0, 0.0),
    complex(_HALF, _HALF),
    complex(0.0, 1.0),
    complex(-_HALF, _HALF),
    complex(-1.0, 0.0),
    complex(-_HALF, -_HALF),
    complex(0.0, -1.0),
    complex(_HALF, -_HALF),
)


def eighth_root(k: int) -> complex:
    """omega^k with omega = exp(i pi / 4), exact at the table values."""
    return _EIGHTH_ROOTS[k % 8]


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (s, t) of the witness family.

    Any s, t > 0 is constructible; operations whose guarantees hold only on
    the curve s t = 8 are gated on `on_variety` and raise OffVarietyError
    elsewhere.
    """

    s: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise InvalidParamsError("parameters must be finite")
        if self.s <= 0 or self.t <= 0:
            raise InvalidParamsError(f"parameters must be positive, got s={self.s}, t={self.t}")

    @property
    def u(self) -> float:
        """Third-factor scale s / (2 sqrt(2)) of the phase-locked families."""
        return self.s / R

    @property
    def on_variety(self) -> bool:
        return abs(self.s * self.t - ST_PRODUCT) < TOLERANCES["variety"]


CANONICAL = FamilyParams(R, R)

ST8_GRID = (
    CANONICAL,
    FamilyParams(2.0, 4.0),
    FamilyParams(4.0, 2.0),
    FamilyParams(1.0, 8.0),
)


def bilinear_map(params: FamilyParams) -> MultilinearMapTable:
    """The family's bilinear map as a matrix-unit block table."""
    blocks = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    # diagonal images: s x22 y11 at (0,0), t x11 y22 at (1,1)
    blocks[1, 1, 0, 0, 0, 0] = params.s
    blocks[0, 0, 1, 1, 1, 1] = params.t
    # top-right entry: x12 y12 - x12 y21 + x21 y12 + x21 y21
    blocks[0, 1, 0, 1, 0, 1] = 1.0
    blocks[0, 1, 1, 0, 0, 1] = -1.0
    blocks[1, 0, 0, 1, 0, 1] = 1.0
    blocks[1, 0, 1, 0, 0, 1] = 1.0
    # bottom-left entry: x12 y12 + x12 y21 - x21 y12 + x21 y21
    blocks[0, 1, 0, 1, 1, 0] = 1.0
    blocks[0, 1, 1, 0, 1, 0] = 1.0
    blocks[1, 0, 0, 1, 1, 0] = -1.0
    blocks[1, 0, 1, 0, 1, 0] = 1.0
    return MultilinearMapTable(shape=THREE_QUBITS, blocks=blocks)


def witness_matrix(params: FamilyParams) -> Witness:
    """The 8x8 witness of the family, written out entry by entry.

    Coincides exactly (entrywise, no arithmetic involved) with the assembled
    matrix of `bilinear_map`; the spectrum is {-1, -1, -1, 1, 1, 1} from the
    three anti-diagonal pairs plus the eigenvalues of [[t, 1], [1, s]].
    """
    m = np.zeros((8, 8), dtype=complex)
    m[0, 7] = m[7, 0] = 1.0
    m[1, 6] = m[6, 1] = 1.0
    m[2, 5] = m[5, 2] = -1.0
    m[3, 3] = params.t
    m[4, 4] = params.s
    m[3, 4] = m[4, 3] = 1.0
    return Witness(
        matrix=m,
        shape=THREE_QUBITS,
        meta={
            "family": "x-shaped",
            "s": params.s,
            "t": params.t,
            "on_variety": params.on_variety,
        },
    )


def _square(x: np.ndarray) -> np.ndarray:
    # float_power calls the C library's pow, as Python's ** does on a float;
    # an array's ** 2 multiplies instead, which can round differently.
    return np.float_power(x, 2)


def rank_one_projector(alpha) -> np.ndarray:
    """Projector onto (1, alpha), the rank-one input probing positivity.

    An array of alphas gives the projectors stacked along its axes, so the
    result has shape alpha.shape + (2, 2).
    """
    a = np.asarray(alpha, dtype=complex)
    out = np.empty(a.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 0, 1] = a.conj()
    out[..., 1, 0] = a
    # hypot is Python's abs of a complex scalar; np.abs rounds differently
    out[..., 1, 1] = _square(np.hypot(a.real, a.imag))
    return out


def determinant_d(alpha, beta):
    """D(alpha, beta) = |ab - conj(ab)|^2 + |a conj(b) + conj(a) b|^2
    = (2 Im(ab))^2 + (2 Re(a conj(b)))^2.

    Nonnegative; equals the determinant of the rank-one image whenever
    s t = 8. Vanishes exactly when arg(alpha) is an odd multiple of pi/4
    and arg(alpha) + arg(beta) is a multiple of pi. Broadcasts over array
    arguments; scalar arguments give a float.
    """
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    im_ab = a.real * b.imag + a.imag * b.real
    re_cross = a.real * b.real + a.imag * b.imag
    return _square(2.0 * im_ab) + _square(2.0 * re_cross)


# The report's rank-one grid: GRID_PHASES phases at each of the GRID_MODULI.
GRID_PHASES = 24
GRID_MODULI = (0.5, 1.0, 2.0)


@cache
def phase_modulus_grid() -> np.ndarray:
    """The points m e^{2 pi i k / GRID_PHASES}, modulus m by modulus: one
    read-only array, built on the first call and shared by every caller."""
    angles = [2j * np.pi * k / GRID_PHASES for k in range(GRID_PHASES)]
    grid = np.array([m * np.exp(x) for m in GRID_MODULI for x in angles])
    grid.flags.writeable = False
    return grid


class ZeroFamily(Enum):
    """The ten product-vector families with vanishing witness value.

    The first six fix two qubit factors at basis states and leave one factor
    free (any parameters, any s, t > 0). Z1..Z4 are the phase-locked
    families with two positive parameters (a, b), defined only on s t = 8.
    """

    XI_01 = "xi_01"  # (free) (x) |0> (x) |1>
    XI_10 = "xi_10"  # (free) (x) |1> (x) |0>
    ETA_0 = "eta_0"  # |0> (x) (free) (x) |0>
    ETA_1 = "eta_1"  # |1> (x) (free) (x) |1>
    ZETA_PARAM_0 = "zeta_0"  # |0> (x) |0> (x) (free)
    ZETA_PARAM_1 = "zeta_1"  # |1> (x) |1> (x) (free)
    Z1 = "z1"
    Z2 = "z2"
    Z3 = "z3"
    Z4 = "z4"


# omega exponents (first factor, second factor, third factor) per Z family.
_Z_EXPONENTS = {
    ZeroFamily.Z1: (7, 1, 3),
    ZeroFamily.Z2: (5, 3, 5),
    ZeroFamily.Z3: (3, 5, 3),
    ZeroFamily.Z4: (1, 7, 5),
}

Z_FAMILIES = tuple(_Z_EXPONENTS)
PV1_FAMILIES = tuple(fam for fam in ZeroFamily if fam not in _Z_EXPONENTS)

_E0 = np.array([1.0, 0.0], dtype=complex)
_E1 = np.array([0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class ZeroSample:
    """One point of a zero-set family: a free factor (c0, c1) for the first
    six families, a positive pair (a, b) for Z1..Z4."""

    family: ZeroFamily
    params: tuple

    def __post_init__(self):
        if len(self.params) != 2:
            raise InvalidParamsError("a zero sample takes exactly two parameters")
        if self.family in _Z_EXPONENTS:
            a, b = self.params
            if not (float(a) > 0 and float(b) > 0):
                raise InvalidParamsError("Z-family parameters must be positive reals")


def zeta_vector(family: ZeroFamily, a: float, b: float, params: FamilyParams) -> ProductVector:
    """The phase-locked product vector of a Z family at parameters (a, b).

    Z1 = (1, a w^7) (x) (1, b w) (x) (b, u a w^3) and cyclic variants, with
    w = exp(i pi / 4) and u = s / (2 sqrt 2). Defined only on s t = 8.
    """
    if family not in _Z_EXPONENTS:
        raise InvalidParamsError(f"{family} is not a phase-locked family")
    if not params.on_variety:
        raise OffVarietyError(f"family {family.value} needs s*t = 8, got {params.s * params.t}")
    k1, k2, k3 = _Z_EXPONENTS[family]
    a = float(a)
    b = float(b)
    return ProductVector(
        [
            np.array([1.0, a * eighth_root(k1)]),
            np.array([1.0, b * eighth_root(k2)]),
            np.array([b, params.u * a * eighth_root(k3)]),
        ]
    )


def zero_pair_and_kernel(
    family: ZeroFamily, a: float, b: float, params: FamilyParams
) -> tuple[complex, complex, np.ndarray]:
    """The D = 0 rank-one pair (a w^-k1, b w^-k2) of a Z family, the conjugate
    phases of its first two factors, and the kernel vector (R b, s a w^k3) of
    the image at that pair (proportional to its third factor); any s, t > 0."""
    k1, k2, k3 = _Z_EXPONENTS[family]
    alpha = a * eighth_root(-k1)
    beta = b * eighth_root(-k2)
    kernel = np.array([R * b, params.s * a * eighth_root(k3)], dtype=complex)
    return alpha, beta, kernel


def realize_zero_vector(sample: ZeroSample, params: FamilyParams) -> ProductVector:
    """Turn a zero-set sample into a concrete product vector."""
    fam = sample.family
    if fam in _Z_EXPONENTS:
        a, b = sample.params
        return zeta_vector(fam, a, b, params)
    free = np.asarray(sample.params, dtype=complex)
    slots = {
        ZeroFamily.XI_01: [free, _E0, _E1],
        ZeroFamily.XI_10: [free, _E1, _E0],
        ZeroFamily.ETA_0: [_E0, free, _E0],
        ZeroFamily.ETA_1: [_E1, free, _E1],
        ZeroFamily.ZETA_PARAM_0: [_E0, _E0, free],
        ZeroFamily.ZETA_PARAM_1: [_E1, _E1, free],
    }
    return ProductVector(list(slots[fam]))


def canonical_ten(params: FamilyParams) -> list[ProductVector]:
    """Ten zero-set vectors spanning the whole space under every partial
    conjugation: six basis vectors plus the four Z vectors at (a, b) = (1, 1)."""
    if not params.on_variety:
        raise OffVarietyError("the canonical ten are defined on s*t = 8 only")
    basis = ("000", "001", "010", "101", "110", "111")
    ten = [ProductVector([(_E0, _E1)[int(c)] for c in label]) for label in basis]
    ten += [zeta_vector(fam, 1.0, 1.0, params) for fam in Z_FAMILIES]
    return ten


# Free-factor grid for the first six families: two basis points plus two
# genuinely complex directions; already more than enough for the rank checks.
_PV1_FREE_PARAMS = ((1, 0), (0, 1), (1, 1), (1, 1j))
_Z_AB_PARAMS = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0))


def default_zero_sample(params: FamilyParams) -> list[ZeroSample]:
    """Deterministic sampling of the zero set used by the spanning checks."""
    samples = [
        ZeroSample(family=fam, params=free)
        for free in _PV1_FREE_PARAMS
        for fam in PV1_FAMILIES
    ]
    if params.on_variety:
        samples += [
            ZeroSample(family=fam, params=ab) for fam in Z_FAMILIES for ab in _Z_AB_PARAMS
        ]
    return samples


@dataclass
class SpanningReport:
    """Partial-conjugation ranks of a zero-set sample.

    `stack` is the `samples` flattened under every conjugation, as
    `conjugation_stack` gives it; its first entry is the sample itself.
    `full_spanning` holds when every one of the 2^n conjugated images spans
    the whole space. The first-six-family rows are ranked separately, under
    every conjugation too; `pv1_complement` is the computational basis
    vectors outside their support, which are orthogonal to their span.
    """

    samples: list[ZeroSample]
    stack: np.ndarray
    subset_ranks: dict[tuple[int, ...], int]
    full_spanning: bool
    pv1_subset_ranks: dict[tuple[int, ...], int]
    pv1_complement: list[np.ndarray]
    dimension: int

    @property
    def sample_size(self) -> int:
        return len(self.samples)

    @property
    def pv1_rank(self) -> int:
        return self.pv1_subset_ranks[()]


def spanning_report(
    params: FamilyParams,
    samples: list[ZeroSample] | None = None,
    rank_tol: float = TOLERANCES["rank"],
) -> SpanningReport:
    """Rank of the partially conjugated zero-set sample, for every subset.

    The sample is flattened once; one SVD ranks its 2^n conjugations, one
    more the first-six-family rows of each. `pv1_complement` is the basis
    vectors on which all those rows are exactly zero: the orthogonal
    complement of their span exactly when `pv1_rank + len(pv1_complement)
    == dimension`.

    With the default sample on s t = 8 every rank is full; restricted to the
    first six families every rank is 6 and the complement is |011>, |100>.
    """
    if samples is None:
        if not params.on_variety:
            raise OffVarietyError("the default spanning sample needs s*t = 8")
        samples = default_zero_sample(params)
    flats = conjugation_stack([realize_zero_vector(s, params) for s in samples], THREE_QUBITS)
    subsets = all_subsets(3)
    ranks = dict(zip(subsets, numerical_ranks(flats, rank_tol).tolist()))
    pv1 = flats[:, [s.family in PV1_FAMILIES for s in samples]]
    dim = THREE_QUBITS.total_dim
    return SpanningReport(
        samples=samples,
        stack=flats,
        subset_ranks=ranks,
        full_spanning=bool(ranks) and all(r == dim for r in ranks.values()),
        pv1_subset_ranks=dict(zip(subsets, numerical_ranks(pv1, rank_tol).tolist())),
        pv1_complement=list(np.eye(dim)[~np.any(pv1[0], axis=0)]),
        dimension=dim,
    )
