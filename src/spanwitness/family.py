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
phase-locked product-vector families sampled by `default_zero_sample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .linalg import TOLERANCES, read_only
from .maps import MultilinearMapTable, evaluate
from .tensor import THREE_QUBITS, State, conjugation_stack

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
    the curve s t = 8 are gated on `on_variety`.
    """

    s: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise InvalidParamsError("parameters must be finite")
        # numpy scalars would leak numpy types (np.bool_ on_variety) into documents
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "t", float(self.t))
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
    return MultilinearMapTable(blocks)


def witness_matrix(params: FamilyParams) -> State:
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
    return State(matrix=m, shape=THREE_QUBITS)


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


class GridTable(NamedTuple):
    """The rank-one grid's parameter-free table, read by the grid rows and the see-saw's bound, each
    array read-only: `points` m e^{2 pi i k / GRID_PHASES}, modulus m by modulus; at the grid pairs (a
    down the rows, b across), with images [[s A, m01], [m10, t D]], `a` = A = x22 y11, `d` = D = x11 y22,
    `mag` = |(m01 + conj(m10)) / 2|, `re` and `im` of m01 m10, `det` = D(a, b), and `norm` = (1 + |a|^2)
    (1 + |b|^2), the squared norm of (1, a) (x) (1, b)."""

    points: np.ndarray
    a: np.ndarray
    d: np.ndarray
    mag: np.ndarray
    re: np.ndarray
    im: np.ndarray
    det: np.ndarray
    norm: np.ndarray


@cache
def grid_table() -> GridTable:
    """Built once per process; the image parts from `evaluate` on differences of `bilinear_map`."""
    angles = [2j * np.pi * k / GRID_PHASES for k in range(GRID_PHASES)]
    points = np.array([m * np.exp(x) for m in GRID_MODULI for x in angles])
    p = rank_one_projector(points)
    one, s2, t2 = (bilinear_map(FamilyParams(*st)).blocks for st in ((1, 1), (2, 1), (1, 2)))
    off, a, d = (evaluate(MultilinearMapTable(b), p[:, None], p[None, :])
                 for b in (one - (s2 - one) - (t2 - one), s2 - one, t2 - one))
    m01, m10 = off[..., 0, 1], off[..., 1, 0]
    product = m01 * m10
    scale = 1 + np.abs(points) ** 2
    parts = (points, a[..., 0, 0].real, d[..., 1, 1].real, np.abs((m01 + m10.conj()) / 2), product.real,
             product.imag, determinant_d(points[:, None], points[None, :]), np.outer(scale, scale))
    return GridTable(*(read_only(np.ascontiguousarray(x)) for x in parts))


class ZeroFamily(Enum):
    """The ten sampled families of product vectors with vanishing witness value.

    The first six fix two qubit factors at basis states and leave one factor
    free (any parameters, any s, t > 0). Z1..Z4 are the phase-locked
    families with two positive parameters (a, b), sampled only on s t = 8.
    They are not the whole zero set: the Z formulas vanish at (a, b) of mixed
    sign too, the phase pairs with k1 + k2 = 4 (mod 8) (ROADMAP item 2).
    """

    XI_01 = "xi_01"
    XI_10 = "xi_10"
    ETA_0 = "eta_0"
    ETA_1 = "eta_1"
    ZETA_PARAM_0 = "zeta_0"
    ZETA_PARAM_1 = "zeta_1"
    Z1 = "z1"
    Z2 = "z2"
    Z3 = "z3"
    Z4 = "z4"


# A free-factor family's factors, party by party: "f" the free factor, "0" and
# "1" the basis states |0> and |1>.
_PV1_SLOTS = {
    ZeroFamily.XI_01: "f01",
    ZeroFamily.XI_10: "f10",
    ZeroFamily.ETA_0: "0f0",
    ZeroFamily.ETA_1: "1f1",
    ZeroFamily.ZETA_PARAM_0: "00f",
    ZeroFamily.ZETA_PARAM_1: "11f",
}
_BASIS = ((1, 0), (0, 1))

# omega exponents (first factor, second factor, third factor) per Z family.
_Z_EXPONENTS = {
    ZeroFamily.Z1: (7, 1, 3),
    ZeroFamily.Z2: (5, 3, 5),
    ZeroFamily.Z3: (3, 5, 3),
    ZeroFamily.Z4: (1, 7, 5),
}

Z_FAMILIES = tuple(_Z_EXPONENTS)
PV1_FAMILIES = tuple(_PV1_SLOTS)


def z_factors(family: ZeroFamily, a: float, b: float, u: float) -> tuple:
    """A Z family's three factors at (a, b), from its omega exponents (k1, k2, k3)
    and the third-factor scale u = s / (2 sqrt 2), as pairs of scalars:
    (1, a w^k1), (1, b w^k2), (b, u a w^k3), w^k read from the exact table;
    Z1 = (1, a w^7) (x) (1, b w) (x) (b, u a w^3)."""
    k1, k2, k3 = _Z_EXPONENTS[family]
    return (1.0, a * eighth_root(k1)), (1.0, b * eighth_root(k2)), (b, u * a * eighth_root(k3))


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


# Free-factor grid for the first six families: two basis points plus two
# genuinely complex directions; already more than enough for the rank checks.
_PV1_FREE_PARAMS = ((1, 0), (0, 1), (1, 1), (1, 1j))
_Z_AB_PARAMS = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0))
_FREE_ROWS = len(PV1_FAMILIES) * len(_PV1_FREE_PARAMS)
_FAMILY_NAMES = tuple(f.value for f in PV1_FAMILIES + Z_FAMILIES)

# Ten rows of the default sample on s t = 8 that span the whole space under
# every partial conjugation: the basis vectors |000>, |001>, |010>, |101>,
# |110>, |111> at free parameters (1, 0) (rows 0-5) and (0, 1) (rows 6-11),
# then Z1..Z4 at (a, b) = (1, 1).
CANONICAL_TEN_ROWS = (2, 0, 1, 6, 7, 9, 24, 27, 30, 33)


class FreeTable(NamedTuple):
    """`free_rows` read-only, with their conjugation `stack`, its first half's `singular_values`
    as `subset_ranks` takes them, and `complement`, the basis vectors outside the rows' support."""

    rows: np.ndarray
    stack: np.ndarray
    singular_values: np.ndarray
    complement: np.ndarray


def free_rows() -> np.ndarray:
    """The default sample's first rows, the same for every s, t: each free-factor family at each free
    parameter in turn, (3, 24, 2). `rho0` reads them here, so `detect` makes no stack and no SVD."""
    return np.array([[free if c == "f" else _BASIS[int(c)] for c in _PV1_SLOTS[fam]]
                     for free in _PV1_FREE_PARAMS for fam in PV1_FAMILIES], dtype=complex).transpose(1, 0, 2)


@cache
def free_table() -> FreeTable:
    """Built once per process: every sample and spanning stack starts with it, and the pv1 ranks read it."""
    rows = free_rows()
    stack = conjugation_stack(rows)
    half = np.linalg.svd(stack[: len(stack) // 2], compute_uv=False)
    complement = np.eye(THREE_QUBITS.total_dim)[~np.any(stack[0], axis=0)]
    return FreeTable(*map(read_only, (rows, stack, half, complement)))


def default_zero_sample(params: FamilyParams) -> tuple[tuple[ZeroFamily, ...], np.ndarray]:
    """The zero-set sample of the spanning checks: a family label per row, and
    the rows' factors party by party as one complex (3, N, 2) array, as
    `conjugation_stack` takes them. The rows are `free_table().rows`, then, on
    s t = 8 only, each Z family at its three (a, b)."""
    labels = PV1_FAMILIES * len(_PV1_FREE_PARAMS)
    if not params.on_variety:
        return labels, free_table().rows
    rows = [z_factors(fam, a, b, params.u) for fam in Z_FAMILIES for a, b in _Z_AB_PARAMS]
    # one flat pass: np.array would spend longer discovering the nesting
    z = np.fromiter((x for row in rows for factor in row for x in factor), complex, 6 * len(rows))
    labels += tuple(fam for fam in Z_FAMILIES for _ in _Z_AB_PARAMS)
    return labels, np.concatenate([free_table().rows, z.reshape(-1, 3, 2).transpose(1, 0, 2)], axis=1)


def sample_stack(params: FamilyParams) -> np.ndarray:
    """The default zero-set sample's rows under every conjugation, as
    `conjugation_stack` gives them, its first entry the sample itself:
    `free_table().stack`, joined on s t = 8 by the Z rows' stack. Off the
    curve it is the shared read-only table."""
    if not params.on_variety:
        return free_table().stack
    z = conjugation_stack(default_zero_sample(params)[1][:, _FREE_ROWS:])
    return np.concatenate([free_table().stack, z], axis=1)


def family_maxima(values: np.ndarray) -> dict[str, float]:
    """The largest of `values`, one per row of the default sample, family by
    family: the free rows cycle through the six families once per free
    parameter, and the Z rows come three per family."""
    free = values[:_FREE_ROWS].reshape(-1, len(PV1_FAMILIES)).max(0)
    z = values[_FREE_ROWS:].reshape(-1, len(_Z_AB_PARAMS)).max(1)
    return dict(zip(_FAMILY_NAMES, free.tolist() + z.tolist()))
