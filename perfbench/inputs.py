"""Workload inputs, generated from the workload seed with the standard
library only, so that a seed gives the same inputs on any numpy version.

Every generator is an endless stream; a run takes as many items as its
time allows, and the first N items of a seed never change. Expected
results are written here from the closed forms, independently of the
package under test.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

SQRT2 = math.sqrt(2.0)

# curve_verify draws s = 2**u with u uniform in this range and t = 8 / s.
CURVE_U = (-0.5, 2.5)

# state_detect pairs every state with a witness at one of these on-curve s
# (t = 8 / s), so witness inputs repeat often.
DETECT_S = (2.0 * SQRT2, 2.0, 4.0, 1.0)

# perturbed:<eps> draws eps uniform in (0, PERTURB_MAX), the package's
# PERTURBATION_LIMIT.
PERTURB_MAX = 0.29

# Pairing tolerance of `detect`; an analytic pairing below -PAIRING_TOL is a
# detection.
PAIRING_TOL = 1e-10

DETECTED = "PPT_ENTANGLED_DETECTED"
CERTIFIED = "SEPARABLE_CERTIFIED"
NPT = "ENTANGLED_NPT"
INCONCLUSIVE = "INCONCLUSIVE"


class CurvePoint(NamedTuple):
    s: float
    t: float
    seesaw_seed: int


def curve_points(seed: int) -> Iterator[CurvePoint]:
    """Distinct points on s t = 8, each with a fresh see-saw seed."""
    rng = random.Random(f"curve_verify:{seed}")
    seen: set[float] = set()
    while True:
        s = 2.0 ** rng.uniform(*CURVE_U)
        seesaw_seed = rng.randrange(2**31)
        if s in seen:
            continue
        seen.add(s)
        yield CurvePoint(s, 8.0 / s, seesaw_seed)


# ---------------------------------------------------------------------------
# state_detect
# ---------------------------------------------------------------------------


class StateFile(NamedTuple):
    """A state written to disk during set-up, with its known verdict."""

    name: str
    matrix: list  # 8 x 8 nested list of complex
    verdict: str


class DetectOp(NamedTuple):
    spec: str  # the CLI state spec; file specs name a StateFile
    s: float
    pairing: float  # analytic <rho, W(s, 8 / s)>
    verdict: str


def _zero8() -> list:
    return [[0j] * 8 for _ in range(8)]


def noisy_ghz(p: float) -> list:
    """p |GHZ><GHZ| + (1 - p) I / 8; its partial transposes are negative
    for p > 1/5."""
    m = _zero8()
    for i in range(8):
        m[i][i] = (1.0 - p) / 8.0
    for i in (0, 7):
        for j in (0, 7):
            m[i][j] += p / 2.0
    return m


def perturbed_identity(delta: float, rng: random.Random) -> list:
    """I / 8 + delta H with H Hermitian, traceless, of unit Frobenius norm.

    For delta < 1/8 every partial transpose stays positive definite (a
    partial transpose keeps the Frobenius norm), so the state is PPT; the
    pairing stays above (s + t) / 8 - delta |W|_F > 0, so it is undetected.
    """
    h = _zero8()
    for i in range(8):
        h[i][i] = complex(rng.gauss(0.0, 1.0))
        for j in range(i + 1, 8):
            z = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            h[i][j] = z
            h[j][i] = z.conjugate()
    mean = sum(h[i][i] for i in range(8)) / 8.0
    for i in range(8):
        h[i][i] -= mean
    norm = math.sqrt(sum(abs(z) ** 2 for row in h for z in row))
    return [
        [(1.0 / 8.0 if i == j else 0.0) + delta * h[i][j] / norm for j in range(8)]
        for i in range(8)
    ]


def state_files(seed: int) -> list[StateFile]:
    """Two NPT noisy GHZ states and two undetected PPT perturbed identities."""
    rng = random.Random(f"state_files:{seed}")
    files = []
    for k in range(2):
        files.append(StateFile(f"ghz{k}.json", noisy_ghz(rng.uniform(0.4, 0.9)), NPT))
    for k in range(2):
        delta = rng.uniform(0.005, 0.05)
        files.append(StateFile(f"pid{k}.json", perturbed_identity(delta, rng), INCONCLUSIVE))
    return files


def witness_pairing(m: list, s: float, t: float) -> float:
    """<rho, W(s, t)> = sum_ij rho_ij W_ij from the X-shaped entries of W."""
    v = (
        m[0][7] + m[7][0] + m[1][6] + m[6][1] - m[2][5] - m[5][2]
        + m[3][4] + m[4][3] + t * m[3][3] + s * m[4][4]
    )
    return complex(v).real


def xstate_pairing(s: float, t: float) -> float:
    return s * t / SQRT2 - 8.0


def perturbed_pairing(eps: float, s: float, t: float) -> float:
    """(1 - eps) x / 8 + eps I / 8 against W; tr W = s + t."""
    return (1.0 - eps) * xstate_pairing(s, t) / 8.0 + eps * (s + t) / 8.0


def detect_ops(seed: int, files: list[tuple[str, StateFile]]) -> Iterator[DetectOp]:
    """Mixed detect calls; `files` pairs each written StateFile with its path."""
    rng = random.Random(f"state_detect:{seed}")
    while True:
        s = rng.choice(DETECT_S)
        t = 8.0 / s
        kind = rng.randrange(4)
        if kind == 0:
            yield DetectOp("xstate", s, xstate_pairing(s, t), DETECTED)
        elif kind == 1:
            lam = rng.uniform(0.0, 1.0)
            if lam > 0.0:
                yield DetectOp(f"rho-lambda:{lam!r}", s, 0.0, CERTIFIED)
        elif kind == 2:
            eps = rng.uniform(0.0, PERTURB_MAX)
            if eps > 0.0:
                value = perturbed_pairing(eps, s, t)
                verdict = DETECTED if value < -PAIRING_TOL else INCONCLUSIVE
                yield DetectOp(f"perturbed:{eps!r}", s, value, verdict)
        else:
            path, sf = files[rng.randrange(len(files))]
            yield DetectOp(f"file:{path}", s, witness_pairing(sf.matrix, s, t), sf.verdict)


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

# On-curve (s, t) as CLI tokens; s * t is exactly 8 for each.
CLI_PARAMS = (("2r2", "2r2"), ("2", "4"), ("4", "2"), ("1", "8"))


class CliOp(NamedTuple):
    label: str  # build | verify | detect | spanning | report | malformed
    argv: tuple
    timed: bool
    closes_cycle: bool


def cli_ops(seed: int, build_out: str, missing: str) -> Iterator[CliOp]:
    """Endless cycles of the five timed commands at one seeded (s, t, see-saw
    seed), each followed by one malformed call that must exit 2."""
    rng = random.Random(f"cli_cold:{seed}")
    s, t = rng.choice(CLI_PARAMS)
    seesaw_seed = str(rng.randrange(10_000))
    p = ("--s", s, "--t", t)
    cycle = (
        CliOp("build", ("build", *p, "--out", build_out), True, False),
        CliOp("verify", ("verify", *p, "--seed", seesaw_seed), True, False),
        CliOp("detect", ("detect", "xstate", *p), True, False),
        CliOp("spanning", ("spanning", *p), True, False),
        CliOp("report", ("report", "--json", *p, "--seed", seesaw_seed), True, False),
    )
    malformed = (
        ("detect", "rho-lambda:2"),
        ("detect", "perturbed:0.5"),
        ("detect", "perturbed:abc"),
        ("detect", "nosuchstate"),
        ("detect", f"file:{missing}"),
        ("verify", "--s", "abc"),
        ("spanning", "--families", "bogus"),
        ("build", "--s", "-1"),
    )
    while True:
        yield from cycle
        yield CliOp("malformed", malformed[rng.randrange(len(malformed))], False, True)
