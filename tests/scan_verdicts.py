"""Count false verdicts over the plane and curve scans, row by row.

    PYTHONPATH=src python tests/scan_verdicts.py

Plane: `run_verify(restarts=16)` at s = 10^k for k = -150, -145, ..., 150
and s t in {0.5, 1, 4, 7.9, 8.0001, 9, 100, 1e6}, t = st / s: 488 points.
Curve: `run_full_report(restarts=16)` at s = 10^(k/4) for k = -48, ..., 48,
t = 8 / s: 97 points.
Detect: `run_detect("xstate")` at the curve's 97 values of s, with
s t = 8 (1 + delta) for delta in {-1e-3, 0, 1e-3}: 291 points.

The truth comes from exact arithmetic on the floats s and t (each is a
dyadic rational, so `fractions.Fraction` multiplies them exactly). W(s, t)
is block positive iff s t >= 8, and s t within `TOLERANCES["variety"]` of 8
counts as on the curve. So `rank_one_positivity_grid`, `seesaw_certificate`
and the document's verdict (`all_pass`) are right when they PASS exactly
there. Every other row is right when it PASSes wherever it runs; a SKIP is
no verdict. `x_state` is PPT exactly where W is block positive, and there,
at these offsets, its pairing s t / sqrt 2 - 8 is negative (s t < 8 sqrt 2):
the right verdict is ENTANGLED_NPT below the curve and
PPT_ENTANGLED_DETECTED on it and above. ENTANGLED_NPT on a PPT state is a
false NPT, any other verdict on an NPT state a false PPT, and INCONCLUSIVE
on a detected one undetected.

Per scan and row the table gives the false PASS, false FAIL and raise
counts (per delta, the detect kinds and raises), and the worst point of each: the one with the least |log10 s|,
the mildest scale at which the row is wrong, ties going to the point
farthest from the curve. A raise counts on the document's row and on the
row whose check raised it, read from the traceback. Two runs print the
same bytes. Tier-1 does not collect this file; it is a tool, not a
ratchet: no test pins its counts.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from spanwitness.family import ST_PRODUCT, FamilyParams
from spanwitness.linalg import TOLERANCES
from spanwitness.report import REPORT, VERIFY, run_detect, run_full_report, run_verify

RESTARTS = 16
PLANE_PRODUCTS = (0.5, 1.0, 4.0, 7.9, 8.0001, 9.0, 100.0, 1e6)
POSITIVITY_ROWS = ("rank_one_positivity_grid", "seesaw_certificate")
DOCUMENT = "(all_pass)"
KINDS = ("false PASS", "false FAIL", "raise")
DETECT_OFFSETS = (-1e-3, 0.0, 1e-3)
DETECT_KINDS = ("false NPT", "false PPT", "undetected", "raise")


def plane_points() -> list[tuple[float, float]]:
    return [(10.0**k, st / 10.0**k) for k in range(-150, 151, 5) for st in PLANE_PRODUCTS]


def curve_points() -> list[tuple[float, float]]:
    return [(10.0 ** (k / 4), 8.0 / 10.0 ** (k / 4)) for k in range(-48, 49)]


def block_positive(s: float, t: float) -> bool:
    """s t >= 8 exactly, or s t within `variety` of 8."""
    gap = Fraction(s) * Fraction(t) - ST_PRODUCT
    return gap >= 0 or abs(gap) < Fraction(TOLERANCES["variety"])


def raising_row(exc: BaseException, rows: dict[str, str]) -> str | None:
    """The row whose check the outermost check frame of the traceback belongs to."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name in rows:
            return rows[tb.tb_frame.f_code.co_name]
        tb = tb.tb_next
    return None


def scan(points, run, entries) -> dict[str, dict[str, list]]:
    """Per row (the document's first), per kind, the points where it happened."""
    rows = {e.check: e.name for e in entries}
    found = {name: {kind: [] for kind in KINDS} for name in (DOCUMENT, *rows.values())}
    for s, t in points:
        holds = block_positive(s, t)
        try:
            with np.errstate(all="ignore"):
                doc = run(FamilyParams(s, t), restarts=RESTARTS)
        except Exception as exc:
            found[DOCUMENT]["raise"].append((s, t))
            if (row := raising_row(exc, rows)) is not None:
                found[row]["raise"].append((s, t))
            continue
        verdicts = [(DOCUMENT, "PASS" if doc.all_pass else "FAIL", holds)]
        verdicts += [(c.name, c.status, holds or c.name not in POSITIVITY_ROWS) for c in doc.checks]
        for name, status, truth in verdicts:
            if status == "PASS" and not truth:
                found[name]["false PASS"].append((s, t))
            elif status == "FAIL" and truth:
                found[name]["false FAIL"].append((s, t))
    return found


def scan_detect(delta: float) -> dict[str, list]:
    """Per detect kind, the points s t = 8 (1 + delta) where `detect xstate` said it."""
    found = {kind: [] for kind in DETECT_KINDS}
    for s, _ in curve_points():
        t = ST_PRODUCT * (1 + delta) / s
        truth = "PPT_ENTANGLED_DETECTED" if block_positive(s, t) else "ENTANGLED_NPT"
        try:
            with np.errstate(all="ignore"):
                verdict = run_detect("xstate", FamilyParams(s, t)).checks[2].values["verdict"]
        except Exception:
            found["raise"].append((s, t))
            continue
        if verdict == "ENTANGLED_NPT" != truth:
            found["false NPT"].append((s, t))
        elif truth == "ENTANGLED_NPT" != verdict:
            found["false PPT"].append((s, t))
        elif verdict != truth:
            found["undetected"].append((s, t))
    return found


def worst(points: list[tuple[float, float]]) -> str:
    """The point with the least |log10 s|, ties to the one farthest from s t = 8
    and then to the first in scan order; "-" for none."""

    def mildest(point):
        s, t = point
        return abs(math.log10(s)), -abs(math.log10(s) + math.log10(t) - math.log10(ST_PRODUCT))

    if not points:
        return "-"
    s, t = min(points, key=mildest)
    return f"s={s:.4g} st={s * t:.6g}"


def line(label: str, name: str, cells: list[str]) -> str:
    return f"{label:<6} {name:<26} {' '.join(cells)}".rstrip()


def counts(found: dict[str, list], kinds) -> list[str]:
    return [f"{len(found[kind]):>10} {worst(found[kind]):<24}" for kind in kinds]


def table() -> list[str]:
    lines = [line("scan", "row", [f"{kind:>10} {'worst':<24}" for kind in KINDS])]
    for label, found in (
        ("plane", scan(plane_points(), run_verify, VERIFY)),
        ("curve", scan(curve_points(), run_full_report, REPORT)),
    ):
        lines += [line(label, name, counts(kinds, KINDS)) for name, kinds in found.items()]
    lines.append(line("scan", "row", [f"{kind:>10} {'worst':<24}" for kind in DETECT_KINDS]))
    for delta in DETECT_OFFSETS:
        lines.append(line("detect", f"xstate delta={delta:g}", counts(scan_detect(delta), DETECT_KINDS)))
    return lines


if __name__ == "__main__":
    sys.stdout.write("\n".join(table()) + "\n")
