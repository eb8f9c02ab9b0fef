"""Write the CLI's documents at a fixed set of points, one file per command.

    PYTHONPATH=src python tests/dump_documents.py OUT_DIR

Each command runs in-process through `spanwitness.cli.main`. Its file holds
the exit code on the first line, then everything it wrote to stdout; stderr
(the elapsed time, error lines) is dropped. The commands are `verify`,
`spanning` (every `--families`) and `detect` (xstate, rho-lambda:0.5,
perturbed:0.1), each with `--json`, at ST8_GRID, at (1, 1), (2, 5) and
(3, 1), and at 40 points on s t = 8 from a fixed seed; `report --json
--restarts 16` at the first 8 of those points; and `build` at the default
point, at (2, 4) and at (1, 1).

Two trees are compared byte for byte by dumping each and running
`diff -r OUT_A OUT_B`: empty output means every document is identical.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

from spanwitness import ST8_GRID
from spanwitness.cli import main
from spanwitness.report import SPANNING_FAMILY_CHOICES

SEED = 2015
CURVE_POINTS = 40
REPORT_POINTS = 8
DETECT_SPECS = ("xstate", "rho-lambda:0.5", "perturbed:0.1")


def points() -> list[tuple[float, float]]:
    rng = random.Random(SEED)
    curve = []
    for _ in range(CURVE_POINTS):
        s = 10 ** rng.uniform(-1.5, 1.5)
        curve.append((s, 8 / s))
    return [(p.s, p.t) for p in ST8_GRID] + [(1.0, 1.0), (2.0, 5.0), (3.0, 1.0)] + curve


def commands() -> list[list[str]]:
    out = [["build"]]
    for i, (s, t) in enumerate(points()):
        at = ["--s", repr(s), "--t", repr(t), "--json"]
        out.append(["verify", *at])
        out += [["spanning", "--families", fam, *at] for fam in SPANNING_FAMILY_CHOICES]
        out += [["detect", spec, *at] for spec in DETECT_SPECS]
        if i < REPORT_POINTS:
            out.append(["report", "--restarts", "16", *at])
    # last, so that the files before them keep their names
    return out + [["build", "--s", "2", "--t", "4"], ["build", "--s", "1", "--t", "1"]]


def run(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{stdout.getvalue()}"


def dump(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = commands()
    for k, argv in enumerate(cmds):
        name = "_".join(a.lstrip("-").replace(":", "-") for a in argv if a != "--json")
        (out_dir / f"{k:03d}_{name}.txt").write_text(run(argv), encoding="utf-8")
    return len(cmds)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: dump_documents.py OUT_DIR")
    print(f"{dump(Path(sys.argv[1]))} documents written to {sys.argv[1]}")
