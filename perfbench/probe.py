"""Set-up probe: a fresh process imports spanwitness, sets up one workload
and finishes one warm-up operation; exit 0 when its output passes the gate.

    python perfbench/probe.py WORKLOAD SEED WORKDIR

The caller times the whole process, interpreter start included.
"""

import contextlib
import io
import sys
from pathlib import Path

import spanwitness  # noqa: F401  (the import is part of what is timed)

import workloads


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if name == workloads.CliCold.name:
        from spanwitness.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli_main(["detect", "xstate"])
    w = workloads.make(name, seed, workdir, env={}, root=Path.cwd())
    op = next(iter(w.ops()))
    return 0 if w.check(op, w.execute(op)) else 1


if __name__ == "__main__":
    sys.exit(main())
