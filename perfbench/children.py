"""Child processes: one at a time, timed from spawn to reaping, with their
own peak resident set size from wait4."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import NamedTuple

CHILD_TIMEOUT_S = 120.0


class ChildResult(NamedTuple):
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict, workdir: Path, cwd: Path) -> ChildResult:
    """Run argv to completion; stdout and stderr go through files in workdir
    so that a large output cannot block the child."""
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


_IMPORTTIME = re.compile(rb"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times_ms(stderr: bytes) -> dict[str, float]:
    """Cumulative import time in ms per top-level package, from the stderr
    of `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(4).decode()] = int(m.group(2)) / 1000.0
    return out


_ELAPSED = re.compile(rb"^elapsed (\d+) ms$", re.MULTILINE)


def elapsed_ms(stderr: bytes) -> float | None:
    """The CLI's own compute time, from its `elapsed N ms` stderr line."""
    m = _ELAPSED.search(stderr)
    return float(m.group(1)) if m else None
