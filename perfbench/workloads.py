"""The three workloads: their set-up, one operation each, and the
correctness gate on its output.

A workload yields operations from `ops()`. The loop times `execute(op)`
only; `check(op, result)` runs outside the timed region and returns False
for a wrong output. Exceptions from the package count as failures and are
never raised out of the loop.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import inputs
from children import ChildResult, elapsed_ms, run_child

MAX_REPORTED_ERRORS = 3


class Failure:
    """An operation that raised; carries the formatted traceback."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc))


class _InProcess:
    """Shared loop plumbing for the workloads that call the package directly."""

    errors_reported = 0

    def execute(self, op):
        try:
            return self.call(op)
        except Exception as exc:  # the loop must keep running; counted as failed
            return Failure(exc)

    def check(self, op, result) -> bool:
        if isinstance(result, Failure):
            if self.errors_reported < MAX_REPORTED_ERRORS:
                self.errors_reported += 1
                print(f"operation {op!r} raised:\n{result.text}", file=sys.stderr)
            return False
        try:
            return self.gate(op, result)
        except (KeyError, TypeError, ValueError):
            return False


def _checks_by_name(doc) -> dict:
    return {c.name: c for c in doc.checks}


class CurveVerify(_InProcess):
    name = "curve_verify"

    def __init__(self, seed: int, workdir: Path):
        from spanwitness.family import FamilyParams
        from spanwitness.report import run_verify

        self.seed = seed
        self._params = FamilyParams
        self._run_verify = run_verify

    def ops(self):
        return inputs.curve_points(self.seed)

    def call(self, op: inputs.CurvePoint):
        return self._run_verify(self._params(op.s, op.t), seed=op.seesaw_seed)

    def gate(self, op, doc) -> bool:
        """All 12 checks pass, the see-saw minimum is within its tolerance of
        0, and every cut minimum reaches -1 within it."""
        checks = _checks_by_name(doc)
        tol = doc.tolerances["seesaw"]
        if len(doc.checks) != 12 or any(c.status != "PASS" for c in doc.checks):
            return False
        if abs(checks["seesaw_certificate"].values["min_value"]) > tol:
            return False
        minima = checks["cut_negativity"].values["minima"]
        return len(minima) == 3 and all(v <= -1.0 + tol for v in minima.values())


class StateDetect(_InProcess):
    name = "state_detect"

    def __init__(self, seed: int, workdir: Path):
        from spanwitness.family import FamilyParams
        from spanwitness.report import run_detect
        from spanwitness.serialize import save_json, state_payload
        from spanwitness.tensor import THREE_QUBITS, state_from

        self.seed = seed
        self._params = FamilyParams
        self._run_detect = run_detect
        self.files = []
        for sf in inputs.state_files(seed):
            path = workdir / sf.name
            save_json(path, state_payload(state_from(sf.matrix, THREE_QUBITS.dims)))
            self.files.append((str(path), sf))

    def ops(self):
        return inputs.detect_ops(self.seed, self.files)

    def call(self, op: inputs.DetectOp):
        return self._run_detect(op.spec, self._params(op.s, 8.0 / op.s))

    def gate(self, op, doc) -> bool:
        """The verdict known from the construction, and the analytic pairing
        within 1e-10."""
        checks = _checks_by_name(doc)
        verdict = checks["verdict"].values["verdict"]
        value = checks["pairing"].values["value"]
        return verdict == op.verdict and abs(value - op.pairing) <= inputs.PAIRING_TOL


class CliCold:
    """Cold `python -m spanwitness` runs, one child process at a time.

    With `traced` set, each command runs under traced_cli.py instead, which
    records spans inside the child and writes them to `spans_path`.
    """

    name = "cli_cold"

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.root = root
        self.build_out = workdir / "witness.json"
        self.spans_path = workdir / "spans.json"
        self.traced = False
        self.first: dict[str, bytes] = {}
        self.errors_reported = 0

    def ops(self):
        return inputs.cli_ops(self.seed, str(self.build_out), str(self.workdir / "missing.json"))

    def argv(self, op: inputs.CliOp) -> list[str]:
        if self.traced:
            shim = str(self.root / "perfbench" / "traced_cli.py")
            return [sys.executable, shim, str(self.spans_path), *op.argv]
        return [sys.executable, "-m", "spanwitness", *op.argv]

    def execute(self, op: inputs.CliOp) -> ChildResult:
        self.build_out.unlink(missing_ok=True)
        return run_child(self.argv(op), self.env, self.workdir, self.root)

    def check(self, op: inputs.CliOp, result: ChildResult) -> bool:
        ok = self.gate(op, result)
        if not ok and self.errors_reported < MAX_REPORTED_ERRORS:
            self.errors_reported += 1
            print(
                f"command {' '.join(op.argv)} failed its gate (exit {result.returncode}):\n"
                f"{result.stderr.decode(errors='replace')}",
                file=sys.stderr,
            )
        return ok

    def gate(self, op: inputs.CliOp, result: ChildResult) -> bool:
        """Exit codes match; outputs are what the command promises and are
        byte-identical to the first run of the same command."""
        if op.label == "malformed":
            return result.returncode == 2 and b"Traceback" not in result.stderr
        if result.returncode != 0 or b"Traceback" in result.stderr:
            return False
        if op.label != "build" and elapsed_ms(result.stderr) is None:
            return False
        try:
            out = self.build_out.read_bytes() if op.label == "build" else result.stdout
            promised = self._promised(op.label, out)
        except (OSError, ValueError, KeyError, TypeError):
            return False
        return promised and self.first.setdefault(op.label, out) == out

    @staticmethod
    def _promised(label: str, out: bytes) -> bool:
        if label == "build":
            doc = json.loads(out)
            return doc["dims"] == [2, 2, 2] and len(doc["matrix"]) == 8
        if label == "report":
            doc = json.loads(out)
            return doc["all_pass"] is True and len(doc["checks"]) == 18
        if label == "detect":
            return inputs.DETECTED.encode() in out and out.endswith(b"ALL CHECKS PASS\n")
        return out.endswith(b"RESULT: ALL CHECKS PASS\n")


def make(name: str, seed: int, workdir: Path, env: dict, root: Path):
    if name == CurveVerify.name:
        return CurveVerify(seed, workdir)
    if name == StateDetect.name:
        return StateDetect(seed, workdir)
    if name == CliCold.name:
        return CliCold(seed, workdir, env, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (CurveVerify.name, StateDetect.name, CliCold.name)
