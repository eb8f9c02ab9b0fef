"""The CLI's report documents against pinned golden copies.

Each case runs one `--json` command in-process and compares the document
with `tests/data/golden/<case>.json`: the key order of the document and of
each check, command, params, tolerances, check names and their order,
statuses, per-check tolerance and note, `all_pass` and the exit code
exactly, and every float among the check values within 1e-12.

Regenerate the golden files after an intended change of the contract with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from spanwitness.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
FLOAT_TOL = 1e-12

ON_CURVE = (("2r2", "2r2"), ("2", "4"), ("4", "2"), ("1", "8"))
OFF_CURVE = (("1", "1"), ("1", "4"), ("4", "4"))


def _params(s, t):
    return ["--s", s, "--t", t]


def _slug(*parts):
    return "_".join(p.replace(":", "-").replace(".", "p") for p in parts)


CASES = {"report_seed7": ["report", "--seed", "7", "--json"]}
for _s, _t in ON_CURVE + OFF_CURVE:
    CASES[_slug("verify", _s, _t)] = ["verify", *_params(_s, _t), "--json"]
for _s, _t in (ON_CURVE[0], OFF_CURVE[0]):
    for _fam in ("default", "pv1", "canonical-ten"):
        CASES[_slug("spanning", _fam, _s, _t)] = [
            "spanning", "--families", _fam, *_params(_s, _t), "--json"
        ]
for _spec in ("xstate", "rho-lambda:0.5", "rho-lambda:1e-5", "perturbed:0.1"):
    CASES[_slug("detect", _spec)] = ["detect", _spec, "--json"]


def run_case(argv, capsys):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def _exact(value) -> str:
    # JSON text tells 0 from 0.0 and keeps every float's shortest repr
    return json.dumps(value)


def assert_values_match(got, want, where):
    if isinstance(want, float):
        assert type(got) is float, where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_values_match(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_values_match(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_matches_golden(case, capsys):
    pinned = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    code, doc = run_case(CASES[case], capsys)
    want = pinned["document"]
    assert code == pinned["exit_code"]
    assert list(doc) == list(want)
    assert all(list(got) == list(w) for got, w in zip(doc["checks"], want["checks"]))
    for key in ("tool", "tool_version", "command", "params", "seed", "restarts",
                "tolerances", "all_pass"):
        assert _exact(doc[key]) == _exact(want[key]), key
    assert [c["name"] for c in doc["checks"]] == [c["name"] for c in want["checks"]]
    for got_check, want_check in zip(doc["checks"], want["checks"]):
        name = want_check["name"]
        for key in ("status", "tolerance", "note"):
            assert _exact(got_check[key]) == _exact(want_check[key]), f"{name}.{key}"
        assert_values_match(got_check["values"], want_check["values"], f"{name}.values")


def regenerate():
    import contextlib
    import io

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        payload = {"argv": argv, "exit_code": code, "document": json.loads(out.getvalue())}
        (GOLDEN_DIR / f"{case}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{case}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
