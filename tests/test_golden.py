"""The CLI's report documents against pinned golden copies.

Each case runs one `--json` command in-process and compares the document
with `tests/data/golden/<case>.json`: the key order of the document and of
each check, command, params, tolerances, check names and their order,
statuses, per-check tolerance and note, `all_pass` and the exit code
exactly, and every float among the check values within 1e-12.

Regenerate the golden files after an intended change of the contract with

    PYTHONPATH=src python tests/test_golden.py [CASE ...] [--check NAME ...]

which rewrites the named cases (all when none is named). With `--check`,
only the named checks of each case are replaced, with the exit code and
`all_pass`; everything else in the file stays byte-for-byte as pinned, so
floats that move at the 1e-14 level between machines do not churn. Every
case runs, and every `--check` name is looked up in every case, before any
file is written: if a case lacks a named check, nothing is written. Each
field whose pinned value changes is printed as one line,
`<case>.<path>: <old> -> <new>`, with checks named by their `name`.

The see-saw's last bits depend on the host: its start factors go through
numpy's `log`, `cos` and `sin`, so `seesaw_certificate.min_value` can move
within 1e-12 from one CPU, Python or numpy to another. Before it writes, the
tool prints the host it pins on to stderr as one line,
`pinned on <platform.machine()>, Python <version>, numpy <version>`.
"""

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
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


def test_regenerate_replaces_only_the_named_checks(tmp_path, monkeypatch, capsys):
    case = "verify_1_8"
    payload = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    checks = payload["document"]["checks"]
    names = [c["name"] for c in checks]
    replaced = names.index("seesaw_certificate")
    checks[replaced]["values"]["min_value"] = 1.5  # stale
    checks[names.index("determinant_identity_grid")]["values"]["max_abs_difference"] = 2.5
    text = json.dumps(payload, indent=2) + "\n"
    (tmp_path / f"{case}.json").write_text(text)
    monkeypatch.setitem(globals(), "GOLDEN_DIR", tmp_path)
    capsys.readouterr()
    regenerate([case], ["seesaw_certificate"])
    assert list(tmp_path.iterdir()) == [tmp_path / f"{case}.json"]
    got = json.loads((tmp_path / f"{case}.json").read_text())
    fresh = got["document"]["checks"][replaced]["values"]["min_value"]
    assert fresh != 1.5
    # one line per replaced field: the stale value, never the untouched 2.5;
    # on stderr, the host first, then the case's exit code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"{case}.document.checks[seesaw_certificate].values.min_value: 1.5 -> {fresh!r}"
    ]
    assert captured.err.splitlines() == [
        f"pinned on {platform.machine()}, Python {platform.python_version()}, numpy {np.__version__}",
        f"{case}: exit {got['exit_code']}",
    ]
    # with the named check put back, the file is the pinned one byte for byte
    got["document"]["checks"][replaced] = checks[replaced]
    assert json.dumps(got, indent=2) + "\n" == text


def test_regenerate_writes_nothing_when_a_case_lacks_a_named_check(tmp_path, monkeypatch, capsys):
    # report_seed7 has both checks and comes first; verify_1_1 has no
    # report_determinism, so the call stops before it writes either file
    texts = {}
    for case in ("report_seed7", "verify_1_1"):
        payload = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
        for check in payload["document"]["checks"]:
            if check["name"] == "seesaw_certificate":
                check["values"]["min_value"] = 1.5  # stale: a write would replace it
        texts[case] = json.dumps(payload, indent=2) + "\n"
        (tmp_path / f"{case}.json").write_text(texts[case])
    monkeypatch.setitem(globals(), "GOLDEN_DIR", tmp_path)
    with pytest.raises(SystemExit) as stop:
        regenerate(["report_seed7", "verify_1_1"], ["seesaw_certificate", "report_determinism"])
    assert str(stop.value).splitlines() == [
        "verify_1_1: no check named ['report_determinism']",
        "no golden file written",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report_seed7.json", "verify_1_1.json"]
    assert all((tmp_path / f"{case}.json").read_text() == text for case, text in texts.items())
    assert capsys.readouterr().out == ""


def changed_fields(old, new, where):
    """(path, old, new) for each leaf where two JSON values differ; a list
    or dict whose length or keys differ counts as one leaf."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        return [c for key in old for c in changed_fields(old[key], new[key], f"{where}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        labels = [o.get("name", i) if isinstance(o, dict) else i for i, o in enumerate(old)]
        return [c for i, o, n in zip(labels, old, new) for c in changed_fields(o, n, f"{where}[{i}]")]
    return [] if _exact(old) == _exact(new) else [(where, old, new)]


def regenerate(cases=None, checks=None):
    """Run every case and check every `--check` name first; write the files
    only when every case has every named check, so a re-pin is all or nothing."""
    import contextlib
    import io

    payloads, missing = {}, []
    for case in cases or sorted(CASES):
        argv = CASES[case]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        payload = {"argv": argv, "exit_code": code, "document": json.loads(out.getvalue())}
        path = GOLDEN_DIR / f"{case}.json"
        pinned = json.loads(path.read_text()) if path.exists() else payload
        if checks:
            fresh, payload = payload, json.loads(path.read_text())
            new = {c["name"]: c for c in fresh["document"]["checks"]}
            if lacking := set(checks) - set(new):
                missing.append(f"{case}: no check named {sorted(lacking)}")
                continue
            doc = payload["document"]
            doc["checks"] = [new[c["name"]] if c["name"] in checks else c for c in doc["checks"]]
            payload["exit_code"], doc["all_pass"] = code, fresh["document"]["all_pass"]
        payloads[case] = code, pinned, payload
    if missing:
        raise SystemExit("\n".join(missing + ["no golden file written"]))
    print(f"pinned on {platform.machine()}, Python {platform.python_version()}, numpy {np.__version__}",
          file=sys.stderr)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case, (code, pinned, payload) in payloads.items():
        (GOLDEN_DIR / f"{case}.json").write_text(json.dumps(payload, indent=2) + "\n")
        for where, was, now in changed_fields(pinned, payload, case):
            print(f"{where}: {_exact(was)} -> {_exact(now)}")
        print(f"{case}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Rewrite golden report documents.")
    parser.add_argument("cases", nargs="*", metavar="CASE", help="a golden file's name, no suffix")
    parser.add_argument("--check", action="append", metavar="NAME", help="replace only this check")
    args = parser.parse_args()
    if unknown := sorted(set(args.cases) - set(CASES)):
        parser.error(f"unknown cases {unknown}; choose from {sorted(CASES)}")
    regenerate(args.cases, args.check)
