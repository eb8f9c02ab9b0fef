import json
import math
import subprocess
import sys
import types

import numpy as np
import pytest

import spanwitness
from spanwitness.cli import main, parse_param
from spanwitness.errors import DimensionMismatchError, SpanWitnessError, UsageError
from spanwitness.family import (
    CANONICAL,
    ST8_GRID,
    FamilyParams,
    default_zero_sample,
    phase_modulus_grid,
    realize_zero_vector,
    witness_matrix,
)
from spanwitness.linalg import TOLERANCES, lowest_eigenvalues
from spanwitness.maps import pairing, value_on_product
from spanwitness.report import (
    Context,
    check_detected_interior,
    check_not_psd,
    run_detect,
    run_full_report,
    run_spanning,
    run_verify,
    to_json,
)
from spanwitness.serialize import state_from_payload
from spanwitness.tensor import state_from

VERIFY_CHECKS = {
    "hermiticity",
    "witness_matrix_fixture",
    "witness_not_psd",
    "rank_one_positivity_grid",
    "determinant_identity_grid",
    "seesaw_certificate",
    "zero_set_families",
    "full_spanning",
    "pv1_span_rank6",
    "canonical_ten_spanning",
    "biseparable_values",
    "cut_negativity",
}

FULL_ONLY_CHECKS = {
    "xstate_detection_value",
    "xstate_ppt",
    "boundary_family",
    "rho1_fixture",
    "detected_interior",
    "report_determinism",
}


def test_parse_param_tokens():
    assert parse_param("2r2") == 2 * math.sqrt(2)
    assert parse_param("r2") == math.sqrt(2)
    assert parse_param("3.5") == 3.5
    with pytest.raises(SpanWitnessError):
        parse_param("two")


def test_run_verify_all_pass_small():
    doc = run_verify(CANONICAL, seed=7, restarts=8)
    assert doc.all_pass
    names = [c.name for c in doc.checks]
    assert set(names) == VERIFY_CHECKS
    assert len(names) == len(set(names))
    by_name = {c.name: c for c in doc.checks}
    assert abs(by_name["witness_not_psd"].values["min_eigenvalue"] + 1.0) < 1e-9


def test_run_verify_passes_anywhere_on_curve():
    doc = run_verify(FamilyParams(2.0, 4.0), seed=7, restarts=8)
    assert doc.all_pass
    assert all(c.status == "PASS" for c in doc.checks)


def test_run_verify_off_variety_skips():
    # positivity runs for every (s, t) and fails below s t = 8; the claims
    # that need the curve are skipped
    curve_only = {
        "determinant_identity_grid",
        "zero_set_families",
        "full_spanning",
        "canonical_ten_spanning",
    }
    for s, t, positive in ((1.0, 1.0, False), (1.0, 4.0, False), (4.0, 4.0, True)):
        doc = run_verify(FamilyParams(s, t), seed=7, restarts=16)
        by_name = {c.name: c for c in doc.checks}
        assert {n for n, c in by_name.items() if c.status == "SKIP"} == curve_only
        assert by_name["hermiticity"].status == "PASS"
        assert by_name["witness_not_psd"].status == "PASS"
        assert by_name["pv1_span_rank6"].status == "PASS"
        # the three xi_i values are -2 for every (s, t), and each cut's
        # certificate reaches the floor -1
        assert by_name["biseparable_values"].status == "PASS"
        assert by_name["cut_negativity"].status == "PASS"
        assert set(by_name["cut_negativity"].values["minima"].values()) == {-1.0}
        expected = "PASS" if positive else "FAIL"
        assert by_name["rank_one_positivity_grid"].status == expected
        assert by_name["seesaw_certificate"].status == expected
        assert doc.all_pass is positive
        seesaw_min = by_name["seesaw_certificate"].values["min_value"]
        grid_min = by_name["rank_one_positivity_grid"].values["min_eigenvalue"]
        assert (seesaw_min < -0.1) is not positive
        assert (grid_min < -1.0) is not positive


def test_run_verify_calls_checks_by_module_name(monkeypatch):
    # the registry looks each check up at call time, so a wrapper installed
    # on the module attribute (as a tracer does) sees every call
    import spanwitness.report as report

    calls = []
    real = report.check_seesaw

    def counting(ctx, tol):
        calls.append(tol)
        return real(ctx, tol)

    monkeypatch.setattr(report, "check_seesaw", counting)
    doc = run_verify(CANONICAL, seed=7, restarts=4, seesaw_tol=1e-7)
    assert calls == [1e-7]
    assert [c.status for c in doc.checks if c.name == "seesaw_certificate"] == ["PASS"]


def test_run_verify_ranks_without_per_vector_loops(monkeypatch):
    # each spanning family is flattened once and ranked by stacked SVDs: one
    # for the canonical ten, two for the one spanning report of the document
    # (the 2^3 conjugations of the sample, and of its pv1 rows), which
    # full_spanning, pv1_span_rank6 and zero_set_families share, so the 36
    # samples are drawn and realized once; W's spectrum is computed once; the
    # see-saw runs once, for the global minimum, and never across a cut;
    # calls are counted in every module that binds the name, as a tracer sees them
    owners = {
        "partial_conjugate": spanwitness.tensor,
        "numerical_rank": spanwitness.linalg,
        "spanning_report": spanwitness.family,
        "default_zero_sample": spanwitness.family,
        "realize_zero_vector": spanwitness.family,
        "svd": np.linalg,
        "eigvalsh": np.linalg,
        "seesaw_block_positivity": spanwitness.seesaw,
        "cut_block_positivity": spanwitness.seesaw,
    }
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        modules = [m for key, m in sys.modules.items() if key.startswith("spanwitness")]
        for module in modules + [owner]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    assert run_verify(CANONICAL).all_pass
    assert calls == {
        "partial_conjugate": 0,
        "numerical_rank": 0,
        "spanning_report": 1,
        "default_zero_sample": 1,
        "realize_zero_vector": 36,
        "svd": 3,
        "eigvalsh": 1,
        "seesaw_block_positivity": 1,
        "cut_block_positivity": 0,
    }


def test_cut_negativity_runs_no_cut_seesaw(monkeypatch):
    # the cut certificates need no search: a cut see-saw that raises is never reached
    def unreachable(*args, **kwargs):
        raise AssertionError("verify ran a cut see-saw")

    for name in ("cut_block_positivity", "regroup_for_cut"):
        for key, module in list(sys.modules.items()):
            if key.startswith("spanwitness") and hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    for params in (CANONICAL, FamilyParams(1.0, 1.0)):
        by_name = {c.name: c for c in run_verify(params).checks}
        assert by_name["cut_negativity"].status == "PASS"
        assert by_name["cut_negativity"].values["minima"] == dict.fromkeys(
            ("1|rest", "2|rest", "3|rest"), -1.0
        )


def _json_native(value) -> bool:
    """Exact JSON types all the way down, so json.dumps needs no conversion."""
    if type(value) is dict:
        return all(type(k) is str and _json_native(v) for k, v in value.items())
    if type(value) is list:
        return all(_json_native(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize("params", [CANONICAL, FamilyParams(2.0, 4.0), FamilyParams(1.0, 1.0)],
                         ids=lambda p: f"{p.s:.4g}_{p.t:.4g}")
def test_document_values_are_json_native(params):
    docs = [run_verify(params, restarts=4), run_full_report(params, restarts=4)]
    docs += [run_spanning(params, families=f) for f in ("default", "pv1", "canonical-ten")]
    specs = ("xstate", "rho-lambda:0.5", "perturbed:0.1")
    docs += [run_detect(spec, params) for spec in specs if params.on_variety or "rho" not in spec]
    for doc in docs:
        assert _json_native(doc.params) and _json_native(doc.tolerances)
        for c in doc.checks:
            assert _json_native(c.values), (doc.command, c.name)
            assert c.tolerance is None or type(c.tolerance) is float


CURVE_S = 2 ** np.random.default_rng(3).uniform(-0.5, 2.5, 20)


@pytest.mark.parametrize(
    "params", [*ST8_GRID, *(FamilyParams(s, 8.0 / s) for s in CURVE_S)], ids=lambda p: f"{p.s:.6g}"
)
def test_zero_set_values_match_reference_loop(params):
    # one stacked contraction against value_on_product of each sample
    doc = run_verify(params, restarts=1)
    (check,) = [c for c in doc.checks if c.name == "zero_set_families"]
    witness = witness_matrix(params)
    want: dict[str, float] = {}
    for sample in default_zero_sample(params):
        value = abs(value_on_product(witness, realize_zero_vector(sample, params)))
        want[sample.family.value] = max(want.get(sample.family.value, 0.0), value)
    got = check.values["per_family"]
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12
    assert abs(check.values["max_abs_value"] - max(want.values())) <= 1e-12
    if params in ST8_GRID:
        assert got == want


def test_full_report_contains_every_check_once():
    doc = run_full_report(CANONICAL, seed=7, restarts=8)
    names = [c.name for c in doc.checks]
    assert len(names) == len(set(names))
    assert set(names) == VERIFY_CHECKS | FULL_ONLY_CHECKS
    assert doc.all_pass


def test_report_json_deterministic():
    doc1 = run_verify(CANONICAL, seed=7, restarts=8)
    doc2 = run_verify(CANONICAL, seed=7, restarts=8)
    assert to_json(doc1) == to_json(doc2)


def test_run_detect_specs():
    doc = run_detect("xstate", CANONICAL)
    by_name = {c.name: c for c in doc.checks}
    assert by_name["verdict"].values["verdict"] == "PPT_ENTANGLED_DETECTED"
    assert abs(by_name["pairing"].values["value"] - (8 / math.sqrt(2) - 8)) < 1e-10

    doc = run_detect("rho-lambda:0.5", CANONICAL)
    by_name = {c.name: c for c in doc.checks}
    assert by_name["verdict"].values["verdict"] == "SEPARABLE_CERTIFIED"
    assert abs(by_name["pairing"].values["value"]) < 1e-10

    doc = run_detect("perturbed:0.1", CANONICAL)
    by_name = {c.name: c for c in doc.checks}
    assert by_name["verdict"].values["verdict"] == "PPT_ENTANGLED_DETECTED"
    assert by_name["ppt_table"].values["is_ppt"] is True


def test_run_detect_records_its_tolerance():
    # the document states the tolerance each row used: the pairing row the
    # document's pairing tolerance, the PPT table its fixed psd floor
    doc = run_detect("xstate", CANONICAL, tol=1e-8)
    assert doc.tolerances["pairing"] == 1e-8
    rows = {c.name: c.tolerance for c in doc.checks if c.tolerance is not None}
    assert rows == {"pairing": 1e-8, "ppt_table": TOLERANCES["psd"]}


def test_detect_tol_moves_only_the_pairing_threshold():
    # a certificate that reassembles its state verifies at any pairing
    # tolerance, and the PPT table keeps its own floor
    for spec in ("rho-lambda:0.5", "rho-lambda:1e-5"):
        doc = run_detect(spec, CANONICAL, tol=0.0)
        by_name = {c.name: c for c in doc.checks}
        assert by_name["verdict"].values == {"verdict": "SEPARABLE_CERTIFIED", "certified": True}
        assert by_name["ppt_table"].values["is_ppt"]
        assert by_name["ppt_table"].tolerance == TOLERANCES["psd"]


def test_run_detect_malformed():
    for spec in ("nonsense", "rho-lambda:abc", "perturbed:abc", "file:/no/such/file.json"):
        with pytest.raises(UsageError):
            run_detect(spec, CANONICAL)
    with pytest.raises(UsageError):
        run_spanning(CANONICAL, families="bogus")


def test_run_spanning_modes():
    doc = run_spanning(CANONICAL, families="default")
    names = {c.name for c in doc.checks}
    assert names == {"full_spanning", "pv1_span_rank6"}
    assert doc.all_pass

    doc = run_spanning(CANONICAL, families="pv1")
    by_name = {c.name: c for c in doc.checks}
    assert by_name["pv1_span_rank6"].values["rank"] == 6
    ranks = by_name["pv1_subset_ranks"].values["ranks"]
    assert set(ranks.values()) == {6}

    doc = run_spanning(CANONICAL, families="canonical-ten")
    by_name = {c.name: c for c in doc.checks}
    assert set(by_name["canonical_ten_spanning"].values["ranks"].values()) == {8}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s, t", [("0.01", "800"), ("1e-3", "8e3")])
def test_cli_report_passes_far_out_on_the_curve(s, t, capsys):
    # rho_lambda's smallest partial-transpose eigenvalue scales like s^2 while
    # the largest stays near 0.2-0.47: 1e-7 and 1e-9 of it here, under an
    # absolute 1e-6 floor but above the relative one
    assert main(["report", "--s", s, "--t", t, "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["boundary_family"]["status"] == "PASS"
    rows = checks["boundary_family"]["values"].values()
    assert min(row["min_pt_eigenvalue"] for row in rows) < 1e-6


def test_cli_build_fixture(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(["build", "--s", "2r2", "--t", "2r2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dims"] == [2, 2, 2]
    assert doc["matrix"][3][3] == [2.8284271247461903, 0.0]
    assert doc["matrix"][2][5] == [-1.0, 0.0]
    assert doc["meta"]["on_variety"] is True


def test_cli_build_other_curve_point(tmp_path):
    out = tmp_path / "w24.json"
    assert main(["build", "--s", "2", "--t", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["on_variety"] is True
    assert doc["matrix"][4][4] == [2.0, 0.0]


def test_cli_build_rejects_nonpositive(capsys):
    assert main(["build", "--s", "0", "--t", "1"]) == 2
    assert main(["build", "--s", "x", "--t", "1"]) == 2
    # build writes JSON only; it takes no --json
    assert main(["build", "--json"]) == 2


def test_cli_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()
    # a negative see-saw seed is a usage error, not a SeedSequence traceback
    for argv in (["verify", "--seed", "-1"], ["report", "--seed", "-3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("restarts", ["100000000000000000", "100000000000000000000"])
def test_cli_restarts_too_large_to_hold_exit_2(command, restarts, capsys):
    # refused before any allocation
    assert main([command, "--restarts", restarts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_memory_error_exits_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(spanwitness.cli, "run_verify", exhausted)
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot allocate\n"


def test_cli_verify_quick(capsys):
    code = main(["verify", "--seed", "7", "--restarts", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert "witness_not_psd" in captured.out
    assert "ALL CHECKS PASS" in captured.out
    assert "elapsed" in captured.err


def test_cli_detect_exit_codes(capsys):
    assert main(["detect", "xstate"]) == 0
    assert main(["detect", "nonsense"]) == 2
    assert main(["detect", "rho-lambda:1.5"]) == 2
    assert main(["detect", "file:/no/such/file.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "xstate", "--tol", "-1"],
        ["detect", "xstate", "--tol", "nan"],
        ["detect", "rho-lambda:0.5", "--tol", "inf"],
        ["verify", "--tol", "inf"],
        ["verify", "--tol", "-1"],
        ["report", "--tol", "nan"],
        ["spanning", "--tol", "nan"],
        ["spanning", "--tol", "inf"],
        ["spanning", "--tol", "0"],
    ],
)
def test_cli_rejects_out_of_range_tol(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["build"], ["spanning"], ["detect", "xstate"], ["verify", "--restarts", "1"]],
    ids=["build", "spanning", "detect", "verify"],
)
@pytest.mark.parametrize("target", ["missing_parent", "a_directory"])
def test_cli_unwritable_out_exits_2(argv, target, tmp_path, capsys):
    out = tmp_path / "missing" / "doc.json" if target == "missing_parent" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


_GOOD_MATRIX = [[[0.0, 0.0]] * 4] * 4
# a valid three-qubit state, so only `dims` is wrong
_GOOD_STATE = [[[float(i == j) / 8, 0.0] for j in range(8)] for i in range(8)]


def _with_first_entry(entry):
    """`_GOOD_STATE` with entry (0, 0) replaced."""
    return [[entry, *_GOOD_STATE[0][1:]], *_GOOD_STATE[1:]]


@pytest.mark.parametrize(
    "payload",
    [
        {"dims": ["a", "b", "c"], "matrix": _GOOD_MATRIX},
        {"dims": 5, "matrix": _GOOD_MATRIX},
        {"dims": [2, 2], "matrix": [[{"re": 0.0}] * 4] * 4},
        {"dims": [2, 2], "matrix": _GOOD_MATRIX, "meta": [1]},
        {"dims": [2, 2], "matrix": [[[0.0, 0.0]] * 4, [[0.0, 0.0]] * 3] * 2},
        {"dims": "222", "matrix": _GOOD_STATE},
        {"dims": [2.9, 2.2], "matrix": _GOOD_STATE},
        {"dims": [True, 2, 2], "matrix": _GOOD_STATE},
        {"dims": [2, 2, 2], "matrix": _with_first_entry([0.125, 0.0, 99])},
        {"dims": [2, 2, 2], "matrix": _with_first_entry([True, False])},
        {"dims": [2, 2, 2], "matrix": _with_first_entry([10**400, 0])},
    ],
    ids=[
        "dims_not_ints", "dims_not_a_list", "entry_is_an_object", "meta_not_an_object",
        "ragged_rows", "dims_a_string", "dims_floats", "dims_a_bool",
        "entry_of_three_numbers", "entry_of_booleans", "entry_overflows_a_float",
    ],
)
def test_cli_detect_malformed_state_file(payload, tmp_path, capsys):
    with pytest.raises(DimensionMismatchError):
        state_from_payload(payload)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert main(["detect", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_non_finite_state_is_rejected(tmp_path, capsys):
    # the payload parses (JSON allows NaN and Infinity); the pairing rejects it
    witness = witness_matrix(CANONICAL)
    for bad in (math.nan, math.inf):
        m = np.eye(8, dtype=complex) / 8
        m[0, 0] = bad
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            pairing(state_from(m, (2, 2, 2)), witness)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": _with_first_entry([math.nan, 0.0])}))
    assert main(["detect", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_detect_state_file_deeper_than_the_recursion_limit(tmp_path, capsys):
    # json.dumps cannot write this nesting, so the text is written raw
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2, 2, 2], "matrix": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["detect", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--json"],
        ["verify", "--out", "doc.json"],
        ["report"],
        ["report", "--json"],
        ["spanning", "--json"],
        ["detect", "xstate", "--json"],
    ],
    ids=["verify_json", "verify_out", "report", "report_json", "spanning_json", "detect_json"],
)
def test_cli_refuses_to_write_a_non_finite_document(argv, tmp_path, monkeypatch, capsys):
    # st overflows to inf at s = t = 1e308, and values turn inf or NaN,
    # which JSON cannot hold; `report` serializes in its determinism check
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--s", "1e308", "--t", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "doc.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_text_verify_with_non_finite_values_still_fails(capsys):
    assert main(["verify", "--s", "1e308", "--t", "1e308"]) == 1
    captured = capsys.readouterr()
    assert "NaN" in captured.out and "error" not in captured.err


def test_star_import_binds_only_the_public_names():
    names = set(spanwitness.__all__)
    assert not [n for n in names if isinstance(getattr(spanwitness, n), types.ModuleType)]
    deleted = {
        "ppt_interior_check", "InteriorReport", "product_vector", "product_state",
        "is_psd", "PsdCheck", "trace_pairing", "is_completely_positive",
        "product_grid_minimum", "rank_one_images", "BiseparableVector",
    }
    assert not names & deleted
    namespace = {"tensor": None}
    exec("from spanwitness import *", namespace)
    assert namespace["tensor"] is None and "pairing" in namespace


def test_cli_detect_file_spec(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["build", "--out", str(out)])
    capsys.readouterr()
    # the witness file itself parses as a (non-PSD) state payload
    code = main(["detect", f"file:{out}", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    verdict = [c for c in doc["checks"] if c["name"] == "verdict"][0]
    assert verdict["values"]["verdict"] == "ENTANGLED_NPT"


def test_cli_spanning_modes(capsys):
    assert main(["spanning", "--families", "pv1"]) == 0
    captured = capsys.readouterr()
    assert '"rank":6' in captured.out.replace(" ", "")
    assert main(["spanning", "--families", "canonical-ten"]) == 0


def test_cli_spanning_seed_and_tol_flags(capsys):
    code = main(["spanning", "--seed", "11", "--tol", "1e-9", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["seed"] == 11
    assert doc["tolerances"]["rank"] == 1e-9


def test_cli_json_output_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--seed", "7", "--restarts", "6", "--json", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    stdout_doc = json.loads(captured.out)
    file_doc = json.loads(out.read_text())
    assert stdout_doc == file_doc
    assert stdout_doc["all_pass"] is True
    assert stdout_doc["tolerances"]["seesaw"] == 1e-7


def test_cli_byte_identical_reports():
    cmd = [sys.executable, "-m", "spanwitness", "verify", "--seed", "7", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second


def test_cli_exit_one_on_failing_check(monkeypatch, capsys):
    # force one FAIL into the verify document to pin the exit-code contract
    import spanwitness.cli as cli_mod
    from spanwitness.report import Check

    real = run_verify

    def broken(params, seed=7, restarts=64, seesaw_tol=1e-7):
        doc = real(params, seed=seed, restarts=2, seesaw_tol=seesaw_tol)
        doc.checks.append(Check(name="forced_failure", status="FAIL", values={}))
        return doc

    monkeypatch.setattr(cli_mod, "run_verify", broken)
    code = cli_mod.main(["verify", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILURES PRESENT" in captured.out


def test_cli_report_command(capsys):
    code = main(["report", "--seed", "7", "--restarts", "6", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    names = [c["name"] for c in doc["checks"]]
    assert set(names) == VERIFY_CHECKS | FULL_ONLY_CHECKS
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "params",
    [FamilyParams(1.0, 1.0), FamilyParams(1.0, 4.0), FamilyParams(4.0, 4.0), CANONICAL],
)
def test_closed_form_lowest_eigenvalue_matches_eigvalsh(params):
    images = Context(params).images
    want = np.linalg.eigvalsh((images + images.conj().swapaxes(-1, -2)) / 2)[..., 0]
    assert np.max(np.abs(lowest_eigenvalues(images) - want)) <= 1e-13


def test_cli_json_out_writes_stdout_from_one_serialization(tmp_path, capsys, monkeypatch):
    # the file and stdout are one dump_json text; text output without --out
    # serializes no document at all
    calls = []
    real = spanwitness.serialize.dump_json

    def counting(doc):
        calls.append(doc)
        return real(doc)

    for module in [m for key, m in sys.modules.items() if key.startswith("spanwitness")]:
        if getattr(module, "dump_json", None) is real:
            monkeypatch.setattr(module, "dump_json", counting)
    out = tmp_path / "verify.json"
    assert main(["verify", "--restarts", "4", "--json", "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")
    assert len(calls) == 1
    assert main(["verify", "--restarts", "4"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("s, t", [(1e7, 3e7), (1e8, 1e8), (10**9.75, 3 * 10**9.75)])
def test_witness_spectrum_is_graded_relative_to_its_scale(s, t):
    # eigvalsh errs in proportion to |W|: each deviation is past the absolute
    # tolerance, yet within it once scaled by the largest eigenvalue
    ok, values = check_not_psd(Context(FamilyParams(s, t)), TOLERANCES["eigenvalue"])
    assert ok
    assert values["max_spectrum_deviation"] > TOLERANCES["eigenvalue"]


@pytest.mark.parametrize("params", [FamilyParams(1e8, 1e8), CANONICAL])
def test_witness_spectrum_still_fails_on_a_shifted_entry(params):
    ctx = Context(params)
    ctx.witness.matrix[4, 4] *= 1 + 1e-7
    ok, _ = check_not_psd(ctx, TOLERANCES["eigenvalue"])
    assert not ok


@pytest.mark.parametrize(
    "s, t", [(0.25, 32.0), (0.5, 16.0), (1.0, 8.0), (CANONICAL.s, CANONICAL.t), (16.0, 0.5)]
)
def test_detected_interior_passes_along_the_curve(s, t):
    ok, values = check_detected_interior(Context(FamilyParams(s, t)), TOLERANCES["rounding"])
    gap = 8.0 - 8.0 / math.sqrt(2.0)
    assert ok
    assert values["pairing"] < 0
    assert values["eps"] == min(0.1, gap / (gap + s + t) / 2)
    assert values["min_pt_eigenvalue"] >= values["eps"] / 8 - TOLERANCES["rounding"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--s", "1e7", "--t", "3e7"],
        ["verify", "--s", "1e8", "--t", "1e8"],
        ["report", "--s", "0.5", "--t", "16"],
        ["report", "--s", "16", "--t", "0.5"],
    ],
)
def test_cli_large_or_lopsided_parameters_pass(argv, capsys):
    assert main(argv) == 0
    assert "[FAIL]" not in capsys.readouterr().out
