"""Machine-readable verification reports.

Every claim the library makes about the witness family is re-run here as a
named check with a PASS/FAIL/SKIP status, an explicit tolerance, and the
measured values. Reports are fully deterministic for fixed parameters and
seed: no timestamps or durations enter the serialized document (wall-clock
time goes to stderr in the CLI), so two runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .family import (
    CANONICAL,
    SQRT2,
    FamilyParams,
    bilinear_map,
    canonical_ten,
    default_zero_sample,
    determinant_d,
    rank_one_images,
    realize_zero_vector,
    spanning_report,
    witness_matrix,
)
from .linalg import hermitian_eigenvalues, hermiticity_defect, is_psd, numerical_rank
from .maps import Witness, choi_matrix, pairing, value_on_product
from .seesaw import cut_block_positivity, product_grid_minimum, seesaw_block_positivity
from .states import (
    biseparable_vector,
    perturbed_detected_state,
    rho_lambda,
    verify_decomposition,
    x_state,
)
from .tensor import all_subsets, flatten, is_ppt, partial_conjugate

DEFAULT_TOLERANCES = {
    "pairing": 1e-10,
    "seesaw": 1e-7,
    "rank": 1e-8,
    "eigenvalue": 1e-9,
}

GRID_PHASES = 24
GRID_MODULI = (0.5, 1.0, 2.0)


@dataclass
class Check:
    name: str
    status: str  # PASS | FAIL | SKIP
    values: dict = field(default_factory=dict)
    tolerance: float | None = None
    note: str = ""


@dataclass
class ReportDocument:
    tool_version: str
    command: str
    params: dict
    seed: int
    restarts: int
    tolerances: dict
    checks: list[Check]
    elapsed_ms: int = 0  # informational only, never serialized

    @property
    def all_pass(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)


def subset_key(subset: tuple[int, ...]) -> str:
    return "".join(str(p) for p in subset) if subset else "none"


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        z = complex(value)
        return [z.real, z.imag]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    return value


def to_dict(doc: ReportDocument) -> dict:
    return {
        "tool": "spanwitness",
        "tool_version": doc.tool_version,
        "command": doc.command,
        "params": _jsonify(doc.params),
        "seed": doc.seed,
        "restarts": doc.restarts,
        "tolerances": _jsonify(doc.tolerances),
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "values": _jsonify(c.values),
                "tolerance": c.tolerance,
                "note": c.note,
            }
            for c in doc.checks
        ],
        "all_pass": doc.all_pass,
    }


def to_json(doc: ReportDocument) -> str:
    return json.dumps(to_dict(doc), indent=2) + "\n"


def render_text(doc: ReportDocument) -> str:
    lines = [
        f"spanwitness {doc.tool_version} :: {doc.command}"
        f"  s={doc.params['s']!r} t={doc.params['t']!r}"
        f" on_variety={doc.params['on_variety']} seed={doc.seed}",
    ]
    for c in doc.checks:
        summary = json.dumps(_jsonify(c.values), separators=(",", ":"))
        tol = "" if c.tolerance is None else f" tol={c.tolerance!r}"
        note = f"  ({c.note})" if c.note else ""
        lines.append(f"[{c.status}] {c.name}{tol} {summary}{note}")
    lines.append("RESULT: " + ("ALL CHECKS PASS" if doc.all_pass else "FAILURES PRESENT"))
    return "\n".join(lines) + "\n"


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _skip(name: str, note: str = "requires s*t = 8") -> Check:
    return Check(name=name, status="SKIP", note=note)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_hermiticity(w: Witness) -> Check:
    defect = hermiticity_defect(w.matrix)
    return Check(
        name="hermiticity",
        status=_status(defect <= DEFAULT_TOLERANCES["eigenvalue"]),
        values={"max_defect": defect},
        tolerance=DEFAULT_TOLERANCES["eigenvalue"],
    )


def check_witness_fixture(params: FamilyParams, w: Witness) -> Check:
    """Entrywise equality of the written-out matrix and the assembled one."""
    assembled = choi_matrix(bilinear_map(params))
    diff = float(np.max(np.abs(assembled.matrix - w.matrix)))
    onx = _x_support_only(w.matrix)
    return Check(
        name="witness_matrix_fixture",
        status=_status(diff == 0.0 and onx),
        values={"max_abs_diff_vs_assembled": diff, "x_shaped_support": onx},
        tolerance=0.0,
    )


def _x_support_only(m: np.ndarray) -> bool:
    d = m.shape[0]
    mask = np.zeros_like(m, dtype=bool)
    for i in range(d):
        mask[i, i] = True
        mask[i, d - 1 - i] = True
    return bool(np.all(m[~mask] == 0))


def check_not_psd(w: Witness) -> Check:
    """min eigenvalue -1; full spectrum from the three anti-diagonal pairs
    plus the central block [[t, 1], [1, s]]."""
    tol = DEFAULT_TOLERANCES["eigenvalue"]
    evals = hermitian_eigenvalues(w.matrix)
    s = float(w.matrix[4, 4].real)
    t = float(w.matrix[3, 3].real)
    disc = math.sqrt((s - t) ** 2 + 4.0)
    expected = sorted([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, (s + t - disc) / 2, (s + t + disc) / 2])
    dev = float(np.max(np.abs(evals - np.array(expected))))
    ok = abs(evals[0] + 1.0) <= tol and dev <= tol and not is_psd(w.matrix).ok
    return Check(
        name="witness_not_psd",
        status=_status(ok),
        values={
            "min_eigenvalue": float(evals[0]),
            "spectrum": [float(v) for v in evals],
            "max_spectrum_deviation": dev,
        },
        tolerance=tol,
    )


def _phase_modulus_grid(phases: int, moduli) -> np.ndarray:
    out = []
    for m in moduli:
        for k in range(phases):
            out.append(m * np.exp(2j * np.pi * k / phases))
    return np.array(out)


def check_rank_one_grid(images: np.ndarray) -> Check:
    """Positivity of the bilinear map on a deterministic rank-one grid, from
    the stacked images of `rank_one_images`."""
    tol = 1e-10
    evals = np.linalg.eigvalsh((images + images.conj().swapaxes(-1, -2)) / 2)
    worst = float(evals[..., 0].min())
    return Check(
        name="rank_one_positivity_grid",
        status=_status(worst >= -tol),
        values={"pairs": images.shape[0] * images.shape[1], "min_eigenvalue": worst},
        tolerance=tol,
    )


def check_determinant_identity(points: np.ndarray, images: np.ndarray) -> Check:
    """det of the rank-one image equals the closed-form D on s*t = 8."""
    tol = 1e-10
    det = images[..., 0, 0] * images[..., 1, 1] - images[..., 0, 1] * images[..., 1, 0]
    worst = float(np.max(np.abs(det - determinant_d(points[:, None], points[None, :]))))
    return Check(
        name="determinant_identity_grid",
        status=_status(worst <= tol),
        values={"pairs": images.shape[0] * images.shape[1], "max_abs_difference": worst},
        tolerance=tol,
    )


def check_seesaw(w: Witness, seed: int, restarts: int, seesaw_tol: float) -> Check:
    """Global see-saw minimum sits at zero, and not above the grid minimum.

    A finite grid's minimum is an upper bound on the true minimum, so a
    see-saw that works can only match or undercut it.
    """
    result = seesaw_block_positivity(w, restarts=restarts, seed=seed)
    grid_min = product_grid_minimum(w, phases=GRID_PHASES, moduli=GRID_MODULI)
    ok = (
        -seesaw_tol <= result.min_value <= seesaw_tol
        and result.min_value <= grid_min + 1e-6
    )
    return Check(
        name="seesaw_certificate",
        status=_status(ok),
        values={
            "min_value": result.min_value,
            "grid_minimum": grid_min,
            "converged": result.converged,
            "sweeps_best_restart": len(result.history) - 1,
        },
        tolerance=seesaw_tol,
    )


def check_zero_set(params: FamilyParams, w: Witness) -> Check:
    """Every sampled zero-family vector annihilates the quadratic form."""
    tol = DEFAULT_TOLERANCES["pairing"]
    worst = 0.0
    samples = default_zero_sample(params)
    per_family: dict[str, float] = {}
    for sample in samples:
        val = abs(value_on_product(w, realize_zero_vector(sample, params)))
        key = sample.family.value
        per_family[key] = max(per_family.get(key, 0.0), val)
        worst = max(worst, val)
    return Check(
        name="zero_set_families",
        status=_status(worst <= tol),
        values={"samples": len(samples), "max_abs_value": worst, "per_family": per_family},
        tolerance=tol,
    )


def check_full_spanning(params: FamilyParams, rank_tol: float = DEFAULT_TOLERANCES["rank"]) -> Check:
    rep = spanning_report(params, rank_tol=rank_tol)
    ranks = {subset_key(k): v for k, v in rep.subset_ranks.items()}
    return Check(
        name="full_spanning",
        status=_status(rep.full_spanning),
        values={"ranks": ranks, "dimension": rep.dimension, "sample_size": rep.sample_size},
        tolerance=rank_tol,
    )


def check_pv1_span(params: FamilyParams, rank_tol: float = DEFAULT_TOLERANCES["rank"]) -> Check:
    """The six free-factor families span exactly six dimensions; the
    complement is the span of |011> and |100>."""
    from .family import PV1_FAMILIES

    samples = [s for s in default_zero_sample(params) if s.family in PV1_FAMILIES]
    rep = spanning_report(params, samples=samples, rank_tol=rank_tol)
    expected = np.zeros((2, 8), dtype=complex)
    expected[0, 3] = 1.0  # |011>
    expected[1, 4] = 1.0  # |100>
    got = np.array(rep.pv1_complement) if rep.pv1_complement else np.zeros((0, 8))
    basis_ok = got.shape == (2, 8) and float(np.max(np.abs(got - expected))) <= 1e-8
    return Check(
        name="pv1_span_rank6",
        status=_status(rep.pv1_rank == 6 and basis_ok),
        values={
            "rank": rep.pv1_rank,
            "complement_labels": ["011", "100"] if basis_ok else [],
            "complement_matches": basis_ok,
        },
        tolerance=rank_tol,
    )


def check_canonical_ten(params: FamilyParams, rank_tol: float = DEFAULT_TOLERANCES["rank"]) -> Check:
    """Ten vectors alone reach rank 8 under all eight partial conjugations."""
    ten = canonical_ten(params)
    ranks = {}
    for subset in all_subsets(3):
        images = [flatten(partial_conjugate(pv, subset)) for pv in ten]
        ranks[subset_key(subset)] = numerical_rank(images, rank_tol)
    ok = all(r == 8 for r in ranks.values())
    return Check(
        name="canonical_ten_spanning",
        status=_status(ok),
        values={"ranks": ranks},
        tolerance=rank_tol,
    )


def check_biseparable(w: Witness) -> Check:
    """Each cut's detection vector reaches -2 at alpha = exp(i pi / 4)."""
    tol = DEFAULT_TOLERANCES["pairing"]
    alpha = complex(SQRT2 / 2, SQRT2 / 2)
    values = {}
    worst = 0.0
    for i in (1, 2, 3):
        val = value_on_product(w, biseparable_vector(i, alpha).flat)
        values[f"xi{i}"] = val
        worst = max(worst, abs(val + 2.0))
    return Check(
        name="biseparable_values",
        status=_status(worst <= tol),
        values=dict(values, max_abs_deviation=worst),
        tolerance=tol,
    )


def check_cut_negativity(w: Witness, seed: int, restarts: int, seesaw_tol: float) -> Check:
    """Across each bipartite cut the unit-vector minimum reaches the
    spectral floor -1, so no cut is block positive."""
    minima = {}
    ok = True
    for idx, cut in enumerate(((1,), (2,), (3,)), start=1):
        res = cut_block_positivity(w, cut, restarts=restarts, seed=seed + idx)
        label = subset_key(cut) + "|rest"
        minima[label] = res.min_value
        ok = ok and res.min_value <= -1.0 + seesaw_tol
    return Check(
        name="cut_negativity",
        status=_status(ok),
        values={"minima": minima},
        tolerance=seesaw_tol,
    )


def check_xstate_detection(params: FamilyParams, w: Witness) -> Check:
    """pairing = s t / sqrt 2 - 8 (= 8 / sqrt 2 - 8 < 0 on the curve)."""
    tol = DEFAULT_TOLERANCES["pairing"]
    value = pairing(x_state(params), w)
    expected = params.s * params.t / SQRT2 - 8.0
    ok = abs(value - expected) <= tol and value < 0
    return Check(
        name="xstate_detection_value",
        status=_status(ok),
        values={"pairing": value, "expected": expected},
        tolerance=tol,
    )


def check_xstate_ppt(params: FamilyParams) -> Check:
    tol = DEFAULT_TOLERANCES["pairing"]
    rep = is_ppt(x_state(params), tol)
    return Check(
        name="xstate_ppt",
        status=_status(rep.is_ppt),
        values={"min_eigenvalues": {subset_key(k): v for k, v in rep.min_eigenvalues.items()}},
        tolerance=tol,
    )


def check_boundary_family(params: FamilyParams, w: Witness) -> Check:
    """rho_lambda: certificate verifies, pairing vanishes, every partial
    transpose strictly positive definite (full rank)."""
    tol = DEFAULT_TOLERANCES["pairing"]
    eig_floor = 1e-6
    rows = {}
    ok = True
    for lam in (0.1, 0.5, 0.9):
        state, dec = rho_lambda(lam, params)
        verified = verify_decomposition(state, dec, tol)
        pair_val = pairing(state, w)
        rep = is_ppt(state, tol)
        min_eig = min(rep.min_eigenvalues.values())
        row_ok = verified and abs(pair_val) <= tol and min_eig > eig_floor
        rows[str(lam)] = {
            "decomposition_verified": verified,
            "pairing": pair_val,
            "min_pt_eigenvalue": min_eig,
        }
        ok = ok and row_ok
    return Check(
        name="boundary_family",
        status=_status(ok),
        values=rows,
        tolerance=tol,
        note="partial transposes must be strictly positive (eigenvalues > 1e-6)",
    )


def _rho1_reference() -> np.ndarray:
    r2 = SQRT2
    m = np.array(
        [
            [r2, -1, 0, 0, 0, 0, r2, -1],
            [-1, r2, 0, 0, 0, 0, -1, r2],
            [0, 0, r2, -1, 0, 1, 0, 0],
            [0, 0, -1, r2, -1, 0, 0, 0],
            [0, 0, 0, -1, r2, -1, 0, 0],
            [0, 0, 1, 0, -1, r2, 0, 0],
            [r2, -1, 0, 0, 0, 0, r2, -1],
            [-1, r2, 0, 0, 0, 0, -1, r2],
        ],
        dtype=complex,
    )
    return m / (8.0 * r2)


def check_rho1_fixture() -> Check:
    """The certificate-built rho_1 reproduces its reference matrix, at the
    canonical parameters s = t = 2 sqrt 2."""
    tol = 1e-12
    from .states import rho1

    state, _ = rho1(CANONICAL)
    ref = _rho1_reference()
    diff = float(np.max(np.abs(state.matrix - ref)))
    entry01 = complex(state.matrix[0, 1])
    ok = diff <= tol and abs(entry01 - (-1.0 / (8.0 * SQRT2))) <= tol
    return Check(
        name="rho1_fixture",
        status=_status(ok),
        values={"max_abs_diff": diff, "entry_0_1": [entry01.real, entry01.imag]},
        tolerance=tol,
        note="canonical parameters",
    )


def check_detected_interior(params: FamilyParams, w: Witness) -> Check:
    """A strictly PPT neighbourhood around the normalized X state is still
    detected: eps = 0.1 keeps the pairing below -0.15 while every partial
    transpose has smallest eigenvalue eps / 8."""
    eps = 0.1
    state = perturbed_detected_state(eps, params)
    pair_val = pairing(state, w)
    rep = is_ppt(state, 0.0)
    min_eig = min(rep.min_eigenvalues.values())
    ok = pair_val < -0.15 and min_eig >= eps / 8.0 - 1e-12
    return Check(
        name="detected_interior",
        status=_status(ok),
        values={"eps": eps, "pairing": pair_val, "min_pt_eigenvalue": min_eig},
        tolerance=1e-12,
    )


def check_report_determinism(own: ReportDocument) -> Check:
    """The report's own verify pass, serialized as a `verify` document, and
    one independent `run_verify` from the parameters, seed, restarts and
    see-saw tolerance that document records serialize identically: two
    independent executions of every verify check."""
    rerun = run_verify(
        FamilyParams(own.params["s"], own.params["t"]),
        seed=own.seed,
        restarts=own.restarts,
        seesaw_tol=own.tolerances["seesaw"],
    )
    first = to_json(own)
    second = to_json(rerun)
    ok = first == second
    return Check(
        name="report_determinism",
        status=_status(ok),
        values={"bytes": len(first.encode()), "identical": ok},
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _params_dict(params: FamilyParams) -> dict:
    return {
        "s": params.s,
        "t": params.t,
        "st": params.s * params.t,
        "on_variety": params.on_variety,
    }


def _document(command, params, seed, restarts, seesaw_tol, checks) -> ReportDocument:
    tolerances = dict(DEFAULT_TOLERANCES, seesaw=seesaw_tol)
    return ReportDocument(
        tool_version=__version__,
        command=command,
        params=_params_dict(params),
        seed=seed,
        restarts=restarts,
        tolerances=tolerances,
        checks=checks,
    )


# checks whose claims hold only on the curve s*t = 8
ST8_GATED = (
    "rank_one_positivity_grid",
    "determinant_identity_grid",
    "seesaw_certificate",
    "zero_set_families",
    "full_spanning",
    "pv1_span_rank6",
    "canonical_ten_spanning",
    "biseparable_values",
    "cut_negativity",
)


def verify_checks(
    params: FamilyParams, seed: int, restarts: int, seesaw_tol: float
) -> list[Check]:
    w = witness_matrix(params)
    checks = [
        check_hermiticity(w),
        check_witness_fixture(params, w),
        check_not_psd(w),
    ]
    if params.on_variety:
        points = _phase_modulus_grid(GRID_PHASES, GRID_MODULI)
        images = rank_one_images(params, points)
        checks += [
            check_rank_one_grid(images),
            check_determinant_identity(points, images),
            check_seesaw(w, seed, restarts, seesaw_tol),
            check_zero_set(params, w),
            check_full_spanning(params),
            check_pv1_span(params),
            check_canonical_ten(params),
            check_biseparable(w),
            check_cut_negativity(w, seed, restarts, seesaw_tol),
        ]
    else:
        checks += [_skip(name) for name in ST8_GATED]
    return checks


def run_verify(
    params: FamilyParams,
    seed: int = 7,
    restarts: int = 64,
    seesaw_tol: float = DEFAULT_TOLERANCES["seesaw"],
) -> ReportDocument:
    return _document(
        "verify", params, seed, restarts, seesaw_tol,
        verify_checks(params, seed, restarts, seesaw_tol),
    )


def run_full_report(
    params: FamilyParams,
    seed: int = 7,
    restarts: int = 64,
    seesaw_tol: float = DEFAULT_TOLERANCES["seesaw"],
) -> ReportDocument:
    """Everything `verify` runs, plus the state-level checks and the
    determinism self-test; each acceptance-level check appears exactly once."""
    checks = verify_checks(params, seed, restarts, seesaw_tol)
    own_verify = _document("verify", params, seed, restarts, seesaw_tol, list(checks))
    w = witness_matrix(params)
    if params.on_variety:
        checks += [
            check_xstate_detection(params, w),
            check_xstate_ppt(params),
            check_boundary_family(params, w),
            check_rho1_fixture(),
            check_detected_interior(params, w),
        ]
    else:
        checks += [
            _skip(name)
            for name in (
                "xstate_detection_value",
                "xstate_ppt",
                "boundary_family",
                "rho1_fixture",
                "detected_interior",
            )
        ]
    checks.append(check_report_determinism(own_verify))
    return _document("report", params, seed, restarts, seesaw_tol, checks)


# ---------------------------------------------------------------------------
# detect and spanning reports
# ---------------------------------------------------------------------------


def parse_state_spec(spec: str, params: FamilyParams):
    """Resolve a CLI state spec into (State, optional decomposition, label).

    Accepted forms: `xstate`, `rho-lambda:<l>`, `perturbed:<e>`,
    `file:<path>`. Raises SpanWitnessError subclasses on malformed input.
    """
    from .errors import DimensionMismatchError as _Bad
    from .serialize import load_json, state_from_payload
    from .states import rho_lambda as _rho_lambda

    if spec == "xstate":
        return x_state(params), None, "xstate"
    if spec.startswith("rho-lambda:"):
        try:
            lam = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise _Bad(f"malformed lambda in {spec!r}") from exc
        state, dec = _rho_lambda(lam, params)
        return state, dec, spec
    if spec.startswith("perturbed:"):
        try:
            eps = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise _Bad(f"malformed epsilon in {spec!r}") from exc
        return perturbed_detected_state(eps, params), None, spec
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            doc = load_json(path)
        except (OSError, ValueError) as exc:
            raise _Bad(f"cannot read state file {path!r}: {exc}") from exc
        return state_from_payload(doc), None, spec
    raise _Bad(f"unknown state spec {spec!r}")


def run_detect(
    spec: str,
    params: FamilyParams,
    tol: float = DEFAULT_TOLERANCES["pairing"],
    seed: int = 7,
) -> ReportDocument:
    from .states import detect

    state, dec, label = parse_state_spec(spec, params)
    w = witness_matrix(params)
    result = detect(state, w, tol=tol, decomposition=dec)
    checks = [
        Check(
            name="pairing",
            status="PASS",
            values={"state": label, "value": result.pairing_value},
            tolerance=tol,
        ),
        Check(
            name="ppt_table",
            status="PASS",
            values={
                "is_ppt": result.ppt.is_ppt,
                "min_eigenvalues": {
                    subset_key(k): v for k, v in result.ppt.min_eigenvalues.items()
                },
            },
            tolerance=tol,
        ),
        Check(
            name="verdict",
            status="PASS",
            values={"verdict": result.verdict.value, "certified": result.certified},
        ),
    ]
    return _document("detect", params, seed, 0, DEFAULT_TOLERANCES["seesaw"], checks)


SPANNING_FAMILY_CHOICES = ("default", "pv1", "canonical-ten")


def run_spanning(
    params: FamilyParams,
    families: str = "default",
    seed: int = 7,
    rank_tol: float = DEFAULT_TOLERANCES["rank"],
) -> ReportDocument:
    from .family import PV1_FAMILIES

    if families not in SPANNING_FAMILY_CHOICES:
        from .errors import DimensionMismatchError as _Bad

        raise _Bad(f"unknown family selection {families!r}")
    checks: list[Check]
    if families == "pv1":
        samples = [s for s in default_zero_sample(params) if s.family in PV1_FAMILIES]
        rep = spanning_report(params, samples=samples, rank_tol=rank_tol)
        ranks = {subset_key(k): v for k, v in rep.subset_ranks.items()}
        checks = [
            check_pv1_span(params, rank_tol),
            Check(
                name="pv1_subset_ranks",
                status=_status(all(r == 6 for r in ranks.values())),
                values={"ranks": ranks},
                tolerance=rank_tol,
            ),
        ]
    elif families == "canonical-ten":
        if not params.on_variety:
            checks = [_skip("canonical_ten_spanning")]
        else:
            checks = [check_canonical_ten(params, rank_tol)]
    else:
        if not params.on_variety:
            checks = [_skip("full_spanning"), check_pv1_span(params, rank_tol)]
        else:
            checks = [check_full_spanning(params, rank_tol), check_pv1_span(params, rank_tol)]
    doc = _document("spanning", params, seed, 0, DEFAULT_TOLERANCES["seesaw"], checks)
    doc.tolerances = dict(doc.tolerances, rank=rank_tol)
    return doc
