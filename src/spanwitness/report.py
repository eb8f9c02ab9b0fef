"""Machine-readable verification reports.

Every claim the library makes about the witness family is re-run here as a
named check with a PASS/FAIL/SKIP status, an explicit tolerance, and the
measured values. Reports are fully deterministic for fixed parameters and
seed: no timestamps or durations enter the serialized document (wall-clock
time goes to stderr in the CLI), so two runs are byte-identical.

The checks form one table, `REGISTRY`. `verify`, `report` and `spanning`
each run a selection of its entries through one runner, `_run`, the only
place that skips, resolves tolerances and grades.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import __version__
from .errors import InvalidParamsError, UsageError
from .family import (
    CANONICAL,
    SQRT2,
    FamilyParams,
    bilinear_map,
    default_zero_sample,
    eighth_root,
    family_maxima,
    grid_table,
    sample_rows,
    sample_table,
    witness_matrix,
)
from .linalg import TOLERANCES, document_tolerances, hermitian_eigenvalues, hermiticity_defect, qubit_lowest, read_only
from .maps import choi_matrix, pairing, value_on_product
from .seesaw import seesaw_block_positivity
from .serialize import dump_json, load_json, state_from_payload
from .states import (
    biseparable_vector,
    detect,
    perturbed_detected_state,
    rho1,
    rho_lambda,
    x_state,
)
from .tensor import THREE_QUBITS, State, is_ppt, kron_rows, subset_ranks


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

    @property
    def all_pass(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)


def by_subset(table: dict) -> dict:
    """A table keyed by party subsets, keyed by their digits instead ("none" for ())."""
    return {"".join(map(str, k)) or "none": v for k, v in table.items()}


def to_dict(doc: ReportDocument) -> dict:
    """The document's and each check's fields in declaration order, not deep-copied."""
    checks = [dict(vars(c)) for c in doc.checks]
    return {"tool": "spanwitness", **vars(doc), "checks": checks, "all_pass": doc.all_pass}


def to_json(doc: ReportDocument) -> str:
    return dump_json(to_dict(doc))


def render_text(doc: ReportDocument) -> str:
    lines = [
        f"spanwitness {doc.tool_version} :: {doc.command}"
        f"  s={doc.params['s']!r} t={doc.params['t']!r}"
        f" on_variety={doc.params['on_variety']} seed={doc.seed}",
    ]
    for c in doc.checks:
        summary = json.dumps(c.values, separators=(",", ":"))
        tol = "" if c.tolerance is None else f" tol={c.tolerance!r}"
        note = f"  ({c.note})" if c.note else ""
        lines.append(f"[{c.status}] {c.name}{tol} {summary}{note}")
    lines.append("RESULT: " + ("ALL CHECKS PASS" if doc.all_pass else "FAILURES PRESENT"))
    return "\n".join(lines) + "\n"


@dataclass
class Context:
    """What the checks of one document share: its inputs, the checks run so
    far, and the witness and the smallest eigenvalues of the phase-modulus
    grid's rank-one images, each built once, on first use."""

    params: FamilyParams
    seed: int = 7
    restarts: int = 64
    tolerances: dict = field(default_factory=document_tolerances)
    checks: list[Check] = field(default_factory=list)

    @cached_property
    def witness(self) -> State:
        return witness_matrix(self.params)

    @cached_property
    def image_minima(self) -> np.ndarray:
        """`qubit_lowest` of the images' diagonals s A and t D and |b|, from `grid_table`."""
        g = grid_table()
        return qubit_lowest(self.params.s * g.a, self.params.t * g.d, g.mag)[1]

    def document(self, command: str, checks: list[Check]) -> ReportDocument:
        p = self.params
        return ReportDocument(
            tool_version=__version__,
            command=command,
            params={"s": p.s, "t": p.t, "st": p.s * p.t, "on_variety": p.on_variety},
            seed=self.seed,
            restarts=self.restarts,
            tolerances=self.tolerances,
            checks=checks,
        )


# ---------------------------------------------------------------------------
# individual checks: check(context, tolerance) -> (ok, values)
# ---------------------------------------------------------------------------


def check_hermiticity(ctx: Context, tol: float) -> tuple[bool, dict]:
    defect = hermiticity_defect(ctx.witness.matrix)
    return defect <= tol, {"max_defect": defect}


def check_witness_fixture(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Entrywise equality of the written-out matrix and the assembled one."""
    w = ctx.witness.matrix
    diff = float(np.max(np.abs(choi_matrix(bilinear_map(ctx.params)).matrix - w)))
    diagonals = np.eye(w.shape[0], dtype=bool)
    onx = bool(np.all(w[~(diagonals | diagonals[::-1])] == 0))
    return diff <= tol and onx, {"max_abs_diff_vs_assembled": diff, "x_shaped_support": onx}


def _closed_form_spectrum(params: FamilyParams) -> list[float]:
    """W's ascending spectrum: -1 and 1 from each anti-diagonal pair, and the
    central block [[t, 1], [1, s]]'s, whose smaller eigenvalue exceeds -1 for
    s, t > 0, as (s + t + 2)^2 - (s - t)^2 - 4 = 4(st + s + t) > 0. Where
    (s - t)^2 overflows a float it raises InvalidParamsError."""
    s, t = float(params.s), float(params.t)
    try:
        disc = math.sqrt((s - t) ** 2 + 4.0)
    except OverflowError:
        raise InvalidParamsError(f"W's spectrum overflows a float at s={s!r}, t={t!r}") from None
    return sorted([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, (s + t - disc) / 2, (s + t + disc) / 2])


def check_not_psd(ctx: Context, tol: float) -> tuple[bool, dict]:
    """min eigenvalue -1; the spectrum is its closed form within tol * max(1, |eigenvalues|)."""
    evals = hermitian_eigenvalues(ctx.witness.matrix)
    expected = _closed_form_spectrum(ctx.params)
    dev = float(np.max(np.abs(evals - np.array(expected))))
    bound = tol * max(1.0, *map(abs, expected))
    ok = abs(evals[0] + 1.0) <= bound and dev <= bound and evals[0] < -TOLERANCES["psd"]
    return ok, {
        "min_eigenvalue": float(evals[0]),
        "spectrum": [float(v) for v in evals],
        "max_spectrum_deviation": dev,
    }


def check_rank_one_grid(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Positivity of the bilinear map on a deterministic rank-one grid: the
    smallest eigenvalues `Context.image_minima`."""
    worst = float(ctx.image_minima.min())
    return worst >= -tol, {"pairs": ctx.image_minima.size, "min_eigenvalue": worst}


def check_determinant_identity(ctx: Context, tol: float) -> tuple[bool, dict]:
    """det of the rank-one image, s A t D - m01 m10, equals the closed form D(a, b) on s*t = 8."""
    g = grid_table()
    worst = float(np.max(np.hypot(ctx.params.s * g.a * (ctx.params.t * g.d) - g.re - g.det, g.im)))
    return worst <= tol, {"pairs": g.a.size, "max_abs_difference": worst}


def check_seesaw(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Global see-saw minimum sits at zero, and not above the grid minimum:
    the least <xyz|W|xyz> over x, y from the grid or a pole and exact z, the
    smallest eigenvalue of the rank-one image at (a, b) over (1 + |a|^2)(1 + |b|^2).
    A finite set's minimum bounds the true one from above, so a see-saw that
    works can only match or undercut it."""
    result = seesaw_block_positivity(ctx.witness, restarts=ctx.restarts, seed=ctx.seed)
    # a pole in party 1 or 2 has a diagonal image with a zero entry, diag(s y11, 0)
    # at x = |1>, diag(0, t x11) at y = |1>: least value exactly 0; NaN stays NaN
    grid_min = min(float((ctx.image_minima / grid_table().norm).min()), 0.0)
    ok = -tol <= result.min_value <= tol and result.min_value <= grid_min + TOLERANCES["grid_slack"]
    return ok, {
        "min_value": result.min_value,
        "grid_minimum": grid_min,
        "converged": result.converged,
        "sweeps_best_restart": len(result.history) - 1,
    }


def check_zero_set(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Every sampled zero-family vector annihilates the quadratic form: the
    sample at the document's (s, t), flattened, its values from one stacked call."""
    values = np.abs(value_on_product(ctx.witness, kron_rows(default_zero_sample(ctx.params)[1])))
    per_family = family_maxima(values)
    worst = float(values.max())
    return worst <= tol, {"samples": len(values), "max_abs_value": worst, "per_family": per_family}


def check_full_spanning(ctx: Context, tol: float) -> tuple[bool, dict]:
    """The default sample spans the whole space under every partial conjugation:
    `sample_table`'s ranks at u = 1, the same at every point of s t = 8."""
    ranks = subset_ranks(sample_table().full, tol)
    dim = THREE_QUBITS.total_dim
    return all(r == dim for r in ranks.values()), {
        "ranks": by_subset(ranks),
        "dimension": dim,
        "sample_size": sample_rows().shape[1],
    }


def check_pv1_span(ctx: Context, tol: float) -> tuple[bool, dict]:
    """The six free-factor families span exactly six dimensions; the
    complement, the basis vectors outside their support, is |011> and |100>."""
    rank = subset_ranks(sample_table().free, tol)[()]
    labels = [format(int(np.argmax(v)), "03b") for v in sample_table().complement]
    basis_ok = labels == ["011", "100"]
    return rank == 6 and basis_ok, {"rank": rank, "complement_labels": labels, "complement_matches": basis_ok}


def check_pv1_subset_ranks(ctx: Context, tol: float) -> tuple[bool, dict]:
    """The six free-factor families keep rank 6 under every partial conjugation."""
    ranks = by_subset(subset_ranks(sample_table().free, tol))
    return all(r == 6 for r in ranks.values()), {"ranks": ranks}


def check_canonical_ten(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Ten vectors alone reach rank 8 under all eight partial conjugations:
    the rows `CANONICAL_TEN_ROWS` of `sample_table`, the same at every point of s t = 8."""
    ranks = by_subset(subset_ranks(sample_table().ten, tol))
    return all(r == 8 for r in ranks.values()), {"ranks": ranks}


@cache
def _cut_vectors() -> tuple[np.ndarray, ...]:
    """Bi-separable vectors at exp(i pi / 4), cut vectors at i, i, 1, and their
    squared norms; read by `biseparable_values` and `cut_negativity`."""
    bisep = np.array([biseparable_vector(i, eighth_root(1)) for i in (1, 2, 3)])
    cuts = np.array([biseparable_vector(i, alpha) for i, alpha in ((1, 1j), (2, 1j), (3, 1))])
    return tuple(map(read_only, (bisep, cuts, (cuts.conj() * cuts).real.sum(-1))))


def check_biseparable(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Each cut's detection vector reaches -2 at alpha = exp(i pi / 4)."""
    values = dict(zip(("xi1", "xi2", "xi3"), value_on_product(ctx.witness, _cut_vectors()[0]).tolist()))
    worst = max(abs(v + 2.0) for v in values.values())
    return worst <= tol, dict(values, max_abs_deviation=worst)


def check_cut_negativity(ctx: Context, tol: float) -> tuple[bool, dict]:
    """Across each cut, biseparable_vector(cut, alpha) at alpha = i, i, 1
    reaches W's spectral floor -1, so no cut is block positive. Each is
    Gaussian-integer with |v|^2 = 4 and no entry in the central block
    (indices 3, 4), so <v|W|v> = -4 exactly, for every (s, t)."""
    floor = _closed_form_spectrum(ctx.params)[0]
    keys = ("1|rest", "2|rest", "3|rest")
    _, flats, squared_norms = _cut_vectors()
    minima = dict(zip(keys, (value_on_product(ctx.witness, flats) / squared_norms).tolist()))
    vectors = {k: [[z.real + 0.0, z.imag + 0.0] for z in v.tolist()] for k, v in zip(keys, flats)}  # no -0.0
    ok = all(m <= floor + tol for m in minima.values())
    return ok, {"floor": floor, "minima": minima, "vectors": vectors}


def check_xstate_detection(ctx: Context, tol: float) -> tuple[bool, dict]:
    """pairing = s t / sqrt 2 - 8 (= 8 / sqrt 2 - 8 < 0 on the curve)."""
    value = pairing(x_state(ctx.params), ctx.witness)
    expected = ctx.params.s * ctx.params.t / SQRT2 - 8.0
    return abs(value - expected) <= tol and value < 0, {"pairing": value, "expected": expected}


def check_xstate_ppt(ctx: Context, tol: float) -> tuple[bool, dict]:
    rep = is_ppt(x_state(ctx.params), tol)
    return rep.is_ppt, {"min_eigenvalues": by_subset(rep.min_eigenvalues)}


def check_boundary_family(ctx: Context, tol: float) -> tuple[bool, dict]:
    """rho_lambda: certificate verifies (within its own tolerance), pairing
    vanishes, every partial transpose strictly positive definite (`min_ratio`)."""
    rows = {}
    ok = True
    for lam in (0.1, 0.5, 0.9):
        state, dec = rho_lambda(lam, ctx.params)
        result = detect(state, ctx.witness, decomposition=dec)
        pair_val = result.pairing_value
        min_eig = min(result.ppt.min_eigenvalues.values())
        rows[str(lam)] = {
            "decomposition_verified": result.certified,
            "pairing": pair_val,
            "min_pt_eigenvalue": min_eig,
        }
        ok = ok and result.certified and abs(pair_val) <= tol
        ok = ok and result.ppt.min_ratio > TOLERANCES["strict"]
    return ok, rows


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


def check_rho1_fixture(ctx: Context, tol: float) -> tuple[bool, dict]:
    """The certificate-built rho_1 reproduces its reference matrix, at the
    canonical parameters s = t = 2 sqrt 2."""
    state, _ = rho1(CANONICAL)
    diff = float(np.max(np.abs(state.matrix - _rho1_reference())))
    entry01 = complex(state.matrix[0, 1])
    ok = diff <= tol and abs(entry01 - (-1.0 / (8.0 * SQRT2))) <= tol
    return ok, {"max_abs_diff": diff, "entry_0_1": [entry01.real, entry01.imag]}


def check_detected_interior(ctx: Context, tol: float) -> tuple[bool, dict]:
    """A strictly PPT neighbourhood around the normalized X state is still
    detected: at eps = min(0.1, half the detection margin) the pairing is its
    closed form, negative, and every partial transpose has eigenvalues >= eps / 8."""
    s, t = ctx.params.s, ctx.params.t
    gap = 8.0 - s * t / SQRT2
    eps = min(0.1, gap / (gap + s + t) / 2)
    result = detect(perturbed_detected_state(eps, ctx.params), ctx.witness)
    pair_val = result.pairing_value
    expected = ((1.0 - eps) * (s * t / SQRT2 - 8.0) + eps * (s + t)) / 8.0
    min_eig = min(result.ppt.min_eigenvalues.values())
    ok = abs(pair_val - expected) <= tol and pair_val < 0 and min_eig >= eps / 8.0 - tol
    return ok, {"eps": eps, "pairing": pair_val, "min_pt_eigenvalue": min_eig}


def check_report_determinism(ctx: Context, tol: float | None) -> tuple[bool, dict]:
    """The report's own verify pass, serialized as a `verify` document, and
    one independent `run_verify` from the parameters, seed, restarts and
    see-saw tolerance that document records serialize identically: two
    independent executions of every verify check. The re-run reads the same
    read-only parameter-free tables as every other document in the process."""
    verify_names = {e.name for e in VERIFY}
    own = ctx.document("verify", [c for c in ctx.checks if c.name in verify_names])
    rerun = run_verify(
        FamilyParams(own.params["s"], own.params["t"]),
        seed=own.seed,
        restarts=own.restarts,
        seesaw_tol=own.tolerances["seesaw"],
    )
    first = to_json(own)
    ok = first == to_json(rerun)
    return ok, {"bytes": len(first.encode()), "identical": ok}


# ---------------------------------------------------------------------------
# the registry and its runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One claim: its check name, the selections that run it (the commands
    `verify` and `report`, and the `spanning` families), its tolerance (a
    key of `TOLERANCES`, taken from the document's tolerances where they
    override it, or None), and the name of its check function, called as
    check(context, tolerance) -> (ok, values). `st8` marks a claim that
    holds only on the curve s t = 8; it is skipped elsewhere.

    The check is looked up by its module-global name when the entry runs,
    so a wrapper installed on that name (a tracer, a test double) sees it.
    """

    name: str
    selections: tuple[str, ...]
    tolerance: str | None
    check: str
    st8: bool = False
    note: str = ""


_VR = ("verify", "report")
_R = ("report",)

REGISTRY = (
    Entry("hermiticity", _VR, "hermiticity", "check_hermiticity"),
    Entry("witness_matrix_fixture", _VR, "exact", "check_witness_fixture"),
    Entry("witness_not_psd", _VR, "eigenvalue", "check_not_psd"),
    # positivity is expected wherever s t >= 8 and must fail below it
    Entry("rank_one_positivity_grid", _VR, "psd", "check_rank_one_grid"),
    Entry("determinant_identity_grid", _VR, "determinant", "check_determinant_identity", st8=True),
    Entry("seesaw_certificate", _VR, "seesaw", "check_seesaw"),
    Entry("zero_set_families", _VR, "pairing", "check_zero_set", st8=True),
    Entry("full_spanning", _VR + ("default",), "rank", "check_full_spanning", st8=True),
    Entry("pv1_span_rank6", _VR + ("default", "pv1"), "rank", "check_pv1_span"),
    Entry(
        "canonical_ten_spanning", _VR + ("canonical-ten",), "rank", "check_canonical_ten", st8=True
    ),
    Entry("biseparable_values", _VR, "pairing", "check_biseparable"),
    Entry("cut_negativity", _VR, "seesaw", "check_cut_negativity"),
    Entry("xstate_detection_value", _R, "pairing", "check_xstate_detection", st8=True),
    Entry("xstate_ppt", _R, "psd", "check_xstate_ppt", st8=True),
    Entry(
        "boundary_family", _R, "pairing", "check_boundary_family", st8=True,
        note="partial transposes must be strictly positive (smallest / largest eigenvalues > 1e-12)",
    ),
    Entry("rho1_fixture", _R, "rounding", "check_rho1_fixture", note="canonical parameters"),
    Entry("detected_interior", _R, "rounding", "check_detected_interior", st8=True),
    Entry("report_determinism", _R, None, "check_report_determinism"),
    Entry("pv1_subset_ranks", ("pv1",), "rank", "check_pv1_subset_ranks"),
)


def _select(selection: str) -> tuple[Entry, ...]:
    """The entries a selection runs, in registry order."""
    return tuple(e for e in REGISTRY if selection in e.selections)


VERIFY = _select("verify")
REPORT = _select("report")
SPANNING = {families: _select(families) for families in ("default", "pv1", "canonical-ten")}
SPANNING_FAMILY_CHOICES = tuple(SPANNING)


def _run(command: str, ctx: Context, entries: tuple[Entry, ...]) -> ReportDocument:
    """Run `entries` in order into one document: skip the curve-only claims
    off the curve, resolve each tolerance, grade each result."""
    table = dict(TOLERANCES, **ctx.tolerances)
    for e in entries:
        if e.st8 and not ctx.params.on_variety:
            ctx.checks.append(Check(e.name, "SKIP", note="requires s*t = 8"))
            continue
        tol = None if e.tolerance is None else table[e.tolerance]
        ok, values = globals()[e.check](ctx, tol)
        status = "PASS" if ok else "FAIL"
        ctx.checks.append(Check(e.name, status, values, tolerance=tol, note=e.note))
    return ctx.document(command, ctx.checks)


def run_verify(
    params: FamilyParams,
    seed: int = 7,
    restarts: int = 64,
    seesaw_tol: float = TOLERANCES["seesaw"],
) -> ReportDocument:
    tolerances = document_tolerances(seesaw=seesaw_tol)
    return _run("verify", Context(params, seed, restarts, tolerances), VERIFY)


def run_full_report(
    params: FamilyParams,
    seed: int = 7,
    restarts: int = 64,
    seesaw_tol: float = TOLERANCES["seesaw"],
) -> ReportDocument:
    """Everything `verify` runs, plus the state-level checks and the
    determinism self-test; each acceptance-level check appears exactly once."""
    tolerances = document_tolerances(seesaw=seesaw_tol)
    return _run("report", Context(params, seed, restarts, tolerances), REPORT)


def run_spanning(
    params: FamilyParams,
    families: str = "default",
    seed: int = 7,
    rank_tol: float = TOLERANCES["rank"],
) -> ReportDocument:
    if families not in SPANNING:
        raise UsageError(f"unknown family selection {families!r}")
    tolerances = document_tolerances(rank=rank_tol)
    return _run("spanning", Context(params, seed, 0, tolerances), SPANNING[families])


# ---------------------------------------------------------------------------
# detect reports
# ---------------------------------------------------------------------------


def parse_state_spec(spec: str, params: FamilyParams):
    """Resolve a CLI state spec into (State, optional decomposition, label).

    Accepted forms: `xstate`, `rho-lambda:<l>`, `perturbed:<e>`,
    `file:<path>`. Raises SpanWitnessError subclasses on malformed input.
    """
    kind, colon, arg = spec.partition(":")
    if spec == "xstate":
        return x_state(params), None, spec
    if colon and kind == "file":
        try:
            doc = load_json(arg)
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read state file {arg!r}: {exc}") from exc
        return state_from_payload(doc), None, spec
    names = {"rho-lambda": "lambda", "perturbed": "epsilon"}
    if not colon or kind not in names:
        raise UsageError(f"unknown state spec {spec!r}")
    try:
        x = float(arg)
    except ValueError as exc:
        raise UsageError(f"malformed {names[kind]} in {spec!r}") from exc
    if kind == "perturbed":
        return perturbed_detected_state(x, params), None, spec
    return *rho_lambda(x, params), spec


def run_detect(
    spec: str,
    params: FamilyParams,
    tol: float = TOLERANCES["pairing"],
) -> ReportDocument:
    """Three informational rows from one `detect` result: the pairing, the
    partial-transpose table and the verdict."""
    ctx = Context(params, restarts=0, tolerances=document_tolerances(pairing=tol))
    state, dec, label = parse_state_spec(spec, params)
    result = detect(state, ctx.witness, tol=tol, decomposition=dec)
    table = {"is_ppt": result.ppt.is_ppt, "min_eigenvalues": by_subset(result.ppt.min_eigenvalues)}
    checks = [
        Check("pairing", "PASS", {"state": label, "value": result.pairing_value}, tol),
        Check("ppt_table", "PASS", table, TOLERANCES["psd"]),
        Check("verdict", "PASS", {"verdict": result.verdict.value, "certified": result.certified}),
    ]
    return ctx.document("detect", checks)
