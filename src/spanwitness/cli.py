"""Command-line driver.

    spanwitness build    --s 2r2 --t 2r2 --out w.json
    spanwitness verify   --s 2r2 --t 2r2 --seed 7
    spanwitness detect   xstate --s 2r2 --t 2r2
    spanwitness spanning --families pv1
    spanwitness report   --json

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or parse
error, an --out path that cannot be written, a run too large for memory,
or a NaN or infinity in a JSON document. Irrational parameters are written
as tokens (`2r2` for 2 sqrt 2, `r2` for sqrt 2) so fixtures avoid decimal
round-trip loss.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import SpanWitnessError
from .family import SQRT2, FamilyParams, witness_matrix
from .linalg import TOLERANCES
from .report import (
    ReportDocument,
    SPANNING_FAMILY_CHOICES,
    render_text,
    run_detect,
    run_full_report,
    run_spanning,
    run_verify,
    to_json,
)
from .serialize import dump_json, save_json, state_payload

PARAM_TOKENS = {"2r2": 2.0 * SQRT2, "r2": SQRT2}

USAGE_EXIT = 2
FAIL_EXIT = 1

# The document commands: the tolerance each one's --tol overrides, and its help.
TOL_OPTIONS = (
    ("verify", "seesaw", "see-saw verdict tolerance"),
    ("detect", "pairing", "pairing tolerance"),
    ("spanning", "rank", "relative rank tolerance"),
    ("report", "seesaw", "see-saw verdict tolerance"),
)


def parse_param(token: str) -> float:
    if token in PARAM_TOKENS:
        return PARAM_TOKENS[token]
    try:
        return float(token)
    except ValueError as exc:
        raise SpanWitnessError(
            f"cannot parse parameter {token!r} (use a float, 'r2' or '2r2')"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanwitness",
        description="Construct and verify the X-shaped three-qubit witness family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_search=True):
        p.add_argument("--s", default="2r2", help="family parameter s (float, 'r2' or '2r2')")
        p.add_argument("--t", default="2r2", help="family parameter t")
        p.add_argument("--out", default=None, help="write the JSON document to this path")
        if with_search:
            p.add_argument("--seed", type=int, default=7, help="see-saw seed")
            p.add_argument("--restarts", type=int, default=64, help="see-saw restarts")

    p_build = sub.add_parser("build", help="write the witness matrix as JSON")
    add_common(p_build, with_search=False)

    p_verify = sub.add_parser("verify", help="run the witness-level checks")
    add_common(p_verify)

    p_detect = sub.add_parser("detect", help="pair a state against the witness")
    p_detect.add_argument(
        "state_spec",
        help="xstate | rho-lambda:<l> | perturbed:<e> | file:<path>",
    )
    add_common(p_detect, with_search=False)

    p_span = sub.add_parser("spanning", help="partial-conjugation rank tables")
    add_common(p_span, with_search=False)
    p_span.add_argument(
        "--families", default="default", choices=SPANNING_FAMILY_CHOICES,
        help="which zero-set sample to use",
    )
    p_span.add_argument("--seed", type=int, default=7, help="echoed into the report")

    p_report = sub.add_parser("report", help="run every check, states included")
    add_common(p_report)
    for command, key, text in TOL_OPTIONS:
        sub.choices[command].add_argument("--tol", type=float, default=TOLERANCES[key], help=text)
        sub.choices[command].add_argument("--json", action="store_true", help="print JSON instead of text")
    return parser


def _emit(doc: ReportDocument, args, started: float) -> int:
    elapsed_ms = int((time.monotonic() - started) * 1000)
    text = to_json(doc) if args.json or args.out else ""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text if args.json else render_text(doc))
    print(f"elapsed {elapsed_ms} ms", file=sys.stderr)
    return 0 if doc.all_pass else FAIL_EXIT


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        params = FamilyParams(parse_param(args.s), parse_param(args.t))
        if args.command == "build":
            meta = {"family": "x-shaped", "s": params.s, "t": params.t, "on_variety": params.on_variety}
            payload = state_payload(witness_matrix(params), meta)
            if args.out:
                save_json(args.out, payload)
            else:
                sys.stdout.write(dump_json(payload))
            return 0
        if args.command == "verify":
            doc = run_verify(params, seed=args.seed, restarts=args.restarts, seesaw_tol=args.tol)
        elif args.command == "detect":
            doc = run_detect(args.state_spec, params, tol=args.tol)
        elif args.command == "spanning":
            doc = run_spanning(params, families=args.families, seed=args.seed, rank_tol=args.tol)
        else:
            doc = run_full_report(params, seed=args.seed, restarts=args.restarts, seesaw_tol=args.tol)
        return _emit(doc, args, started)
    except (SpanWitnessError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
