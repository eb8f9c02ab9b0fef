"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces every public function of the layer modules with
a timing wrapper, in every `spanwitness.*` namespace that binds it (the
package re-exports names with `from .x import f`, so patching the defining
module alone would miss most calls). Each call records one span: name,
start, end and parent. Spans stay in memory in flat arrays and are written
out once, by `dump`, when the run ends. Self time is derived afterwards:
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict

# The package's modules that do work, in dependency order; `errors` and
# `__init__` define no work of their own.
LAYERS = ("linalg", "tensor", "maps", "seesaw", "family", "states", "serialize", "report", "cli")

# report check functions and the check names they put in the document.
CHECKS = {
    "check_hermiticity": "hermiticity",
    "check_witness_fixture": "witness_matrix_fixture",
    "check_not_psd": "witness_not_psd",
    "check_rank_one_grid": "rank_one_positivity_grid",
    "check_determinant_identity": "determinant_identity_grid",
    "check_seesaw": "seesaw_certificate",
    "check_zero_set": "zero_set_families",
    "check_full_spanning": "full_spanning",
    "check_pv1_span": "pv1_span_rank6",
    "check_canonical_ten": "canonical_ten_spanning",
    "check_biseparable": "biseparable_values",
    "check_cut_negativity": "cut_negativity",
    "check_xstate_detection": "xstate_detection_value",
    "check_xstate_ppt": "xstate_ppt",
    "check_boundary_family": "boundary_family",
    "check_rho1_fixture": "rho1_fixture",
    "check_detected_interior": "detected_interior",
    "check_report_determinism": "report_determinism",
}

SEESAW = "seesaw.seesaw_block_positivity"
CUT_SEESAW = "seesaw.cut_block_positivity"


class Spans:
    """Flat span storage; index order is call (start) order, so a parent
    always precedes its children. `sweeps` holds (span index, best-restart
    sweep count) for each see-saw call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.sweeps: list[tuple[int, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.name) - 1

    def extend(self, other: dict) -> int:
        """Append spans from a `to_dict` payload, keeping their tree; returns
        the index the first appended span got."""
        offset = len(self.name)
        for n, s, e, p in zip(other["name"], other["start"], other["end"], other["parent"]):
            self.add(other["names"][n], s, e, p + offset if p >= 0 else -1)
        self.sweeps += [(i + offset, n) for i, n in other["sweeps"]]
        return offset

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "sweeps": self.sweeps,
        }


def self_times(spans: Spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for i, p in enumerate(spans.parent):
        if p >= 0:
            out[p] -= spans.end[i] - spans.start[i]
    return out


def aggregate(spans: Spans) -> dict[str, dict[str, int]]:
    """Per name: calls, self_ns, and total_ns over the calls not nested in
    another call of the same name."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0})
    for i, nid in enumerate(spans.name):
        row = agg[spans.names[nid]]
        row["calls"] += 1
        row["self_ns"] += selfs[i]
        p = spans.parent[i]
        while p >= 0 and spans.name[p] != nid:
            p = spans.parent[p]
        if p < 0:
            row["total_ns"] += spans.end[i] - spans.start[i]
    return dict(agg)


def sweeps_best(spans: Spans) -> list[int]:
    """Best-restart sweep counts of the three-party see-saw runs, leaving
    out the two-party runs that `cut_block_positivity` makes."""
    cut = spans.name_ids.get(CUT_SEESAW)
    out = []
    for idx, n in spans.sweeps:
        p = spans.parent[idx]
        if p < 0 or spans.name[p] != cut:
            out.append(n)
    return out


class Tracer:
    """Installs and removes the wrappers; owns the spans they record."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = Spans()
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, self.clock
        nid = spans.name_id(name)
        names, starts, ends, parents = spans.name, spans.start, spans.end, spans.parent
        sweeps = spans.sweeps if name == SEESAW else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sweeps is not None:
                sweeps.append((idx, len(result.history) - 1))
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "spanwitness" or name.startswith("spanwitness.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"spanwitness.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self.wrap(fn, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans.to_dict(), fh)


def layer_metrics(spans: Spans, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of `ops` operations."""
    agg = aggregate(spans)

    def row(name):
        return agg.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    def calls(name):
        return row(name)["calls"] / ops

    def ms(name, kind):
        return row(name)[kind] / ops / 1e6

    out = {}
    for fn, check in CHECKS.items():
        out[f"report.check.{check}.ms"] = ms(f"report.{fn}", "total_ns")
    out["report.to_json.self_ms"] = ms("report.to_json", "self_ns")
    for name in ("maps.evaluate", "linalg.numerical_rank", "tensor.is_ppt",
                 "tensor.partial_transpose", "linalg.hermitian_eigenvalues"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = ms(name, "self_ns")
    for name in ("family.rank_one_projector", "family.determinant_d",
                 "tensor.partial_conjugate", "family.witness_matrix",
                 "family.bilinear_map", "linalg.require_hermitian"):
        out[f"{name}.calls"] = calls(name)
    for name in (SEESAW, "seesaw.product_grid_minimum", "family.spanning_report",
                 "maps.pairing", "states.detect", "states.verify_decomposition",
                 "states.rho_lambda", "serialize.load_json",
                 "serialize.state_from_payload", "serialize.dump_json"):
        out[f"{name}.self_ms"] = ms(name, "self_ns")
    out[f"{CUT_SEESAW}.total_ms"] = ms(CUT_SEESAW, "total_ns")
    best = sweeps_best(spans)
    out["seesaw.sweeps_best"] = sum(best) / len(best) if best else 0.0
    for layer in LAYERS:
        self_ns = sum(r["self_ns"] for n, r in agg.items() if n.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_ms"] = self_ns / ops / 1e6
    return out
