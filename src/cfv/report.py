"""Versioned machine-readable run reports.

The report is a single JSON document with a fixed field order. Everything
nondeterministic (wall-clock measurements) lives under keys named
"timings", so two runs over identical inputs are byte-identical once those
subtrees are ignored; the test suite enforces this. Integer values are
rendered signed; the width is recorded in the config block.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import cfv
from cfv.equivalence import (
    Equivalent,
    EquivalenceVerdict,
    NotEquivalent,
    Observables,
    Unknown,
    Witness,
)
from cfv.minic.ast import Span
from cfv.terms import to_signed
from cfv.verify import Counterexample, Fail, Pass, VerificationResult

SCHEMA_VERSION = 1


def _signed(value: int | bool, width: int):
    if isinstance(value, bool):
        return value
    return to_signed(value, width)


def _signed_map(values: dict, width: int) -> dict:
    out = {}
    for name in sorted(values):
        v = values[name]
        if isinstance(v, list):
            out[name] = [_signed(x, width) for x in v]
        else:
            out[name] = _signed(v, width)
    return out


def witness_json(w: Witness, width: int) -> dict:
    return {
        "params": [_signed(v, width) for v in w.params],
        "globals": _signed_map(w.globals, width),
        "nondets": _signed_map(w.nondets, width),
    }


def observables_json(o: Observables, width: int) -> dict:
    return {
        "ok": o.ok,
        "status": o.status,
        "return": None if o.ret is None else _signed(o.ret, width),
        "globals": _signed_map(o.globals, width),
    }


def verdict_json(v: EquivalenceVerdict, width: int) -> dict:
    if isinstance(v, Equivalent):
        return {
            "kind": "equivalent",
            "mode": v.mode,
            "bound": v.bound,
            "complete": v.complete,
        }
    if isinstance(v, NotEquivalent):
        return {
            "kind": "not_equivalent",
            "reason": v.reason,
            "witness": None if v.witness is None else witness_json(v.witness, width),
            "old_observables": None
            if v.old_observables is None
            else observables_json(v.old_observables, width),
            "new_observables": None
            if v.new_observables is None
            else observables_json(v.new_observables, width),
        }
    assert isinstance(v, Unknown)
    return {"kind": "unknown", "reason": v.reason}


def _span_json(span: Span) -> dict:
    return {"line": span.line, "col": span.col}


def counterexample_json(cx: Counterexample, width: int, concretized: str | None) -> dict:
    return {
        "valuation": _signed_map(cx.valuation, width),
        "failing_assert": _span_json(cx.failing_assert),
        "trace": [
            {"line": span.line, "col": span.col, "var": name, "value": _signed(v, width)}
            for span, name, v in cx.trace
        ],
        "concretized_source": concretized,
    }


def result_json(r: VerificationResult, width: int, concretized: str | None = None) -> dict:
    if isinstance(r, Pass):
        return {"kind": "pass", "bound": r.bound, "complete": r.complete}
    if isinstance(r, Fail):
        return {
            "kind": "fail",
            "counterexample": counterexample_json(r.counterexample, width, concretized),
        }
    return {"kind": "unknown", "reason": r.reason}


def strip_timings(node: Any) -> Any:
    """Copy of a report with every subtree named "timings" removed."""
    if isinstance(node, dict):
        return {k: strip_timings(v) for k, v in node.items() if k != "timings"}
    if isinstance(node, list):
        return [strip_timings(v) for v in node]
    return node


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_report(report: dict, out_path: str | Path) -> None:
    """Atomic write: the report appears complete or not at all."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_name(out_path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(report))
    os.replace(tmp, out_path)


def exit_code(report: dict) -> int:
    totals = report["totals"]
    if totals["fail"] > 0:
        return 1
    if totals["unknown"] > 0:
        return 2
    return 0


def tool_block() -> dict:
    return {"name": "cfv", "version": cfv.__version__}
