"""Outside-in tracing: spans around each layer's public functions.

The tracer replaces a function at every module attribute through which the
program (or the benchmark) calls it, so cfv itself is not modified. Spans
are kept in memory, aggregated into per-layer self times and counters, and
written out once the run ends. A site that no longer exists raises
TraceSiteMissing instead of silently dropping a layer.

Counters are taken from arguments and return values inside `untimed()`, so
their cost is kept out of every enclosing span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from cfv.terms import postorder


class TraceSiteMissing(RuntimeError):
    pass


def _count_parse(c, args, kwargs, result):
    c["minic.source_bytes"] += len(args[0].encode("utf-8"))


def _count_changeset(c, args, kwargs, result):
    c["changes.modified"] += len(result.modified)
    c["changes.renamed"] += len(result.renamed)
    c["changes.unchanged"] += len(result.unchanged)


def _count_load_tests(c, args, kwargs, result):
    c["harness.tests_total"] += len(result[0])


def _count_select(c, args, kwargs, result):
    c["harness.tests_selected"] += len(result)


def _count_solver(c, args, kwargs, result):
    formula = args[0] if args else kwargs["formula"]
    c["solver.calls"] += 1
    c["solver.const_skips"] += formula.root.is_const
    c["terms.dag_nodes"] += len(postorder(formula.root))


def _count_blast(c, args, kwargs, result):
    c["bitblast.cnf_vars"] += result.num_vars
    c["bitblast.cnf_clauses"] += len(result.clauses)


_DPLL_STATUS = {"sat": "dpll.sat", "unsat": "dpll.unsat", "timeout": "dpll.timeouts"}


def _count_dpll(c, args, kwargs, result):
    c["dpll.calls"] += 1
    c[_DPLL_STATUS[result.status]] += 1


def _count_replay(c, args, kwargs, result):
    c["interp.replays"] += 1


# (module, attribute, layer, counter). Each function is wrapped at every
# module whose namespace a caller resolves it from.
SITES = (
    ("cfv.pipeline", "run_pipeline", "pipeline", None),
    ("cfv.pipeline", "load_snapshot", "snapshot.load", None),
    ("cfv.snapshot", "load_snapshot", "snapshot.load", None),
    ("cfv.snapshot", "snapshot_from_sources", "snapshot.load", None),
    ("cfv.snapshot", "parse_unit", "minic.parse", _count_parse),
    ("cfv.harness", "parse_unit", "minic.parse", _count_parse),
    ("cfv.snapshot", "type_check", "minic.typecheck", None),
    ("cfv.harness", "type_check", "minic.typecheck", None),
    ("cfv.pipeline", "compute_changeset", "changes.changeset", _count_changeset),
    ("cfv.pipeline", "load_tests", "harness.load_tests", _count_load_tests),
    ("cfv.harness", "load_tests", "harness.load_tests", _count_load_tests),
    ("cfv.pipeline", "build_call_graph", "harness.select", None),
    ("cfv.pipeline", "select_tests", "harness.select", _count_select),
    ("cfv.pipeline", "generalize", "harness.generalize", None),
    ("cfv.pipeline", "check_equivalence", "equivalence.check", None),
    ("cfv.equivalence", "check_equivalence", "equivalence.check", None),
    ("cfv.equivalence", "build_miter", "equivalence.miter", None),
    ("cfv.equivalence", "encode_ssa", "ssa.encode", None),
    ("cfv.verify", "encode_ssa", "ssa.encode", None),
    ("cfv.solver", "sat_solve", "solver", _count_solver),
    ("cfv.equivalence", "sat_solve", "solver", _count_solver),
    ("cfv.verify", "sat_solve", "solver", _count_solver),
    ("cfv.solver", "bitblast", "bitblast.blast", _count_blast),
    ("cfv.solver", "solve_cnf", "dpll.solve", _count_dpll),
    ("cfv.equivalence", "run_function", "interp.replay", _count_replay),
    ("cfv.verify", "run_function", "interp.replay", _count_replay),
    ("cfv.pipeline", "verify_test", "verify.verify", None),
    ("cfv.verify", "verify_test", "verify.verify", None),
    ("cfv.pipeline", "concretize", "verify.concretize", None),
    ("cfv.pipeline", "write_report", "report.write", None),
)

SOLVE_LAYER = "dpll.solve"
CHECK_LAYER = "equivalence.check"


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    site: str
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    child_s: float = 0.0
    solved: bool = False  # a dpll.solve span ran inside this one

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PassTrace:
    """Self time per layer, counters, and the finished spans of one pass."""

    self_s: dict[str, float] = field(default_factory=dict)
    counters: defaultdict[str, float] = field(default_factory=lambda: defaultdict(int))
    spans: list[Span] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self.current = PassTrace()

    def begin_pass(self) -> None:
        self.current = PassTrace()

    @contextmanager
    def untimed(self):
        """Run bookkeeping without charging it to any open span."""
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            dc = time.process_time() - c0
            for span in self._stack:
                span.start += dt
                span.cpu_start += dc

    def _open(self, layer: str, site: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, layer, site, time.perf_counter(), time.process_time())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span stack out of order")
        if span.layer == SOLVE_LAYER:
            for open_span in self._stack:
                open_span.solved = True
        if self._stack:
            self._stack[-1].child_s += span.duration
        trace = self.current
        trace.self_s[span.layer] = trace.self_s.get(span.layer, 0.0) + span.duration - span.child_s
        trace.spans.append(span)

    def _wrap(self, fn, layer: str, site: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(layer, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                with tracer.untimed():
                    counter(tracer.current.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", site)
        return traced

    def install(self) -> None:
        """Wrap every site; raise TraceSiteMissing if any has gone away."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        missing = []
        targets = []
        for module_name, attr, layer, counter in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            targets.append((module, attr, fn, layer, counter))
        if missing:
            raise TraceSiteMissing(
                "traced entry points no longer exist: " + ", ".join(missing)
            )
        for module, attr, fn, layer, counter in targets:
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, f"{module.__name__}.{attr}", counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def finish_pass(self) -> PassTrace:
        """Derive the span-based counters of the pass just traced."""
        if self._stack:
            raise RuntimeError("pass ended with open spans")
        trace = self.current
        checks = [s for s in trace.spans if s.layer == CHECK_LAYER]
        trace.counters["equivalence.checks"] = len(checks)
        trace.counters["equivalence.solver_free_checks"] = sum(not s.solved for s in checks)
        trace.counters["pipeline.cpu_s"] = sum(
            s.cpu_end - s.cpu_start for s in trace.spans if s.layer == "pipeline"
        )
        return trace


def write_spans(path: Path, passes: list[PassTrace]) -> None:
    """One JSON object per span, tagged with its traced pass number."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, trace in enumerate(passes):
            for s in trace.spans:
                fh.write(json.dumps({
                    "pass": number, "id": s.id, "parent": s.parent,
                    "layer": s.layer, "site": s.site,
                    "start": s.start, "end": s.end,
                    "self_s": s.duration - s.child_s,
                }) + "\n")
