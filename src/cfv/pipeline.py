"""End-to-end orchestration under a wall-clock budget.

The run proceeds change classification -> equivalence checks on modified
pairs -> test selection over the call graph -> generalization ->
verification, and assembles the report. Renamed and unchanged functions
never reach a solver.

Each phase is one loop over its items, and one rule dispatches every item:
the time its phase has left is read when the item starts. With less than
MIN_ITEM_S left the item is recorded as Unknown(timeout) without being run
and the report is flagged budget_exceeded; otherwise it runs with the
smaller of the per-check timeout and the time left. The equivalence phase
ends at half the budget; verification ends with the budget, so it also gets
what equivalence left unused.

Exit codes: 0 all green, 1 at least one failing test, 2 no failure but at
least one Unknown anywhere, 3 configuration or input errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from cfv.changes import compute_changeset
from cfv.equivalence import Equivalent, check_equivalence
from cfv.errors import ConfigError
from cfv.harness import build_call_graph, generalize, load_tests, select_tests
from cfv.minic.printer import format_function
from cfv.report import SCHEMA_VERSION, result_json, tool_block, verdict_json, write_report
from cfv.smtlib import ExternalSolver
from cfv.snapshot import load_snapshot, load_snapshot_from_diff
from cfv.solver import SolverStats, Unknown, make_solve_fn
from cfv.ssa import UnrollConfig
from cfv.verify import Fail, concretize, verify_test

EQUIVALENCE_BUDGET_FRACTION = 0.5
# An item is started only with at least this much of its phase left.
MIN_ITEM_S = 0.05


@dataclass
class RunConfig:
    old_dir: str
    new_dir: str | None
    tests_dir: str
    out_path: str | None = None
    budget_s: float = 300.0
    unroll: UnrollConfig = field(default_factory=UnrollConfig)
    backend: str = "internal"
    diff_path: str | None = None  # apply to old_dir instead of reading new_dir

    def __post_init__(self) -> None:
        if not self.budget_s > 0:  # NaN included
            raise ConfigError("budget must be positive")
        if self.new_dir is None and self.diff_path is None:
            raise ConfigError("either a new directory or a diff is required")


def _make_backend(spec: str):
    if spec == "internal":
        return make_solve_fn(None)
    if spec.startswith("external:"):
        return make_solve_fn(ExternalSolver(spec[len("external:") :]))
    raise ConfigError(f"unknown backend {spec!r}")


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the whole flow and return the report dictionary."""
    t_start = time.monotonic()
    solve_fn = _make_backend(cfg.backend)
    width = cfg.unroll.width

    old_snap = load_snapshot(cfg.old_dir, width, label=None)
    if cfg.diff_path is not None:
        new_snap = load_snapshot_from_diff(cfg.old_dir, cfg.diff_path, width)
    else:
        new_snap = load_snapshot(cfg.new_dir, width)
    tests, view = load_tests(cfg.tests_dir, new_snap)

    changeset = compute_changeset(old_snap, new_snap)
    budget_exceeded = False
    stats = SolverStats()

    def run_item(deadline: float, check) -> tuple[object, int, float]:
        """(result, solver calls, wall seconds) of check(unroll, stats),
        limited to what is left before deadline when the item starts."""
        nonlocal budget_exceeded
        remaining = deadline - time.monotonic()
        if remaining < MIN_ITEM_S:
            budget_exceeded = True
            return Unknown("timeout"), 0, 0.0
        item_stats = SolverStats()
        t0 = time.monotonic()
        result = check(
            replace(cfg.unroll, timeout_s=min(cfg.unroll.timeout_s, remaining)),
            item_stats,
        )
        wall = time.monotonic() - t0
        stats.merge(item_stats)
        return result, item_stats.solver_calls, wall

    # -- equivalence phase -------------------------------------------------
    eq_deadline = t_start + cfg.budget_s * EQUIVALENCE_BUDGET_FRACTION
    eq_entries: list[dict] = []
    verdicts: dict[str, object] = {}
    t_eq0 = time.monotonic()
    # Renamed pairs were classified by the structural stage inside the
    # changeset and issue no check.
    pairs = [(old_name, new_name, None) for old_name, new_name in changeset.renamed]
    pairs += [
        (fn_new.name, fn_new.name, (fn_old, fn_new))
        for fn_old, fn_new in sorted(changeset.modified, key=lambda p: p[1].name)
    ]
    for old_name, new_name, modified in pairs:
        if modified is None:
            verdict, calls, wall = Equivalent("structural", 0, True), 0, 0.0
        else:
            verdict, calls, wall = run_item(
                eq_deadline,
                lambda unroll, item_stats: check_equivalence(
                    *modified, (old_snap, new_snap), unroll, item_stats, solve_fn
                ),
            )
        verdicts[new_name] = verdict
        eq_entries.append(
            {
                "function": new_name,
                "old_name": old_name,
                "new_name": new_name,
                "verdict": verdict_json(verdict, width),
                "solver_calls": calls,
                "timings": {"wall_s": round(wall, 6)},
            }
        )
    eq_entries.sort(key=lambda e: e["function"])
    t_eq = time.monotonic() - t_eq0

    # -- selection ----------------------------------------------------------
    triggers = {
        name for name, v in verdicts.items() if not isinstance(v, Equivalent)
    } | set(changeset.added)
    cg = build_call_graph(view, tests)
    selected = select_tests(tests, triggers, cg) if triggers else []
    selection_entries = [
        {
            "test": t.name,
            "section": t.section,
            "triggers": sorted(cg.reachable(t.name) & triggers),
        }
        for t in selected
    ]

    # -- verification phase ---------------------------------------------------
    total_deadline = t_start + cfg.budget_s
    verification_entries = []
    t_v0 = time.monotonic()
    for t in selected:
        gt = generalize(t, triggers)
        result, _, wall = run_item(
            total_deadline,
            lambda unroll, item_stats: verify_test(
                gt, view, unroll, item_stats, solve_fn=solve_fn
            ),
        )
        concretized = None
        if isinstance(result, Fail):
            conc = concretize(gt, result.counterexample, width)
            concretized = format_function(conc.body)
        verification_entries.append(
            {
                "test": t.name,
                "generalization": {
                    "mode": gt.mode,
                    "substitutions": len(gt.substitutions),
                },
                "result": result_json(result, width, concretized),
                "timings": {"wall_s": round(wall, 6)},
            }
        )
    verification_entries.sort(key=lambda e: e["test"])
    t_v = time.monotonic() - t_v0

    # -- totals ------------------------------------------------------------------
    eq_kinds = [e["verdict"]["kind"] for e in eq_entries]
    v_kinds = [e["result"]["kind"] for e in verification_entries]
    totals = {
        "equivalent": eq_kinds.count("equivalent"),
        "not_equivalent": eq_kinds.count("not_equivalent"),
        "unknown": eq_kinds.count("unknown") + v_kinds.count("unknown"),
        "pass": v_kinds.count("pass"),
        "fail": v_kinds.count("fail"),
        "solver_calls": stats.solver_calls,
    }

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": tool_block(),
        "snapshots": {"old": old_snap.label, "new": new_snap.label},
        "config": {
            "width": width,
            "loop_bound": cfg.unroll.loop_bound,
            "inline_depth": cfg.unroll.depth,
            "pair_timeout_s": cfg.unroll.timeout_s,
            "budget_s": cfg.budget_s,
            "backend": cfg.backend,
        },
        "changes": {
            "counts": {
                "added": len(changeset.added),
                "removed": len(changeset.removed),
                "modified": len(changeset.modified),
                "renamed": len(changeset.renamed),
                "unchanged": len(changeset.unchanged),
            },
            "added": list(changeset.added),
            "removed": list(changeset.removed),
            "modified": sorted(changeset.modified_names),
            "renamed": [
                {"old": old, "new": new} for old, new in changeset.renamed
            ],
            "unchanged": sorted(changeset.unchanged),
            "state_affected": sorted(changeset.state_affected),
        },
        "equivalence": eq_entries,
        "selection": {
            "triggers": sorted(triggers),
            "selected": selection_entries,
        },
        "verification": verification_entries,
        "totals": totals,
        "budget": {"budget_s": cfg.budget_s, "exceeded": budget_exceeded},
        "timings": {
            "total_wall_s": round(time.monotonic() - t_start, 6),
            "equivalence_wall_s": round(t_eq, 6),
            "verification_wall_s": round(t_v, 6),
        },
    }

    if cfg.out_path is not None:
        write_report(report, cfg.out_path)
    return report

