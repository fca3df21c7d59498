"""End-to-end orchestration under a wall-clock budget.

The run proceeds change classification -> equivalence checks on modified
pairs -> test selection over the call graph -> generalization ->
verification, and assembles the report. The equivalence phase may spend at
most half the budget (the rest, plus any surplus, goes to verification);
when a phase has less than MIN_ITEM_S left, remaining items are recorded as
Unknown(timeout) without being started and the report is flagged
budget_exceeded. Renamed and
unchanged functions never reach a solver.

Exit codes: 0 all green, 1 at least one failing test, 2 no failure but at
least one Unknown anywhere, 3 configuration or input errors.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from cfv.changes import ChangeSet, compute_changeset
from cfv.equivalence import Equivalent, Unknown, check_equivalence
from cfv.errors import ConfigError
from cfv.harness import (
    GeneralizedTest,
    TestCase,
    build_call_graph,
    generalize,
    load_tests,
    select_tests,
)
from cfv.minic.printer import format_function
from cfv.report import (
    SCHEMA_VERSION,
    exit_code,
    result_json,
    tool_block,
    verdict_json,
    write_report,
)
from cfv.smtlib import ExternalSolver
from cfv.snapshot import Snapshot, load_snapshot, load_snapshot_from_diff
from cfv.solver import SolverStats, make_solve_fn
from cfv.ssa import UnrollConfig
from cfv.verify import Fail, concretize
from cfv.verify import Unknown as VUnknown
from cfv.verify import verify_test

EQUIVALENCE_BUDGET_FRACTION = 0.5
MIN_TEST_TIMEOUT_S = 5.0
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
    parallelism: int = 1
    backend: str = "internal"
    diff_path: str | None = None  # apply to old_dir instead of reading new_dir

    def __post_init__(self) -> None:
        if self.budget_s <= 0:
            raise ConfigError("budget must be positive")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        if self.new_dir is None and self.diff_path is None:
            raise ConfigError("either a new directory or a diff is required")


def _make_backend(spec: str):
    if spec == "internal":
        return make_solve_fn(None)
    if spec.startswith("external:"):
        return make_solve_fn(ExternalSolver(spec[len("external:") :]))
    raise ConfigError(f"unknown backend {spec!r}")


def _run_items(items, worker, parallelism):
    """Run worker over (key, payload) pairs, results keyed; order preserved
    by the caller. Workers are independent; a bounded pool is enough."""
    if parallelism <= 1 or len(items) <= 1:
        return {key: worker(key, payload) for key, payload in items}
    results = {}
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = {key: pool.submit(worker, key, payload) for key, payload in items}
        for key, fut in futures.items():
            results[key] = fut.result()
    return results


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

    # -- equivalence phase -------------------------------------------------
    eq_deadline = t_start + cfg.budget_s * EQUIVALENCE_BUDGET_FRACTION
    eq_entries: list[dict] = []
    verdicts: dict[str, object] = {}
    t_eq0 = time.monotonic()

    for old_name, new_name in changeset.renamed:
        # Classified by the structural stage inside the changeset; no check
        # is issued for these.
        verdict = Equivalent("structural", 0, True)
        eq_entries.append(
            {
                "function": new_name,
                "old_name": old_name,
                "new_name": new_name,
                "verdict": verdict_json(verdict, width),
                "solver_calls": 0,
                "timings": {"wall_s": 0.0},
            }
        )

    pending: list[tuple[str, tuple]] = []
    skipped: list[str] = []
    for fn_old, fn_new in sorted(changeset.modified, key=lambda p: p[1].name):
        remaining = eq_deadline - time.monotonic()
        if remaining < MIN_ITEM_S:
            skipped.append(fn_new.name)
            continue
        pair_cfg = replace(cfg.unroll, timeout_s=min(cfg.unroll.timeout_s, remaining))
        pending.append((fn_new.name, (fn_old, fn_new, pair_cfg)))

    def eq_worker(name: str, payload):
        fn_old, fn_new, pair_cfg = payload
        pair_stats = SolverStats()
        t0 = time.monotonic()
        verdict = check_equivalence(
            fn_old, fn_new, (old_snap, new_snap), pair_cfg, pair_stats, solve_fn
        )
        return verdict, pair_stats, time.monotonic() - t0

    eq_results = _run_items(pending, eq_worker, cfg.parallelism)
    for name, _ in pending:
        verdict, pair_stats, wall = eq_results[name]
        stats.merge(pair_stats)
        verdicts[name] = verdict
        eq_entries.append(
            {
                "function": name,
                "old_name": name,
                "new_name": name,
                "verdict": verdict_json(verdict, width),
                "solver_calls": pair_stats.solver_calls,
                "timings": {"wall_s": round(wall, 6)},
            }
        )
    for name in skipped:
        budget_exceeded = True
        verdict = Unknown("timeout")
        verdicts[name] = verdict
        eq_entries.append(
            {
                "function": name,
                "old_name": name,
                "new_name": name,
                "verdict": verdict_json(verdict, width),
                "solver_calls": 0,
                "timings": {"wall_s": 0.0},
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
    t_v0 = time.monotonic()
    phase_remaining = max(total_deadline - t_v0, 0.0)
    per_test = (
        max(phase_remaining / len(selected), MIN_TEST_TIMEOUT_S) if selected else 0.0
    )

    v_pending: list[tuple[str, tuple]] = []
    v_skipped: list[tuple[str, GeneralizedTest]] = []
    generalized: dict[str, GeneralizedTest] = {}
    for t in selected:
        gt = generalize(t, triggers)
        generalized[t.name] = gt
        remaining = total_deadline - time.monotonic()
        if remaining < MIN_ITEM_S:
            v_skipped.append((t.name, gt))
            continue
        test_cfg = replace(cfg.unroll, timeout_s=min(per_test, remaining))
        v_pending.append((t.name, (gt, test_cfg)))

    def v_worker(name: str, payload):
        gt, test_cfg = payload
        test_stats = SolverStats()
        t0 = time.monotonic()
        result = verify_test(gt, view, test_cfg, test_stats, solve_fn=solve_fn)
        return result, test_stats, time.monotonic() - t0

    v_results = _run_items(v_pending, v_worker, cfg.parallelism)
    verification_entries = []
    result_by_name = {}
    for name, (gt, _test_cfg) in v_pending:
        result, test_stats, wall = v_results[name]
        stats.merge(test_stats)
        result_by_name[name] = result
        concretized = None
        if isinstance(result, Fail):
            conc = concretize(gt, result.counterexample, width)
            concretized = format_function(conc.body)
        verification_entries.append(
            {
                "test": name,
                "generalization": {
                    "mode": gt.mode,
                    "substitutions": len(gt.substitutions),
                },
                "result": result_json(result, width, concretized),
                "timings": {"wall_s": round(wall, 6)},
            }
        )
    for name, gt in v_skipped:
        budget_exceeded = True
        result = VUnknown("timeout")
        result_by_name[name] = result
        verification_entries.append(
            {
                "test": name,
                "generalization": {
                    "mode": gt.mode,
                    "substitutions": len(gt.substitutions),
                },
                "result": result_json(result, width),
                "timings": {"wall_s": 0.0},
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
            "parallelism": cfg.parallelism,
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


def report_exit_code(report: dict) -> int:
    return exit_code(report)
