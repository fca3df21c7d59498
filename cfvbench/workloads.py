"""The three workloads: their inputs, their jobs and how each job is run.

A job calls one public entry point the way the CLI does: `run_pipeline` for
`cfv analyze`, `check_equivalence` for `cfv equiv` and `verify_test` for
`cfv verify`. Entry points are looked up on their modules at call time, so
the tracer's wrappers see the benchmark's own calls too. Every job keeps the
tool's defaults except width, loop bound and per-check limit.

Why each workload exists:

* corpus - the bundled fixtures as CI runs them. The vec_insert miter is
  SAT, so the solver searches for a witness and its least model.
* proofs - UNSAT-dominated queries, where DPLL without learning is
  exponential; the width-32 item is undecided under its short limit today.
* scale - many modules and almost no solving: the control for solver
  changes and the target for frontend, changeset and scheduling changes.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from cfv import equivalence, harness, pipeline, snapshot, verify
from cfv.report import render_report, result_json, strip_timings, verdict_json
from cfv.ssa import UnrollConfig

import known
import scale

DEFAULT_BOUND = 8
DEFAULT_LIMIT_S = 60.0  # `--timeout` default of the CLI
DEFAULT_BUDGET_S = 300.0  # `--budget` default of `cfv analyze`


@dataclass(frozen=True)
class Settings:
    width: int
    bound: int = DEFAULT_BOUND
    limit_s: float = DEFAULT_LIMIT_S

    def unroll(self) -> UnrollConfig:
        return UnrollConfig(loop_bound=self.bound, timeout_s=self.limit_s, width=self.width)


@dataclass
class Outcome:
    """What one job produced in one pass."""

    items: list[known.Item]
    fingerprint: str  # stripped report or verdict, for the determinism check
    problems: list[str]


@dataclass(frozen=True)
class PipelineJob:
    """`cfv analyze --old OLD --new NEW --tests TESTS --out OUT`."""

    name: str
    old: str
    new: str
    tests: str
    settings: Settings
    answers: known.KnownAnswers
    budget_s: float = DEFAULT_BUDGET_S

    def run(self, inputs: Path, out_dir: Path):
        cfg = pipeline.RunConfig(
            old_dir=str(inputs / self.old),
            new_dir=str(inputs / self.new),
            tests_dir=str(inputs / self.tests),
            out_path=str(out_dir / f"{self.name}.json"),
            budget_s=self.budget_s,
            unroll=self.settings.unroll(),
        )
        pipeline.run_pipeline(cfg)
        return cfg.out_path

    def check(self, out_path: str, wall_s: float) -> Outcome:
        report = json.loads(Path(out_path).read_text(encoding="utf-8"))
        items, problems = known.check_report(report, self.answers, self.settings.limit_s)
        items = [replace(i, name=f"{self.name}:{i.name}") for i in items]
        return Outcome(items, render_report(strip_timings(report)), problems)

    def config(self) -> dict:
        return {"entry": "run_pipeline", "budget_s": self.budget_s, **vars(self.settings)}

    @property
    def expected_items(self) -> int:
        return max(len(self.answers.modified) + len(self.answers.selected), 1)


@dataclass(frozen=True)
class EquivJob:
    """`cfv equiv OLD NEW FUNCTION`."""

    name: str
    old: str
    new: str
    function: str
    settings: Settings
    expected: tuple[str, str | None]

    def run(self, inputs: Path, out_dir: Path):
        sides = []
        for rel in (self.old, self.new):
            path = inputs / rel
            sides.append(snapshot.snapshot_from_sources(
                {path.name: path.read_text(encoding="utf-8")}, path.name, self.settings.width
            ))
        old, new = sides
        return equivalence.check_equivalence(
            old.functions[self.function], new.functions[self.function],
            (old, new), self.settings.unroll(),
        )

    def check(self, verdict, wall_s: float) -> Outcome:
        return _one_item(self, verdict_json(verdict, self.settings.width), wall_s)

    def config(self) -> dict:
        return {"entry": "check_equivalence", "budget_s": None, **vars(self.settings)}

    expected_items = 1


@dataclass(frozen=True)
class VerifyJob:
    """`cfv verify --src SRC --tests TESTS`, restricted to one test."""

    name: str
    src: str
    tests: str
    test: str
    settings: Settings
    expected: tuple[str, None]

    def run(self, inputs: Path, out_dir: Path):
        snap = snapshot.load_snapshot(inputs / self.src, self.settings.width)
        tests, view = harness.load_tests(inputs / self.tests, snap)
        (case,) = [t for t in tests if t.name == self.test]
        gt = harness.GeneralizedTest(case.name, case.body, [], manual=False)
        return verify.verify_test(gt, view, self.settings.unroll())

    def check(self, result, wall_s: float) -> Outcome:
        return _one_item(self, result_json(result, self.settings.width), wall_s)

    def config(self) -> dict:
        return {"entry": "verify_test", "budget_s": None, **vars(self.settings)}

    expected_items = 1


def _one_item(job, doc: dict, wall_s: float) -> Outcome:
    """Outcome of a job that checks one item and reports one verdict doc."""
    ok = known.verdict_matches(doc["kind"], doc.get("mode"), job.expected)
    item = known.Item(job.name, doc["kind"], doc.get("reason"), wall_s, job.settings.limit_s, not ok)
    return Outcome([item], json.dumps(doc, sort_keys=True), [])


def _copy(root: Path, dest: Path, pairs: list[tuple[str, str]]) -> None:
    for src, rel in pairs:
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / src, target)


def _copy_tree(root: Path, dest: Path, src_dir: str, rel_dir: str) -> list[tuple[str, str]]:
    base = root / src_dir
    return [
        (str(p.relative_to(root)), f"{rel_dir}/{p.relative_to(base)}")
        for p in sorted(base.rglob("*.c"))
    ]


def prepare_corpus(root: Path, dest: Path, seed: int) -> list:
    pairs = []
    for fixture, rel in (
        ("corpus/minivec", "minivec"),
        ("corpus/scenarios/rename", "rename"),
        ("corpus/scenarios/negindex", "negindex"),
    ):
        pairs += _copy_tree(root, dest, fixture, rel)
    _copy(root, dest, pairs)
    jobs = [
        PipelineJob("minivec", "minivec/old", "minivec/new", "minivec/tests",
                    Settings(width=32), known.MINIVEC),
        PipelineJob("rename", "rename/old", "rename/new", "rename/tests",
                    Settings(width=32), known.RENAME),
        # Width 8 keeps this witness search well under a second.
        PipelineJob("negindex", "negindex/old", "negindex/new", "negindex/tests",
                    Settings(width=8), known.NEGINDEX),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


# Short enough that plain DPLL gives up on the width-32 proof; ROADMAP
# direction 1 reports a learning solver deciding it in about 1.2 s.
PROOF_LIMIT_S = 2.0


def prepare_proofs(root: Path, dest: Path, seed: int) -> list:
    _copy(root, dest, [
        ("corpus/scenarios/timeout/old/mul.c", "timeout/old/mul.c"),
        ("corpus/scenarios/timeout/new/mul.c", "timeout/new/mul.c"),
        ("corpus/minivec/old/vec.c", "minivec_old/vec.c"),
        # Only the insert tests: the rest of the suite calls the new names.
        ("corpus/minivec/tests/insert_tests.c", "insert_tests/insert_tests.c"),
    ])
    jobs = [
        # (a + 1) * b == a * b + b: a formal proof, no witness to find.
        EquivJob("mulv_w8", "timeout/old/mul.c", "timeout/new/mul.c", "mulv",
                 Settings(width=8), ("equivalent", "formal")),
        # Criterion 6 on the correct snapshot: the generalized test passes.
        VerifyJob("insert_general_w8", "minivec_old", "insert_tests",
                  "test_insert_general", Settings(width=8), ("pass", None)),
        VerifyJob("insert_general_w32", "minivec_old", "insert_tests",
                  "test_insert_general", Settings(width=32, limit_s=PROOF_LIMIT_S), ("pass", None)),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def prepare_scale(root: Path, dest: Path, seed: int) -> list:
    files, answers = scale.generate(seed)
    scale.write_corpus(dest, files)
    return [PipelineJob("scale", "old", "new", "tests",
                        Settings(width=scale.EXPECTED_WIDTH), answers)]


WORKLOADS = {
    "corpus": prepare_corpus,
    "proofs": prepare_proofs,
    "scale": prepare_scale,
}


@dataclass
class PassResult:
    """Wall time of one pass over every job, and what the jobs produced."""

    wall_s: float
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end; set by the caller
    host_scale: float = 1.0  # see calibrate.HostSpeed; set by the caller
    items: list[known.Item] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_pass(jobs: list, inputs: Path, out_dir: Path) -> PassResult:
    """Run every job once; answers are checked after the clock stops."""
    gc.collect()
    raws = []
    t0 = time.perf_counter()
    for job in jobs:
        t_job = time.perf_counter()
        try:
            raw = job.run(inputs, out_dir)
        except Exception as err:  # a raising job is a failed item, not a crash
            raw = err
        raws.append((raw, time.perf_counter() - t_job))
    result = PassResult(time.perf_counter() - t0)

    for job, (raw, wall) in zip(jobs, raws):
        if isinstance(raw, Exception):
            text = "".join(traceback.format_exception(raw))
            print(f"cfvbench: job {job.name} raised\n{text}", file=sys.stderr)
            failed = known.Item(job.name, "raised", None, wall, job.settings.limit_s, True)
            result.items += [failed] * job.expected_items
            result.problems.append(f"{job.name}: raised {type(raw).__name__}")
            result.fingerprints[job.name] = "raised"
            continue
        outcome = job.check(raw, wall)
        result.items += outcome.items
        result.fingerprints[job.name] = outcome.fingerprint
        result.problems += [f"{job.name}: {p}" for p in outcome.problems]
    return result
