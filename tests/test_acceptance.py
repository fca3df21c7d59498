"""Acceptance campaign: the ten exit criteria, one test each.

Each test prints a `criterion N: PASS` line (visible with pytest -s or -v)
after its assertions hold at the stated tolerance. Oracles are brute force
only: exhaustive input enumeration through the reference interpreter and
the enumerating solver, never the code path under judgment.

Run: pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time

import pytest

from cfv.equivalence import (
    Equivalent,
    NotEquivalent,
    Unknown,
    check_equivalence,
    observables_differ,
    replay,
)
from cfv.generators import RandomTestGen, fixture_snapshot, random_formula, random_pair
from cfv.harness import GeneralizedTest, load_tests
from cfv.interp import AssertFailResult, PassResult, interpret_concrete
from cfv.minic.metrics import cyclomatic_complexity
from cfv.pipeline import RunConfig, run_pipeline
from cfv.report import exit_code, render_report, strip_timings
from cfv.snapshot import load_snapshot, snapshot_from_sources
from cfv.solver import Sat, Unsat, check_model, exhaustive_solve, sat_solve
from cfv.ssa import UnrollConfig
from cfv.terms import to_signed
from cfv.verify import Fail, Pass, concretize, verify_test

from oracles import CORPUS, functions_equivalent_bruteforce, first_difference

MINIVEC = CORPUS / "minivec"
SCENARIOS = CORPUS / "scenarios"


def ok(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def minivec_runs(tmp_path_factory):
    """Two full default-settings pipeline runs over the bundled corpus."""
    out_dir = tmp_path_factory.mktemp("reports")
    runs = []
    for i in range(2):
        cfg = RunConfig(
            old_dir=str(MINIVEC / "old"),
            new_dir=str(MINIVEC / "new"),
            tests_dir=str(MINIVEC / "tests"),
            out_path=str(out_dir / f"report{i}.json"),
        )
        t0 = time.monotonic()
        report = run_pipeline(cfg)
        runs.append((report, time.monotonic() - t0, out_dir / f"report{i}.json"))
    return runs


def test_criterion_1_rename_scenario(tmp_path):
    t0 = time.monotonic()
    report = run_pipeline(
        RunConfig(
            old_dir=str(SCENARIOS / "rename" / "old"),
            new_dir=str(SCENARIOS / "rename" / "new"),
            tests_dir=str(SCENARIOS / "rename" / "tests"),
            out_path=str(tmp_path / "rename.json"),
        )
    )
    wall = time.monotonic() - t0
    assert report["changes"]["renamed"] == [
        {"old": "absolute_index", "new": "normalize_index"}
    ]
    assert report["changes"]["modified"] == []
    (entry,) = report["equivalence"]
    assert entry["verdict"]["kind"] == "equivalent"
    assert entry["verdict"]["mode"] == "structural"
    assert report["totals"]["solver_calls"] == 0
    assert report["selection"]["selected"] == []
    assert exit_code(report) == 0
    assert wall < 1.0, f"rename scenario took {wall:.2f}s"
    ok(1, f"rename classified structurally, 0 solver calls, 0 tests, {wall:.2f}s")


def test_criterion_2_negative_index_behavior_change():
    width = 4
    old = load_snapshot(SCENARIOS / "negindex" / "old", width)
    new = load_snapshot(SCENARIOS / "negindex" / "new", width)
    cfg = UnrollConfig(loop_bound=4, timeout_s=30, width=width)
    verdict = check_equivalence(
        old.functions["get_at"], new.functions["get_at"], (old, new), cfg
    )
    assert isinstance(verdict, NotEquivalent) and verdict.reason == "behavior"
    idx = to_signed(verdict.witness.params[0], width)
    assert idx < 0, f"witness index {idx} is not negative"

    assert observables_differ(verdict.old_observables, verdict.new_observables)
    assert verdict.old_observables.ok and verdict.new_observables.ok
    assert verdict.old_observables.ret != verdict.new_observables.ret

    equal, _ = functions_equivalent_bruteforce(old, new, "get_at", width)
    assert not equal, "exhaustive enumeration says the versions are equivalent"
    diff = first_difference(old, new, "get_at", width)
    assert diff is not None
    ok(2, f"witness idx={idx} replays; exhaustive width-4 enumeration confirms")


def test_criterion_3_equivalence_oracle_agreement():
    t0 = time.monotonic()
    cfg = UnrollConfig(loop_bound=4, timeout_s=30, width=4)
    pairs = 500
    mismatches = []
    for seed in range(pairs):
        rng = random.Random(seed)
        old, new = random_pair(rng, width=4, with_global=seed % 4 == 0)
        verdict = check_equivalence(
            old.functions["f"], new.functions["f"], (old, new), cfg
        )
        equal, all_terminated = functions_equivalent_bruteforce(old, new, "f", 4)
        assert all_terminated, f"seed {seed}: generator produced nontermination"
        if isinstance(verdict, Equivalent):
            agreed = equal
        elif isinstance(verdict, NotEquivalent):
            agreed = not equal
        else:
            agreed = False
        if not agreed:
            mismatches.append((seed, verdict, equal))
    wall = time.monotonic() - t0
    assert not mismatches, f"disagreements: {mismatches[:5]}"
    assert wall < 600, f"took {wall:.1f}s, budget 600s"
    ok(3, f"{pairs} pairs, 100% verdict agreement with brute force in {wall:.1f}s")


def test_criterion_4_solver_soundness():
    t0 = time.monotonic()
    count = 1000
    for seed in range(count):
        rng = random.Random(10_000 + seed)
        f = random_formula(rng, width=4, max_inputs=3, depth=rng.randint(2, 4))
        assert f.input_bits <= 12
        fast = sat_solve(f, timeout_s=60)
        slow = exhaustive_solve(f)
        assert type(fast) is type(slow), f"seed {seed}: {fast} vs {slow}"
        if isinstance(fast, Sat):
            assert fast.model == slow.model, f"seed {seed}: model order differs"
            assert check_model(f, fast.model), f"seed {seed}: model does not evaluate true"
    wall = time.monotonic() - t0
    ok(4, f"{count} formulas, bit-blast/SAT == exhaustive, all models sound, {wall:.1f}s")


def test_criterion_5_encoder_interpreter_agreement():
    view = fixture_snapshot(4)
    cfg = UnrollConfig(loop_bound=4, timeout_s=30, width=4)
    count = 100
    for seed in range(count):
        rng = random.Random(20_000 + seed)
        t, src = RandomTestGen(rng, 4).test_case()
        gt = GeneralizedTest(t.name, t.body, [], manual=False)
        static = verify_test(gt, view, cfg)
        dynamic = interpret_concrete(t.body, view)
        if isinstance(static, Pass):
            assert isinstance(dynamic, PassResult), f"seed {seed}:\n{src}"
        elif isinstance(static, Fail):
            assert isinstance(dynamic, AssertFailResult), f"seed {seed}:\n{src}"
            assert static.counterexample.failing_assert == dynamic.span
        else:
            pytest.fail(f"seed {seed}: unexpected verdict {static}")
    ok(5, f"{count} nondet-free tests, verify_test == interpret_concrete")


def test_criterion_6_generalization_catches_masked_bug(tmp_path):
    width = 32
    buggy = load_snapshot(MINIVEC / "new", width)
    correct = load_snapshot(MINIVEC / "old", width)
    cfg = UnrollConfig(timeout_s=60, width=width)

    tests_buggy, view_buggy = load_tests(MINIVEC / "tests", buggy)
    by_name = {t.name: t for t in tests_buggy}
    concrete = by_name["test_insert"]
    generalized = by_name["test_insert_general"]

    # The concrete test is masked: it passes on the buggy snapshot, both
    # dynamically and under the bounded encoding.
    assert isinstance(interpret_concrete(concrete.body, view_buggy), PassResult)
    gt_concrete = GeneralizedTest(concrete.name, concrete.body, [], manual=False)
    assert isinstance(verify_test(gt_concrete, view_buggy, cfg), Pass)

    # The generalized test fails on the buggy snapshot ...
    gt = GeneralizedTest(generalized.name, generalized.body, [], manual=True)
    result = verify_test(gt, view_buggy, cfg)
    assert isinstance(result, Fail)

    # ... and its counterexample concretizes to a plain failing test.
    conc = concretize(gt, result.counterexample, width)
    replay_result = interpret_concrete(conc.body, view_buggy)
    assert isinstance(replay_result, AssertFailResult)
    assert replay_result.span == result.counterexample.failing_assert

    # On the correct snapshot the same generalized test passes, so the
    # failure is the injected bug, not over-generalization. Only the insert
    # tests load here: the rest of the suite tracks the new snapshot's names.
    old_view_dir = tmp_path / "insert_only"
    old_view_dir.mkdir()
    (old_view_dir / "insert_tests.c").write_text(
        (MINIVEC / "tests" / "insert_tests.c").read_text()
    )
    _, view_ok = load_tests(old_view_dir, correct)
    assert isinstance(verify_test(gt, view_ok, cfg), Pass)
    ok(6, "concrete test masks the off-by-one; generalized test finds and replays it")


def test_criterion_7_timeout_policy(tmp_path):
    report = run_pipeline(
        RunConfig(
            old_dir=str(SCENARIOS / "timeout" / "old"),
            new_dir=str(SCENARIOS / "timeout" / "new"),
            tests_dir=str(SCENARIOS / "timeout" / "tests"),
            out_path=str(tmp_path / "timeout.json"),
            unroll=UnrollConfig(timeout_s=1.0, width=32),
        )
    )
    (entry,) = [e for e in report["equivalence"] if e["function"] == "mulv"]
    assert entry["verdict"] == {"kind": "unknown", "reason": "timeout"}
    assert [s["test"] for s in report["selection"]["selected"]] == ["test_mulv"]
    (ver,) = report["verification"]
    assert ver["result"]["kind"] == "pass"  # the pipeline proceeded past the timeout
    assert exit_code(report) == 2
    ok(7, "1s timeout yields unknown; reaching tests selected; pipeline proceeds")


def test_criterion_8_budget(minivec_runs):
    report, wall, _ = minivec_runs[0]
    assert wall < 300, f"pipeline took {wall:.1f}s, budget 300s"
    assert report["budget"]["exceeded"] is False
    assert exit_code(report) == 1
    counts = report["changes"]["counts"]
    assert counts["unchanged"] >= 10 and len(report["selection"]["selected"]) >= 1
    eq_kinds = [e["verdict"]["kind"] for e in report["equivalence"]]
    assert eq_kinds.count("not_equivalent") == 1
    assert report["totals"]["fail"] == 1
    ok(8, f"bundled corpus pipeline finished in {wall:.1f}s with exit code 1")


# Hand-counted decision points over corpus/minivec/old/vec.c: 1 per function
# plus one per if, while (a for counts once) and boolean connective.
MINIVEC_COMPLEXITY = {
    "vec_init": 2,
    "vec_len": 1,
    "vec_full": 1,
    "vec_empty": 1,
    "maxi": 2,
    "mini": 2,
    "clampi": 1,
    "abs_index": 2,
    "vec_get": 3,
    "vec_set": 3,
    "vec_push": 2,
    "vec_pop": 2,
    "vec_insert": 5,
    "vec_remove": 4,
    "vec_find": 3,
    "vec_sum": 2,
    "vec_count": 3,
}


def test_criterion_9_cyclomatic_complexity():
    straight = snapshot_from_sources(
        {"s.c": "int f(int x){return x + 1;}"}, "s", 8
    )
    assert cyclomatic_complexity(straight.functions["f"]) == 1

    combo = snapshot_from_sources(
        {
            "s.c": "int f(int x){if (x > 0 && x < 9) { while (x > 1) { x = x - 1; } } return x;}"
        },
        "s",
        8,
    )
    assert cyclomatic_complexity(combo.functions["f"]) == 4

    snap = load_snapshot(MINIVEC / "old", 32)
    measured = {
        name: cyclomatic_complexity(fn) for name, fn in snap.functions.items()
    }
    assert measured == MINIVEC_COMPLEXITY
    ok(9, f"declared counting rule holds; corpus fixtures match ({sum(measured.values())} total)")


def test_criterion_10_determinism(minivec_runs):
    (r1, _, path1), (r2, _, path2) = minivec_runs
    text1 = render_report(strip_timings(json.loads(path1.read_text())))
    text2 = render_report(strip_timings(json.loads(path2.read_text())))
    assert text1.encode() == text2.encode()
    assert path1.read_text() != "", "report files exist and are non-empty"
    ok(10, "two runs byte-identical outside the timings subtrees")
