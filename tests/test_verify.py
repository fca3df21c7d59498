import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cfv.cli import main
from cfv.harness import GeneralizedTest, load_tests
from cfv.interp import run_function
from cfv.minic import ast
from cfv.snapshot import load_snapshot, snapshot_from_sources
from cfv.solver import sat_solve
from cfv.ssa import UnrollConfig
from cfv.terms import TermBuilder, postorder, to_signed
from cfv.verify import Fail, Pass, Unknown, concretize, verify_test

from generators import RandomTestGen, fixture_snapshot
from oracles import CORPUS, AssertFailResult, PassResult, input_bits, interpret_concrete


W4 = UnrollConfig(loop_bound=4, timeout_s=20, width=4)


def as_generalized(src: str, snap_src: str = "", width: int = 4, tmp_path=None):
    sources = {"lib.c": snap_src} if snap_src else {"lib.c": "int unused_fn(){return 0;}"}
    snap = snapshot_from_sources(sources, "lib", width)
    (tmp_path / "t.c").write_text(src)
    tests, view = load_tests(tmp_path, snap)
    t = tests[0]
    return GeneralizedTest(t.name, t.body, [], manual=False), view


class TestVerify:
    def test_trivially_true_assert_passes_completely(self, tmp_path):
        gt, view = as_generalized("void test_a(){assert(true);}", tmp_path=tmp_path)
        result = verify_test(gt, view, W4)
        assert isinstance(result, Pass) and result.complete

    def test_nondet_equality_fails_with_least_witness(self, tmp_path):
        gt, view = as_generalized(
            "void test_a(){int x = nondet_int(); assert(x == 0);}", tmp_path=tmp_path
        )
        result = verify_test(gt, view, W4)
        assert isinstance(result, Fail)
        cx = result.counterexample
        assert list(cx.valuation.values()) == [1]  # first model after 0
        assert cx.failing_assert.line == 1

    def test_assume_prunes_the_failure(self, tmp_path):
        gt, view = as_generalized(
            "void test_a(){int x = nondet_int(); assume(x == 0); assert(x == 0);}",
            tmp_path=tmp_path,
        )
        assert isinstance(verify_test(gt, view, W4), Pass)

    def test_unbounded_loop_passes_incompletely(self, tmp_path):
        gt, view = as_generalized(
            """
void test_a(){
    int n = nondet_int();
    int i = 0;
    while (i < n) { i = i + 1; }
    assert(i >= 0);
}
""",
            tmp_path=tmp_path,
        )
        result = verify_test(gt, view, W4)
        assert isinstance(result, Pass) and not result.complete

    def test_timed_out_completeness_call_leaves_the_bound_incomplete(
        self, tmp_path, monkeypatch, second_call_past_deadline
    ):
        # The loop stops by itself within the bound, so the completeness
        # query is unsat; when it times out the test still passes, only
        # incompletely.
        gt, view = as_generalized(
            """
void test_a(){
    int n = nondet_int();
    int i = 0;
    while (i < n && i < 3) { i = i + 1; }
    assert(i <= 3);
}
""",
            tmp_path=tmp_path,
        )
        assert verify_test(gt, view, W4) == Pass(W4.loop_bound, True)
        solve, calls = second_call_past_deadline
        monkeypatch.setattr("cfv.verify.sat_solve", solve)
        result = verify_test(gt, view, W4)
        assert len(calls) == 2 and input_bits(calls[1]) <= 16
        assert result == Pass(W4.loop_bound, False)

    def test_bounds_violation_is_found(self, tmp_path):
        gt, view = as_generalized(
            "void test_a(){int x = nondet_int(); int v = buf[x]; assert(v == v);}",
            snap_src="int buf[2];",
            tmp_path=tmp_path,
        )
        result = verify_test(gt, view, W4)
        assert isinstance(result, Fail)
        (value,) = result.counterexample.valuation.values()
        assert not (0 <= to_signed(value, 4) < 2)

    def test_timeout_gives_unknown(self, tmp_path):
        gt, view = as_generalized(
            """
void test_a(){
    int a = nondet_int();
    int b = nondet_int();
    assert((a + 1) * b == a * b + b);
}
""",
            width=32,
            tmp_path=tmp_path,
        )
        result = verify_test(gt, view, UnrollConfig(timeout_s=1.0, width=32))
        assert isinstance(result, Unknown) and result.reason == "timeout"

    def test_a_large_global_array_starts_within_the_limit(self, tmp_path):
        # The test reads the array, so its initial state is built: one zero
        # repeated for the 128 elements an index can reach at width 8, with
        # no per-element work that could outlast the deadline.
        gt, view = as_generalized(
            "void test_a(){ assert(get(3) == 0); }",
            "int a[2000000]; int get(int i){ return a[i]; }",
            width=8,
            tmp_path=tmp_path,
        )
        cfg = UnrollConfig(timeout_s=0.05, width=8)
        t0 = time.monotonic()
        result = verify_test(gt, view, cfg)
        assert time.monotonic() - t0 <= cfg.timeout_s + 0.15
        assert result in (Pass(8, True), Unknown("timeout"))

    def test_writes_to_a_large_global_array_finish_within_the_limit(self, tmp_path):
        # A write updates the elements an index can reach, 128 at width 8,
        # not the two million the array declares.
        gt, view = as_generalized(
            "void test_a(){ fill(); assert(get(3) == 3); }",
            """
int a[2000000];
void fill(){ int i = 0; while (i < 8) { a[i] = i; i = i + 1; } }
int get(int i){ return a[i]; }
""",
            width=8,
            tmp_path=tmp_path,
        )
        assert verify_test(gt, view, UnrollConfig(timeout_s=0.05, width=8)) == Pass(8, True)

    def test_a_global_the_test_never_reads_is_never_built(self, tmp_path):
        gt, view = as_generalized(
            "void test_a(){ assert(one() == 1); }",
            "int big[2000000]; int one(){ return 1; }",
            width=32,
            tmp_path=tmp_path,
        )
        tracemalloc.start()
        try:
            result = verify_test(gt, view, UnrollConfig(width=32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == Pass(8, True)
        assert peak < 1 << 20  # a list of big's elements alone takes 16 MB

    def test_counterexample_trace_ends_at_failure(self, tmp_path):
        gt, view = as_generalized(
            """
void test_a(){
    int x = nondet_int();
    int y = x + 1;
    assert(y != 3);
}
""",
            tmp_path=tmp_path,
        )
        result = verify_test(gt, view, W4)
        assert isinstance(result, Fail)
        cx = result.counterexample
        assert [name for _, name, _ in cx.trace] == ["x", "y"]
        assert cx.trace[-1][2] == 3
        assert cx.failing_assert.line == 5


class TestChecksBeforeAssumesAndBounds:
    """A run stops at its first failed check, so neither a later assume nor
    a loop that would then run past its bound may hide the failure."""

    LIB = "int id(int x) { return x; }\n"

    @pytest.mark.parametrize(
        "body",
        [
            "    int x = nondet_int();\n    assert(id(x) != 5);\n    assume(x != 5);\n",
            "    int x = 5;\n    assert(id(x) != 5);\n    assume(x != 5);\n",
            "    int n = nondet_int();\n    assert(n < 100);\n    int i = 0;\n"
            "    while (i < n) { i = i + 1; }\n",
        ],
        ids=["nondet-then-assume", "constant-then-assume", "then-long-loop"],
    )
    def test_the_failure_is_reported_and_replays(self, tmp_path, capsys, body):
        src = "void test_a() {\n" + body + "}\n"
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "lib.c").write_text(self.LIB)
        (tmp_path / "tests").mkdir()
        gt, view = as_generalized(src, self.LIB, width=8, tmp_path=tmp_path / "tests")
        argv = ["verify", "--src", str(tmp_path / "src"), "--tests", str(tmp_path / "tests")]
        assert main(argv + ["--width", "8"]) == 1
        assert capsys.readouterr().out == f"test_a: fail at {tmp_path / 'tests' / 't.c'}:3:5\n"

        result = verify_test(gt, view, UnrollConfig(width=8))
        assert isinstance(result, Fail)
        replayed = interpret_concrete(concretize(gt, result.counterexample, 8), view)
        assert isinstance(replayed, AssertFailResult)
        assert replayed.span == result.counterexample.failing_assert


class TestCaseSplit:
    """Queries whose assumptions confine an input to a few values are
    decided by cases, without blasting."""

    BOUNDED = "void test_a(){{int x = nondet_int(); assume(0 <= x); assume(x <= 3); {}}}"

    @pytest.mark.parametrize(
        "body",
        [
            "assert(x * 3 - 5 != 1);",
            "assert(x * x <= 9);",
            "int y = x << 2; assert(y != 12 && y != 4);",
            "assert(buf[x] == 0);",
            "if (x > 1) { assume(x == 3); } assert(x != 3);",
        ],
    )
    def test_agrees_with_the_interpreter_on_every_value(self, tmp_path, monkeypatch, body):
        gt, view = as_generalized(
            self.BOUNDED.format(body), snap_src="int buf[2];", tmp_path=tmp_path
        )
        (site,) = [
            e.span.start for e in ast.preorder(gt.body.body) if isinstance(e, ast.NondetInt)
        ]
        failing = [
            x for x in range(4)
            if run_function(view, gt.body, [], None, {(site, 0): x}).status
            in ("assert_fail", "trap")
        ]

        def no_blasting(*args, **kwargs):
            raise AssertionError("the query reached the blaster")

        monkeypatch.setattr("cfv.solver.bitblast", no_blasting)
        result = verify_test(gt, view, W4)
        if failing:
            assert isinstance(result, Fail)
            assert list(result.counterexample.valuation.values()) == failing[:1]
        else:
            assert result == Pass(W4.loop_bound, True)

    def test_deadline_passing_during_substitution_gives_unknown(self, tmp_path, monkeypatch):
        gt, view = as_generalized(
            self.BOUNDED.format("assert(x * x != 4);"), tmp_path=tmp_path
        )
        assert isinstance(verify_test(gt, view, W4), Fail)
        substituting = []
        original = TermBuilder.substitute

        def substitute(builder, root, mapping):
            substituting.append(mapping)
            return original(builder, root, mapping)

        # The deadline clock passes the deadline once substitution begins.
        clock = SimpleNamespace(monotonic=lambda: math.inf if substituting else 0.0)
        monkeypatch.setattr(TermBuilder, "substitute", substitute)
        monkeypatch.setattr("cfv.errors.time", clock)
        assert verify_test(gt, view, W4) == Unknown("timeout")
        assert substituting

    @staticmethod
    def insert_general(tmp_path, side):
        """test_insert_general at width 32 on minivec's side, and its view."""
        (tmp_path / "insert_tests.c").write_text(
            (CORPUS / "minivec" / "tests" / "insert_tests.c").read_text()
        )
        tests, view = load_tests(tmp_path, load_snapshot(CORPUS / "minivec" / side, 32))
        (t,) = [t for t in tests if t.name == "test_insert_general"]
        return GeneralizedTest(t.name, t.body, [], manual=True), view

    def test_the_width_32_insert_proof_needs_no_search(self, tmp_path, monkeypatch):
        # test_insert_general confines pos to 0..2, and each case folds.
        gt, view = self.insert_general(tmp_path, "old")

        def no_search(*args, **kwargs):
            raise AssertionError("the query reached the SAT core")

        monkeypatch.setattr("cfv.dpll.search", no_search)
        assert verify_test(gt, view, UnrollConfig(timeout_s=60, width=32)) == Pass(8, True)

    def test_the_failing_width_32_insert_query_is_decided_by_cases(self, tmp_path, monkeypatch):
        # On the buggy snapshot val is free too. eq solves the sums that
        # read it for val, so each case of pos folds: the query has 871
        # nodes. Compared as opaque words, it had 1,685 nodes, a case did
        # not fold, and it blasted to 2,952 variables.
        gt, view = self.insert_general(tmp_path, "new")
        queries = []

        def solve(formula, stats=None):
            queries.append(len(postorder(formula.root)))
            return sat_solve(formula, stats)

        def no_blasting(formula):
            raise AssertionError("the query reached the blaster")

        monkeypatch.setattr("cfv.verify.sat_solve", solve)
        monkeypatch.setattr("cfv.solver.bitblast", no_blasting)
        result = verify_test(gt, view, UnrollConfig(timeout_s=60, width=32))
        assert isinstance(result, Fail)
        assert result.counterexample.valuation == {"n0": 0, "n1": 0}
        assert queries == [871]


class TestConcretize:
    def test_concretized_test_replays_the_failure(self, tmp_path):
        gt, view = as_generalized(
            "void test_a(){int x = nondet_int(); int y = nondet_int(); assert(x + y != 5);}",
            tmp_path=tmp_path,
        )
        result = verify_test(gt, view, W4)
        assert isinstance(result, Fail)
        conc = concretize(gt, result.counterexample, 4)
        replay = interpret_concrete(conc, view)
        assert isinstance(replay, AssertFailResult)
        assert replay.span == result.counterexample.failing_assert

    def test_concretized_test_has_no_nondets(self, tmp_path):
        from cfv.minic import ast

        gt, view = as_generalized(
            "void test_a(){int x = nondet_int(); assert(x == 0);}", tmp_path=tmp_path
        )
        result = verify_test(gt, view, W4)
        conc = concretize(gt, result.counterexample, 4)
        assert not any(
            isinstance(e, (ast.NondetInt, ast.NondetBool))
            for e in ast.preorder(conc.body)
        )


class TestEncoderInterpreterAgreement:
    @given(st.integers(0, 50_000))
    @settings(max_examples=60)
    def test_nondet_free_agreement(self, seed):
        rng = random.Random(seed)
        view = fixture_snapshot(4)
        t, _src = RandomTestGen(rng, 4).test_case()
        gt = GeneralizedTest(t.name, t.body, [], manual=False)
        static = verify_test(gt, view, W4)
        dynamic = interpret_concrete(t.body, view)
        if isinstance(static, Pass):
            assert isinstance(dynamic, PassResult)
        elif isinstance(static, Fail):
            assert isinstance(dynamic, AssertFailResult)
            assert static.counterexample.failing_assert == dynamic.span
        else:
            pytest.fail(f"unexpected result {static}")
