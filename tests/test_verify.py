import random

import pytest
from hypothesis import given, settings, strategies as st

from cfv.harness import GeneralizedTest, load_tests
from cfv.snapshot import snapshot_from_sources
from cfv.ssa import UnrollConfig
from cfv.terms import to_signed
from cfv.verify import Fail, Pass, Unknown, concretize, verify_test

from generators import RandomTestGen, fixture_snapshot
from oracles import AssertFailResult, PassResult, interpret_concrete


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
        self, tmp_path, second_call_past_deadline
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
        result = verify_test(gt, view, W4, solve_fn=solve)
        assert len(calls) == 2 and calls[1].input_bits <= 16
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


class TestConcretize:
    def test_concretized_test_replays_the_failure(self, tmp_path):
        gt, view = as_generalized(
            "void test_a(){int x = nondet_int(); int y = nondet_int(); assert(x + y != 5);}",
            tmp_path=tmp_path,
        )
        result = verify_test(gt, view, W4)
        assert isinstance(result, Fail)
        conc = concretize(gt, result.counterexample, 4)
        replay = interpret_concrete(conc.body, view)
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
            for e in ast.preorder(conc.body.body)
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
