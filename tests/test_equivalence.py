import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cfv.bitblast import bitblast
from cfv.changes import compute_changeset
from cfv.equivalence import (
    Equivalent,
    NotEquivalent,
    Unknown,
    build_miter,
    check_equivalence,
    observables_differ,
    transitive_globals,
)
from cfv.errors import Timeout
from cfv.minic import ast
from cfv.snapshot import load_snapshot, snapshot_from_sources
from cfv.solver import SolverStats, Unsat, sat_solve
from cfv.ssa import UnrollConfig, encode_ssa
from cfv.terms import TermBuilder, postorder

from generators import minivec_sources, random_pair
from oracles import CORPUS, functions_equivalent_bruteforce, input_bits
from test_harness import write_scale_corpus

W4 = UnrollConfig(loop_bound=4, timeout_s=20, width=4)


def snap(src: str, label: str = "s", width: int = 4):
    return snapshot_from_sources({"t.c": src}, label, width)


def check(old_src: str, new_src: str, cfg: UnrollConfig = W4, name: str = "f", stats=None):
    old = snap(old_src, "old", cfg.width)
    new = snap(new_src, "new", cfg.width)
    return check_equivalence(old.functions[name], new.functions[name], (old, new), cfg, stats)


class TestStageOne:
    def test_identical_function_is_structural(self):
        src = "int f(int x){return x + 1;}"
        stats = SolverStats()
        verdict = check(src, src, stats=stats)
        assert isinstance(verdict, Equivalent)
        assert verdict.mode == "structural" and verdict.complete
        assert stats.solver_calls == 0

    def test_comments_and_renames_are_structural(self):
        old = "int f(int x){int t = x; return t + 1;}"
        new = "int f(int y){/* doc */ int u = y; return u + 1;}"
        stats = SolverStats()
        verdict = check(old, new, stats=stats)
        assert isinstance(verdict, Equivalent) and verdict.mode == "structural"
        assert stats.solver_calls == 0


class TestStageTwo:
    def test_commutated_addition_is_formal(self):
        # Loop-free, so the bound is complete without a second call.
        stats = SolverStats()
        verdict = check(
            "int f(int a, int b){return a + b;}", "int f(int a, int b){return b + a;}", stats=stats
        )
        assert verdict == Equivalent("formal", W4.loop_bound, complete=True)
        assert stats.solver_calls == 1

    def test_subtraction_swap_has_witness(self):
        verdict = check("int f(int a, int b){return a - b;}", "int f(int a, int b){return b - a;}")
        assert isinstance(verdict, NotEquivalent) and verdict.reason == "behavior"
        a, b = verdict.witness.params
        assert (a - b) % 16 != (b - a) % 16
        assert observables_differ(verdict.old_observables, verdict.new_observables)

    def test_loop_against_unrolled_form(self):
        old = "int f(int n){int s = 0; int i = 0; while (i < 3) { s = s + n; i = i + 1; } return s;}"
        new = "int f(int n){return n + n + n;}"
        verdict = check(old, new)
        assert isinstance(verdict, Equivalent) and verdict.complete

    def test_global_effects_compared(self):
        old = "int g; void f(int x){g = x;}"
        new = "int g; void f(int x){g = x + 1;}"
        verdict = check(old, new)
        assert isinstance(verdict, NotEquivalent)
        assert verdict.old_observables.globals["g"] != verdict.new_observables.globals["g"]

    def test_write_only_global_compared_against_initial_value(self):
        old = "int g; void f(int x){g = 0 - g + g;}"  # writes g with a read
        new = "int g; void f(int x){}"  # leaves g alone
        verdict = check(old, new)
        # g' == 0 on one side vs g' == g on the other: differ when g != 0,
        # and g = 1 is the least such start.
        assert isinstance(verdict, NotEquivalent) and verdict.reason == "behavior"
        assert verdict.witness.globals == {"g": 1}
        assert verdict.old_observables.globals["g"] == 0
        assert verdict.new_observables.globals["g"] == 1

    # build_miter pairs inputs without checking shapes, so each of these
    # must be caught before anything is encoded.
    @pytest.mark.parametrize(
        "old, new",
        [
            ("int f(int a){return a;}", "int f(int a, int b){return a;}"),
            ("int f(int a){return 0;}", "int f(bool a){return 0;}"),
            ("int f(int a){return a;}", "bool f(int a){return a == 0;}"),
            ("int g; int f(){return g;}", "bool g; int f(){if (g) {return 1;} return 0;}"),
            ("int g[4]; void f(){g[0] = 1;}", "int g[5]; void f(){g[0] = 1;}"),
        ],
        ids=["arity", "parameter-int-bool", "return-int-bool", "read-global-int-bool", "written-array-4-5"],
    )
    def test_signature_mismatch(self, old, new):
        stats = SolverStats()
        assert check(old, new, stats=stats) == NotEquivalent("signature_mismatch")
        assert stats.solver_calls == 0

    def test_data_dependent_loop_is_equivalent_within_the_bound_only(self):
        # The miter is false once both return 0; the second call finds an n
        # that runs past the bound of 2.
        old = "int f(int n){int i = 0; while (i < n) { i = i + 1; } return 0;}"
        new = "int f(int n){int i = 0; while (i < n) { i = i + 2; } return 0;}"
        stats = SolverStats()
        verdict = check(old, new, UnrollConfig(loop_bound=2, timeout_s=20, width=4), stats=stats)
        assert verdict == Equivalent("formal", 2, complete=False)
        assert stats.solver_calls == 2

    @pytest.mark.parametrize(
        "old",
        [
            "int f(int x){ { int x = x + 1; return x; } }",
            "int x; int f(){ int x = x + 1; return x; }",
        ],
        ids=["parameter", "global"],
    )
    def test_initializer_reads_the_shadowed_name(self, old):
        # The initializer sees the outer x, as in C, the type checker and
        # the interpreter; the encoder used to look up the inner x unbound.
        new = old.replace("int x = x + 1; return x;", "return x + 1;")
        verdict = check(old, new)
        assert verdict == Equivalent("formal", W4.loop_bound, complete=True)

    def test_timeout_yields_unknown(self):
        cfg = UnrollConfig(timeout_s=1.0, width=32)
        verdict = check(
            "int f(int a, int b){return (a + 1) * b;}",
            "int f(int a, int b){return a * b + b;}",
            cfg,
        )
        assert isinstance(verdict, Unknown) and verdict.reason == "timeout"

    def test_timed_out_completeness_call_leaves_the_bound_incomplete(
        self, monkeypatch, second_call_past_deadline
    ):
        # The loop stops by itself within the bound, so the completeness
        # query is unsat, but unwinding_complete is not constant. When that
        # second call times out, the proof stands and only completeness is
        # given up.
        old = "int f(int n){int s = 0; int i = 0; while (i < n && i < 3) { s = s + 2; i = i + 1; } return s;}"
        new = old.replace("s = s + 2;", "s = s + 1; s = s + 1;")
        assert check(old, new) == Equivalent("formal", W4.loop_bound, complete=True)
        solve, calls = second_call_past_deadline
        monkeypatch.setattr("cfv.equivalence.sat_solve", solve)
        verdict = check(old, new)
        assert len(calls) == 2 and input_bits(calls[1]) <= 16
        assert verdict == Equivalent("formal", W4.loop_bound, complete=False)

    def test_miter_build_obeys_the_time_limit(self):
        # With a 32-element buffer unrolled 32 times, vec_insert's width-8
        # miter has about half a million nodes and takes seconds to build.
        sources = minivec_sources(32)
        old = snapshot_from_sources({"vec.c": sources["old"]}, "old", 8)
        new = snapshot_from_sources({"vec.c": sources["new"]}, "new", 8)
        cfg = UnrollConfig(loop_bound=32, timeout_s=0.05, width=8)
        t0 = time.monotonic()
        verdict = check_equivalence(
            old.functions["vec_insert"], new.functions["vec_insert"], (old, new), cfg
        )
        assert time.monotonic() - t0 <= cfg.timeout_s + 0.15
        assert verdict == Unknown("timeout")

    def test_large_array_read_obeys_the_time_limit(self):
        # Reading g[i] builds one ite per element of g with no loop or call
        # around it, so only the polls of term creation bound the encoding.
        # At width 32 an index reaches all 300,000 elements.
        cfg = UnrollConfig(timeout_s=0.05, width=32)
        t0 = time.monotonic()
        verdict = check(
            "int g[300000]; int f(int i){ return g[i]; }",
            "int g[300000]; int f(int i){ return g[i] + 0 * i; }",
            cfg,
        )
        assert time.monotonic() - t0 <= cfg.timeout_s + 0.3
        assert verdict == Unknown("timeout")

    def test_miter_build_polls_the_deadline_on_entry(self):
        s = snap("int g; int f(int x){g = x; return x + 1;}")
        builder = TermBuilder()
        old = encode_ssa(s.functions["f"], s, W4, builder)
        new = encode_ssa(s.functions["f"], s, W4, builder)
        builder.deadline = time.monotonic() - 1
        with pytest.raises(Timeout):
            build_miter(old, new)

    def test_vec_insert_miter_compares_leaves(self):
        # Comparing the two sides' ite trees leaf by leaf gives about 8.7k
        # nodes at width 32; splitting both guards at every level gave 76k.
        old = load_snapshot(CORPUS / "minivec" / "old", 32)
        new = load_snapshot(CORPUS / "minivec" / "new", 32)
        cfg = UnrollConfig(width=32)
        builder = TermBuilder()
        miter = build_miter(
            encode_ssa(old.functions["vec_insert"], old, cfg, builder),
            encode_ssa(new.functions["vec_insert"], new, cfg, builder),
        )
        nodes = len(postorder(miter.root))  # a Term's repr is exponential in a DAG
        assert nodes <= 12_000

    def test_vec_insert_query_blasts_to_one_sided_clauses(self, monkeypatch):
        # The width-32 query is SAT and goes to the learning core. Writing
        # each gate only on the sides the root needs, and absorbing and
        # chains, halved its 46,461 full Tseitin clauses. eq solves each of
        # the 120 equalities that read a sum, index tests like j == length -
        # k, to a word against a constant; blasted against adders they gave
        # 14,262 variables. Of the 13,717 live gates and inputs left, the
        # 3,979 absorbed and gates are in no clause and get no variable.
        old = load_snapshot(CORPUS / "minivec" / "old", 32)
        new = load_snapshot(CORPUS / "minivec" / "new", 32)
        blasted = []
        monkeypatch.setattr("cfv.solver.bitblast", lambda f: blasted.append(bitblast(f)) or blasted[-1])
        verdict = check_equivalence(
            old.functions["vec_insert"], new.functions["vec_insert"], (old, new), UnrollConfig(width=32)
        )
        assert isinstance(verdict, NotEquivalent)
        num_vars, clauses = blasted[0].num_vars, len(blasted[0].clauses)
        assert num_vars == 9_738
        assert clauses <= 26_000

    def test_initializer_divergence_is_unsupported(self):
        old = "int lim = 3; int f(int x){return x + lim;}"
        new = "int lim = 4; int f(int x){return x + lim;}"
        verdict = check(old, new)
        assert isinstance(verdict, Unknown) and verdict.reason == "unsupported"

    def test_nondet_occurrences_pair_positionally(self):
        old = "int f(){int a = nondet_int(); return a;}"
        new = "int f(){int b = nondet_int(); return b;}"
        verdict = check(old, new)
        assert isinstance(verdict, Equivalent)

    def test_assume_restricts_comparison(self):
        old = "int f(int x){assume(x >= 0); return x;}"
        new = "int f(int x){assume(x >= 0); if (x < 0) { return 5; } return x;}"
        verdict = check(old, new)
        assert isinstance(verdict, Equivalent)


class TestTraps:
    def test_bounds_difference_is_behavioral(self):
        old = "int buf[2]; int f(int i){if (i < 0) { return 0; } if (i >= 2) { return 0; } return buf[i];}"
        new = "int buf[2]; int f(int i){return buf[i];}"
        verdict = check(old, new)
        assert isinstance(verdict, NotEquivalent)
        obs = (verdict.old_observables, verdict.new_observables)
        assert any(not o.ok for o in obs) and any(o.ok for o in obs)

    def test_both_sides_trapping_is_not_a_difference(self):
        # Different garbage past the trap never becomes observable.
        old = "int buf[2]; int f(int i){int v = buf[i]; return v + 1;}"
        new = "int buf[2]; int f(int i){int v = buf[i]; return v + 2;}"
        verdict = check(old, new)
        assert isinstance(verdict, NotEquivalent)
        assert verdict.old_observables.ok and verdict.new_observables.ok


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_reflexivity(self, seed):
        rng = random.Random(seed)
        old, _ = random_pair(rng, width=4)
        fn = old.functions["f"]
        verdict = check_equivalence(fn, fn, (old, old), W4)
        assert isinstance(verdict, Equivalent)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_verdict_class_is_symmetric(self, seed):
        rng = random.Random(seed)
        old, new = random_pair(rng, width=4)
        fwd = check_equivalence(old.functions["f"], new.functions["f"], (old, new), W4)
        bwd = check_equivalence(new.functions["f"], old.functions["f"], (new, old), W4)
        assert isinstance(fwd, Equivalent) == isinstance(bwd, Equivalent)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_monotonic_in_bound(self, seed):
        rng = random.Random(seed)
        old, new = random_pair(rng, width=4)
        at_4 = check_equivalence(old.functions["f"], new.functions["f"], (old, new), W4)
        if isinstance(at_4, Equivalent) and at_4.complete:
            bigger = UnrollConfig(loop_bound=7, timeout_s=20, width=4)
            at_7 = check_equivalence(
                old.functions["f"], new.functions["f"], (old, new), bigger
            )
            assert isinstance(at_7, Equivalent)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_structural_implies_formal(self, seed):
        from cfv.changes import structural_equiv

        rng = random.Random(seed)
        old, new = random_pair(rng, width=4)
        fo, fn_ = old.functions["f"], new.functions["f"]
        if not structural_equiv(fo, fn_):
            return
        builder = TermBuilder()
        miter = build_miter(
            encode_ssa(fo, old, W4, builder), encode_ssa(fn_, new, W4, builder)
        )
        assert isinstance(sat_solve(miter), Unsat)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_verdict_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        old, new = random_pair(rng, width=4, with_global=rng.random() < 0.3)
        verdict = check_equivalence(
            old.functions["f"], new.functions["f"], (old, new), W4
        )
        equal, all_terminated = functions_equivalent_bruteforce(old, new, "f", 4)
        if isinstance(verdict, Equivalent):
            assert equal, "claimed equivalent but brute force disagrees"
            if verdict.complete:
                assert all_terminated
        elif isinstance(verdict, NotEquivalent):
            assert not equal, "claimed not equivalent but brute force disagrees"
        else:
            pytest.fail(f"unexpected verdict {verdict}")


def test_transitive_reads_follow_calls():
    s = snap("int g; int h; int inner(){h = 1; return g;} int f(){return inner();}")
    assert transitive_globals(s.functions["f"], s) == ({"g"}, {"h"})


# Pairs whose sides touch different globals.
ONE_SIDED = [
    # h is declared on the new side only.
    ("int f(int x){return x;}", "int h; int f(int x){return x + h;}"),
    # g is written, and never read, by the old side only.
    ("int g; void f(int x){g = x;}", "int g; void f(int x){}"),
    # buf is written by the new side only.
    (
        "int buf[3]; int g; int f(int i){return i + g;}",
        "int buf[3]; int g; int f(int i){if (i >= 0 && i < 3) { buf[i] = 1; } return i + g;}",
    ),
    (
        "int buf[2]; bool on; int f(int i){if (on) { return buf[i]; } return 0;}",
        "int buf[2]; bool on; int f(int i){return buf[i];}",
    ),
]


def encoded_pairs(scale_root):
    """Both sides of each modified pair of scale seed 7 at width 8, of 40
    pairs drawn as criterion 3 draws them, and of ONE_SIDED, each pair
    encoded on one builder."""
    old = load_snapshot(scale_root / "old", 8)
    new = load_snapshot(scale_root / "new", 8)
    cases = [
        (fo, fn, (old, new), UnrollConfig(width=8))
        for fo, fn in compute_changeset(old, new).modified
    ]
    for seed in range(40):
        pair = random_pair(random.Random(seed), width=4, with_global=seed % 4 == 0)
        cases.append((pair[0].functions["f"], pair[1].functions["f"], pair, W4))
    for texts in ONE_SIDED:
        pair = snap(texts[0], "old"), snap(texts[1], "new")
        cases.append((pair[0].functions["f"], pair[1].functions["f"], pair, W4))
    for fo, fn, (so, sn), cfg in cases:
        if ast.same_signature(fo, fn):
            builder = TermBuilder()
            yield encode_ssa(fo, so, cfg, builder), encode_ssa(fn, sn, cfg, builder)


class TestRecordedInputs:
    """SsaProgram records what each input stands for, so the miter and the
    witness read those records instead of rebuilding input names."""

    @pytest.fixture(scope="class")
    def pairs(self, tmp_path_factory):
        return list(encoded_pairs(write_scale_corpus(tmp_path_factory.mktemp("scale"), 7)))

    def test_written_globals_have_recorded_inputs(self, pairs):
        # A guarded update reads the old value first, so the side that
        # leaves a global untouched finds its initial value recorded.
        assert len(pairs) > 40
        for old, new in pairs:
            recorded = old.global_inputs.keys() | new.global_inputs.keys()
            assert old.globals_written.keys() | new.globals_written.keys() <= recorded

    def test_miter_creates_no_inputs(self, pairs):
        for old, new in pairs:
            miter = build_miter(old, new)
            names = [t.name for t in miter.inputs]
            assert names == list(dict.fromkeys(t.name for t in old.inputs + new.inputs))
            used = {t.name for t in postorder(miter.root) if t.op == "input"}
            assert used <= set(names)

    def test_a_one_sided_write_meets_every_recorded_element(self):
        # At width 8 an index reaches 128 of buf's 200 elements, and only
        # those are inputs: the writing side's final value and the other
        # side's recorded inputs both hold the 128, and decode_witness pads
        # the witness to 200 with 0.
        verdict = check(
            "int buf[200]; void f(int i){}",
            "int buf[200]; void f(int i){if (i >= 100) { buf[i] = buf[i] + 1; }}",
            UnrollConfig(width=8),
        )
        assert isinstance(verdict, NotEquivalent) and verdict.reason == "behavior"
        (i,) = verdict.witness.params
        initial = verdict.witness.globals["buf"]
        assert len(initial) == 200
        old, new = verdict.old_observables, verdict.new_observables
        assert old.ok and new.ok and old.globals["buf"] == initial
        changed = [j for j, (x, y) in enumerate(zip(initial, new.globals["buf"])) if x != y]
        assert changed == [i] and 100 <= i < 128

    def test_elements_no_index_reaches_are_not_inputs(self):
        # At width 8 an index reaches 128 of a's 200,000 elements. With an
        # input per declared element this check took seconds and peaked
        # near 90 MB.
        cfg = UnrollConfig(width=8)
        old = snap("int a[200000]; int f(int i){ return a[i]; }", "old", 8)
        new = snap("int a[200000]; int f(int i){ return a[i] + 0 * i; }", "new", 8)
        tracemalloc.start()
        try:
            t0 = time.monotonic()
            verdict = check_equivalence(old.functions["f"], new.functions["f"], (old, new), cfg)
            elapsed = time.monotonic() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == Equivalent("formal", cfg.loop_bound, complete=True)
        assert elapsed < 0.5, elapsed
        assert peak < 10_000_000, peak

    @pytest.mark.parametrize("old, new", ONE_SIDED)
    def test_witness_globals_are_those_either_side_touches(self, old, new):
        so, sn = snap(old, "old"), snap(new, "new")
        verdict = check_equivalence(so.functions["f"], sn.functions["f"], (so, sn), W4)
        assert isinstance(verdict, NotEquivalent) and verdict.reason == "behavior"
        # A write reads the old value first, so written globals are inputs too.
        touched = set().union(
            *transitive_globals(so.functions["f"], so),
            *transitive_globals(sn.functions["f"], sn),
        )
        assert set(verdict.witness.globals) == touched
        for name, value in verdict.witness.globals.items():
            ty = (sn.globals.get(name) or so.globals[name]).ty
            if isinstance(ty, ast.ArrayType):
                assert len(value) == ty.length
            else:
                assert not isinstance(value, list)
