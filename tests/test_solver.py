import random
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfv.bitblast import SIM_MAX_INPUT_BITS, _blast_node, bitblast
from cfv import dpll
from cfv.dpll import search, solve_cnf
from cfv.errors import Timeout
from cfv.harness import GeneralizedTest, load_tests
from cfv.snapshot import load_snapshot
from cfv.solver import (
    SPLIT_MAX,
    Sat,
    SolverStats,
    Unsat,
    sat_solve,
)
from cfv.ssa import UnrollConfig
from cfv.terms import BOOL, Formula, TermBuilder, mask, to_signed
from cfv.verify import Pass, verify_test

from generators import random_formula, random_ite_pair
from oracles import (
    CORPUS,
    EXHAUSTIVE_BIT_CAP,
    DomainTooLargeError,
    bulk_evaluate,
    check_model,
    evaluate,
    exhaustive_solve,
    input_bits,
    rebuild_everywhere,
)


def single_input_formula(width, build):
    b = TermBuilder()
    x = b.input("x", width)
    return Formula(b, build(b, x), (x,))


def check_cnf(cnf):
    for clause in cnf.clauses:
        seen = set()
        for lit in clause:
            if lit == 0 or abs(lit) > cnf.num_vars:
                raise ValueError(f"bad literal {lit}")
            if -lit in seen:
                raise ValueError(f"clause contains {lit} and {-lit}")
            if lit in seen:
                raise ValueError(f"clause repeats {lit}")
            seen.add(lit)


def learned_model(f):
    """Solve f's CNF with the learning core: its model, or None when unsat."""
    cnf = bitblast(f)
    result = search(cnf.num_vars, cnf.clauses)
    if result.status != "sat":
        return None
    model = {}
    for t in f.inputs:
        value = sum(result.assignment[v] << i for i, v in enumerate(cnf.input_bits[t.name]))
        model[t.name] = bool(value) if t.width == BOOL else value
    return model


class TestTerms:
    def test_constant_folding(self):
        b = TermBuilder()
        assert b.add(b.const(200, 8), b.const(100, 8)).value == 44
        assert b.mul(b.const(7, 4), b.const(3, 4)).value == 5
        assert b.slt(b.const(15, 4), b.const(0, 4)).value == 1  # -1 < 0
        assert b.ashr(b.const(0b1000, 4), b.const(1, 4)).value == 0b1100

    def test_shift_amount_is_masked(self):
        b = TermBuilder()
        assert b.shl(b.const(1, 4), b.const(5, 4)).value == 2  # 5 & 3 == 1
        x = b.input("x", 8)
        env = {"x": 1}
        assert evaluate(b.shl(x, b.const(9, 8)), env) == 2

    def test_self_cancellation(self):
        b = TermBuilder()
        x = b.input("x", 8)
        assert b.bxor(x, x).value == 0
        assert b.sub(x, x).value == 0
        assert b.eq(x, x) is b.true

    def test_commutative_canonicalization(self):
        b = TermBuilder()
        x, y = b.input("x", 8), b.input("y", 8)
        assert b.add(x, y) is b.add(y, x)
        assert b.mul(x, y) is b.mul(y, x)

    def test_hash_consing(self):
        b = TermBuilder()
        x = b.input("x", 8)
        assert b.add(x, b.const(1, 8)) is b.add(x, b.const(1, 8))

    def test_input_width_clash_rejected(self):
        b = TermBuilder()
        b.input("x", 8)
        with pytest.raises(ValueError):
            b.input("x", 4)

    def test_eq_pushes_through_ite(self):
        b = TermBuilder()
        c1, c2 = b.input("c1", BOOL), b.input("c2", BOOL)
        x, y, z = b.input("x", 4), b.input("y", 4), b.input("z", 4)
        eq = b.eq(b.ite(c1, x, z), b.ite(c2, y, z))
        # Both guards false collapses to z == z == true regardless of data.
        assert evaluate(eq, {"c1": False, "c2": False, "x": 1, "y": 2, "z": 3})
        assert not evaluate(eq, {"c1": True, "c2": False, "x": 1, "y": 2, "z": 3})

    def test_evaluate_reads_inputs_at_their_width(self):
        b = TermBuilder()
        c, x = b.input("c", BOOL), b.input("x", 4)
        assert evaluate(b.not_(c), {"c": 1}) is False
        assert evaluate(b.ite(c, x, b.const(0, 4)), {"c": 2, "x": 17}) == 1
        assert evaluate(b.add(x, b.const(1, 4)), {"x": -1}) == 0
        assert evaluate(b.const(3, 4), {}) == 3

    def test_repr_of_a_deep_dag_is_short(self):
        # Each level uses the previous one twice; printed as a tree, the
        # repr would have 2**64 leaves.
        b = TermBuilder()
        t = b.input("x", 8)
        for _ in range(64):
            t = b.mul(t, t)
        assert t.op == "mul"
        start = time.monotonic()
        text = repr(t)
        assert time.monotonic() - start < 0.1
        assert len(text) < 40, text


class TestIteEquality:
    @given(st.integers(0, 100_000))
    @settings(max_examples=200)
    def test_eq_of_ite_dags_matches_evaluation(self, seed):
        rng = random.Random(seed)
        b, x, y, inputs = random_ite_pair(rng)
        eq = b.eq(x, y)
        for _ in range(16):
            env = {
                t.name: rng.random() < 0.5 if t.width == BOOL else rng.randrange(1 << t.width)
                for t in inputs
            }
            assert evaluate(eq, env) == (evaluate(x, env) == evaluate(y, env))

    @given(st.integers(0, 100_000))
    @settings(max_examples=100)
    def test_ite_miter_least_model_matches_enumeration(self, seed):
        rng = random.Random(seed)
        b, x, y, inputs = random_ite_pair(rng)
        f = Formula(b, b.ne(x, y), inputs)
        assert input_bits(f) <= 12
        fast = sat_solve(f)
        slow = exhaustive_solve(f)
        assert type(fast) is type(slow)
        if isinstance(fast, Sat):
            assert fast.model == slow.model
            assert evaluate(x, fast.model) != evaluate(y, fast.model)
        if not f.root.is_const:  # sat_solve simulates these; search the clauses too
            assert learned_model(f) == (slow.model if isinstance(slow, Sat) else None)

    def test_leaf_selections_poll_the_deadline(self):
        # 300 ite nodes under distinct guards select between two leaves, so
        # eq compares only 2 x 2 leaf pairs; the deadline is seen while the
        # selection conditions are built.
        b = TermBuilder()
        x, y = b.input("x", 4), b.input("y", 4)
        chain = y
        for i in range(300):
            chain = b.ite(b.input(f"c{i}", BOOL), chain, x)
        other = b.ite(b.input("d", BOOL), x, y)
        b.deadline = time.monotonic() - 1
        with pytest.raises(Timeout):
            b.eq(chain, other)


class TestSolverExamples:
    def test_constant_true_root(self):
        b = TermBuilder()
        f = Formula(b, b.true, ())
        assert isinstance(sat_solve(f), Sat)

    def test_x_plus_one_wraps(self):
        f = single_input_formula(8, lambda b, x: b.eq(b.add(x, b.const(1, 8)), b.const(0, 8)))
        for solver in (sat_solve, exhaustive_solve):
            result = solver(f)
            assert isinstance(result, Sat) and result.model == {"x": 255}

    def test_x_and_zero_unsat(self):
        f = single_input_formula(
            8, lambda b, x: b.ne(b.band(x, b.const(0, 8)), b.const(0, 8))
        )
        assert isinstance(sat_solve(f), Unsat)
        assert isinstance(exhaustive_solve(f), Unsat)

    def test_xor_self_unsat(self):
        f = single_input_formula(
            4, lambda b, x: b.ne(b.bxor(x, x), b.const(0, 4))
        )
        assert f.root.is_const and not f.root.value
        assert isinstance(sat_solve(f), Unsat)

    def test_first_model_is_lexicographically_least(self):
        f = single_input_formula(4, lambda b, x: b.ne(x, b.const(0, 4)))
        assert sat_solve(f).model == {"x": 1}
        assert exhaustive_solve(f).model == {"x": 1}

    def test_domain_cap(self):
        b = TermBuilder()
        xs = tuple(b.input(f"x{i}", 8) for i in range(3))
        f = Formula(b, b.ne(xs[0], xs[1]), xs)
        with pytest.raises(DomainTooLargeError):
            exhaustive_solve(f)

    def test_shift_at_width_that_is_not_a_power_of_two(self):
        # At width 6 the amount is masked with 5, so the barrel shifter
        # needs stages of 1 and 4, not 1 and 2.
        def build(b, x):
            c = lambda v: b.const(v, 6)
            low = b.slt(c(57), x)
            product = b.mul(c(30), b.shl(x, x))
            return b.and_(low, b.not_(b.slt(c(49), product)))

        f = single_input_formula(6, build)
        assert sat_solve(f).model == exhaustive_solve(f).model == {"x": 8}
        assert check_model(f, {"x": 8})

    def test_timeout_on_hard_instance(self):
        b = TermBuilder()
        p, q = b.input("p", 32), b.input("q", 32)
        lhs = b.mul(b.add(p, b.const(1, 32)), q)
        rhs = b.add(b.mul(p, q), q)
        f = Formula(b, b.ne(lhs, rhs), (p, q))
        b.deadline = time.monotonic() + 1.0
        with pytest.raises(Timeout):
            sat_solve(f)

    def test_blasting_past_the_deadline_raises_the_shared_timeout(self):
        f = miter_formula(32)  # thousands of gates, so the blaster polls
        f.builder.deadline = time.monotonic() - 1
        with pytest.raises(Timeout):
            bitblast(f)
        stats = SolverStats()
        with pytest.raises(Timeout):
            sat_solve(f, stats=stats)
        assert stats.solver_calls == 1


def miter_formula(width):
    """(a + 1) * b != a * b + b over two width-bit inputs: UNSAT."""
    b = TermBuilder()
    p, q = b.input("p", width), b.input("q", width)
    lhs = b.mul(b.add(p, b.const(1, width)), q)
    rhs = b.add(b.mul(p, q), q)
    return Formula(b, b.ne(lhs, rhs), (p, q))


def boundary_formula(flags):
    """Bool flags, then three 5-bit inputs: 15 + flags input bits.

    The least model sets the last flag and leaves the others false:
    x = 5, y = 8, z = 15. At 16 bits that is valuation 38,159, lane 1,295 of
    the tenth chunk of 4,096.
    """
    b = TermBuilder()
    ps = tuple(b.input(f"p{i}", BOOL) for i in range(flags))
    x, y, z = (b.input(name, 5) for name in "xyz")
    root = b.all_([
        b.eq(b.add(b.mul(x, y), z), b.const(23, 5)),
        b.slt(b.const(2, 5), z),
        b.slt(b.const(4, 5), x),
        ps[-1],
        b.not_(b.xor(ps[-1], b.slt(x, y))),
    ])
    return Formula(b, root, ps + (x, y, z))


class TestSimulation:
    def test_width8_multiplier_miter_is_unsat_quickly(self):
        f = miter_formula(8)
        f.builder.deadline = time.monotonic() + 5
        assert isinstance(sat_solve(f), Unsat)

    def test_single_valuations_are_found_in_every_chunk_and_lane(self):
        b = TermBuilder()
        x, y = b.input("x", 8), b.input("y", 8)
        for want in ((0, 0), (0xFF, 0xFF), (0x5A, 0xC3), (0x0F, 0xF0)):
            root = b.and_(b.eq(x, b.const(want[0], 8)), b.eq(y, b.const(want[1], 8)))
            assert sat_solve(Formula(b, root, (x, y))).model == {"x": want[0], "y": want[1]}

    @pytest.mark.parametrize("flags", [1, 2])
    def test_dispatch_boundary_matches_enumeration(self, flags):
        # 16 input bits are simulated, 17 go to the learning core.
        f = boundary_formula(flags)
        assert input_bits(f) == 15 + flags
        model = sat_solve(f).model
        assert model == exhaustive_solve(f).model
        assert model[f"p{flags - 1}"] is True and (model["x"], model["y"], model["z"]) == (5, 8, 15)

    def test_deadline_already_past_times_out(self):
        f = miter_formula(8)
        assert input_bits(f) == 16
        f.builder.deadline = time.monotonic() - 1
        with pytest.raises(Timeout):
            sat_solve(f)

    def test_blasting_entered_past_the_deadline_raises_at_once(self):
        # Far fewer gates than the blaster's periodic poll interval.
        f = single_input_formula(8, lambda b, x: b.eq(b.add(x, b.const(3, 8)), b.const(7, 8)))
        assert bitblast(f).num_vars < 100
        f.builder.deadline = time.monotonic() - 1
        with pytest.raises(Timeout):
            bitblast(f)


def random_3cnf(rng) -> tuple[int, list[tuple[int, ...]]]:
    """10-14 variables and about 4.3 clauses a variable, each clause over
    three distinct variables."""
    n = rng.randint(10, 14)
    clauses = [
        tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3))
        for _ in range(round(4.3 * n))
    ]
    return n, clauses


def least_model_bruteforce(n: int, clauses) -> list[int] | None:
    """The lexicographically least model of a CNF (counting order with
    variable 1 most significant), or None. Each literal is the 2**n-bit set
    of the assignments that make it true, so a clause is an OR and the
    formula an AND of such sets; the least model is the lowest set bit."""
    full = (1 << (1 << n)) - 1
    sets = {}
    for v in range(1, n + 1):
        half = 1 << (n - v)
        block = ((1 << half) - 1) << half  # assignments with bit n - v set
        sets[v] = block * (full // ((1 << 2 * half) - 1))
        sets[-v] = full ^ sets[v]
    models = full
    for clause in clauses:
        any_true = 0
        for lit in clause:
            any_true |= sets[lit]
        models &= any_true
    if not models:
        return None
    m = (models & -models).bit_length() - 1
    return [(sets[v] >> m) & 1 for v in range(1, n + 1)]


# (a + 1) * b != a * b + b + ite(a == hit_a && (b & mask) == mask, 1, 0) at
# width 6 has models only at a == hit_a; the least is b == mask.
HITS = [(43, 3), (27, 1), (50, 5)]


def hit_formula(hit_a: int, hit_mask: int) -> Formula:
    b = TermBuilder()
    x, y = b.input("a", 6), b.input("b", 6)
    one, mask = b.const(1, 6), b.const(hit_mask, 6)
    hit = b.and_(b.eq(x, b.const(hit_a, 6)), b.eq(b.band(y, mask), mask))
    lhs = b.mul(b.add(x, one), y)
    rhs = b.add(b.add(b.mul(x, y), y), b.ite(hit, one, b.const(0, 6)))
    return Formula(b, b.ne(lhs, rhs), (x, y))


class TestDpll:
    def test_empty_clause_unsat(self):
        assert search(1, [(1,), ()]).status == "unsat"

    def test_unit_propagation(self):
        result = search(2, [(1,), (-1, 2)])
        assert result.status == "sat"
        assert result.assignment[1] == 1 and result.assignment[2] == 1

    def test_no_clauses_is_sat(self):
        result = search(2, [])
        assert result.status == "sat"

    def test_search_entered_past_the_deadline_raises_at_once(self):
        # 17 input bits keep no gate list, so the learning core runs; it
        # needs far fewer than the 512 steps between its periodic polls.
        f = single_input_formula(17, lambda b, x: b.eq(x, b.const(5, 17)))
        cnf = bitblast(f)
        assert cnf.gates is None and cnf.num_vars < 100
        assert solve_cnf(cnf).status == "sat"
        with pytest.raises(Timeout):
            solve_cnf(cnf, deadline=time.monotonic() - 1)

    def test_backtracking(self):
        # (x1 | x2) & (!x1 | x2) & (x1 | !x2) forces x1 = x2 = true.
        result = search(2, [(1, 2), (-1, 2), (1, -2)])
        assert result.status == "sat"
        assert result.assignment[1] == 1 and result.assignment[2] == 1

    @given(st.integers(0, 2_000))
    @settings(max_examples=40)
    def test_random_3cnf_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(1, 8)
        clauses = [
            tuple(
                rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(3)
            )
            for _ in range(rng.randint(1, 20))
        ]
        clauses = [tuple(dict.fromkeys(c)) for c in clauses]
        clauses = [c for c in clauses if not any(-l in c for l in c)]
        least = least_model_bruteforce(n_vars, clauses)
        result = search(n_vars, clauses)
        assert (result.status == "sat") == (least is not None)
        if least is not None:
            assert result.assignment[1:] == least

    @pytest.mark.parametrize("hit_a, hit_mask", HITS)
    def test_learning_core_finds_least_model_behind_conflicts(self, hit_a, hit_mask):
        # The static search hits many conflicts first and the learning core
        # switches to VSIDS, which may land on any b with (b & mask) == mask.
        # The least model must still come back: b == mask. A clause
        # minimisation that leaves its marks set after a failed check learns
        # clauses the formula does not imply, and returned a larger b on
        # these.
        f = hit_formula(hit_a, hit_mask)
        assert learned_model(f) == exhaustive_solve(f).model == {"a": hit_a, "b": hit_mask}


class TestClauseDeletionAndRestarts:
    """With the deletion threshold at 4 learned clauses and a Luby unit of
    one conflict, the learning core deletes clauses and restarts on small
    formulas, and must still return the least model."""

    @pytest.fixture(autouse=True)
    def eager(self, monkeypatch):
        monkeypatch.setattr(dpll, "FIRST_REDUCE", 4)
        monkeypatch.setattr(dpll, "RESTART_UNIT", 1)

    @staticmethod
    @contextmanager
    def counting(counts):
        """Count calls of reduce_db and restarts (calls of _luby past its
        first element) into counts."""

        def profile(frame, event, arg):
            if event == "call":
                name = frame.f_code.co_name
                if name == "reduce_db" or (name == "_luby" and frame.f_locals["x"]):
                    counts[name] += 1

        sys.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    def test_random_3cnf_and_hit_formulas_keep_their_least_models(self):
        counts = {"reduce_db": 0, "_luby": 0}
        for seed in range(200):
            n, clauses = random_3cnf(random.Random(seed))
            least = least_model_bruteforce(n, clauses)
            with self.counting(counts):
                result = search(n, clauses)
            assert (result.status == "sat") == (least is not None), seed
            if least is not None:
                assert result.assignment[1:] == least, seed
        for hit_a, hit_mask in HITS:
            with self.counting(counts):
                model = learned_model(hit_formula(hit_a, hit_mask))
            assert model == {"a": hit_a, "b": hit_mask}
        assert counts["reduce_db"] > 1000 and counts["_luby"] > 100, counts


def with_bounds(f, x, lo, hi, rng):
    """f with lo <= x <= hi (signed) conjoined, in forms the case split
    reads, chosen at random; lo > hi leaves no value."""
    b, w = f.builder, x.width
    smallest, largest = -(1 << (w - 1)), (1 << (w - 1)) - 1
    c = lambda v: b.const(v, w)
    if lo == hi and rng.random() < 0.5:
        return Formula(b, b.and_(b.eq(x, c(lo)), f.root), f.inputs)
    if lo == smallest or rng.random() < 0.5:
        low = b.not_(b.slt(x, c(lo)))
    else:
        low = b.slt(c(lo - 1), x)
    if hi == largest or rng.random() < 0.5:
        high = b.not_(b.slt(c(hi), x))
    else:
        high = b.slt(x, c(hi + 1))
    return Formula(b, b.all_([low, f.root, high]), f.inputs)


class TestCaseSplit:
    @pytest.fixture
    def blasted(self, monkeypatch):
        """The formulas sat_solve bit-blasts, in call order."""
        calls = []
        real = bitblast

        def spy(formula):
            calls.append(formula)
            return real(formula)

        monkeypatch.setattr("cfv.solver.bitblast", spy)
        return calls

    def test_random_bounds_agree_with_enumeration(self, blasted):
        decided = fell_back = 0
        for seed in range(300):
            rng = random.Random(seed)
            width = rng.randint(3, 6)
            f = random_formula(rng, width=width, max_inputs=2, depth=3)
            x = rng.choice(f.inputs)
            lo = rng.randrange(-(1 << (width - 1)), (1 << (width - 1)) - 3)
            f = with_bounds(f, x, lo, lo + rng.randint(-1, 3), rng)
            if seed % 10 == 0:  # contradictory bounds on top
                f = with_bounds(f, x, lo + 2, lo + 1, rng)
            before = len(blasted)
            fast, slow = sat_solve(f), exhaustive_solve(f)
            assert type(fast) is type(slow), seed
            if isinstance(fast, Sat):
                assert fast.model == slow.model, seed
            if not f.root.is_const:
                if len(blasted) > before:
                    fell_back += 1
                else:
                    decided += 1
        assert decided and fell_back, (decided, fell_back)

    @pytest.mark.parametrize(
        "sizes, split",
        [((SPLIT_MAX,), True), ((SPLIT_MAX + 1,), False), ((4, 4), True), ((4, 5), False)],
    )
    def test_at_most_split_max_joint_values_split(self, blasted, sizes, split):
        # Inputs bounded to 0..n - 1, the first by strict and the second by
        # negated comparisons, so a bound one value too wide in any of the
        # four forms splits on too many values; the sum of their squares is
        # 9 mod 16.
        b = TermBuilder()
        xs = tuple(b.input(f"x{i}", 8) for i in range(len(sizes)))
        c = lambda v: b.const(v, 8)
        bounds = [
            [b.slt(c(-1), x), b.slt(x, c(n))] if i == 0
            else [b.not_(b.slt(x, c(0))), b.not_(b.slt(c(n - 1), x))]
            for i, (x, n) in enumerate(zip(xs, sizes))
        ]
        squares = c(0)
        for x in xs:
            squares = b.add(squares, b.mul(x, x))
        root = b.all_(sum(bounds, []) + [b.eq(b.band(squares, c(15)), c(9))])
        f = Formula(b, root, xs)
        assert sat_solve(f).model == exhaustive_solve(f).model
        assert (not blasted) == split

    def test_least_model_orders_cases_as_unsigned_residues(self, blasted):
        # x in -2..1 and x < 0: the least model is x = -2, residue 254, and
        # the free input a before it is 0.
        b = TermBuilder()
        a, x = b.input("a", 8), b.input("x", 8)
        c = lambda v: b.const(v, 8)
        root = b.all_([b.not_(b.slt(x, c(-2))), b.not_(b.slt(c(1), x)), b.slt(x, c(0))])
        f = Formula(b, root, (a, x))
        assert sat_solve(f).model == exhaustive_solve(f).model == {"a": 0, "x": 254}
        assert not blasted

    def test_an_affine_equality_bounds_its_input(self, monkeypatch):
        # x + 1 == 5 is built as x == 4, a bound the split reads.
        def refuse(formula):
            raise AssertionError("blasted")

        monkeypatch.setattr("cfv.solver.bitblast", refuse)
        c = lambda b, v: b.const(v, 8)
        f = single_input_formula(8, lambda b, x: b.and_(
            b.eq(b.add(x, c(b, 1)), c(b, 5)), b.slt(c(b, 3), b.mul(x, x))
        ))
        assert sat_solve(f) == Sat({"x": 4})

    def test_contradictory_bounds_are_unsat_before_blasting(self, blasted):
        f = miter_formula(32)  # far too hard to blast and search here
        b = f.builder
        p = f.inputs[0]
        root = b.all_([b.slt(p, b.const(3, 32)), f.root, b.eq(p, b.const(7, 32))])
        assert isinstance(sat_solve(Formula(b, root, f.inputs)), Unsat)
        assert not blasted


class TestModelKeys:
    """Each route of sat_solve returns a model keyed by exactly the
    formula's input names, inputs the root never reads included, so the
    witness and replay readers index it without defaults."""

    @pytest.mark.parametrize("route", ["folded", "cases", "simulation", "core"])
    def test_model_keys_are_the_input_names(self, route, monkeypatch):
        blasted = []
        monkeypatch.setattr("cfv.solver.bitblast", lambda f: blasted.append(f) or bitblast(f))
        width = 8 if route == "core" else 4
        b = TermBuilder()
        c = lambda v: b.const(v, width)
        x, y, unused = b.input("x", width), b.input("y", width), b.input("u", BOOL)
        root = {
            "folded": b.true,
            "cases": b.all_([b.slt(c(-1), x), b.slt(x, c(4)), b.eq(b.mul(x, x), c(9))]),
            "simulation": b.eq(b.mul(x, y), c(6)),
            "core": b.eq(b.mul(x, y), c(6)),
        }[route]
        f = Formula(b, root, (x, y, unused))
        model = sat_solve(f).model
        assert sorted(model) == ["u", "x", "y"]
        assert bool(blasted) == (route in ("simulation", "core"))
        assert (input_bits(f) <= SIM_MAX_INPUT_BITS) == (route != "core")


def substitutions(seed):
    """A seeded root on a fresh builder, its inputs, and the mappings to
    substitute in turn: each input at 0, at all ones and at one seeded
    value. Every fourth seed compares two random ite DAGs."""
    rng = random.Random(seed)
    if seed % 4 == 3:
        b, left, right, inputs = random_ite_pair(rng)
        root = b.eq(left, right)
    else:
        f = random_formula(rng, width=rng.randint(3, 6))
        b, root, inputs = f.builder, f.root, f.inputs
    mappings = [
        {x: b.const(v, x.width)}
        for x in inputs
        for bits in [max(x.width, 1)]
        for v in (0, mask(bits), rng.randrange(1 << bits))
    ]
    return b, root, inputs, mappings


def valuations(inputs, x, c):
    """Every valuation of the inputs other than x as bulk_evaluate arrays,
    with x held at the constant c."""
    free = [t for t in inputs if t is not x]
    idx = np.arange(1 << sum(max(t.width, 1) for t in free), dtype=np.uint64)
    env, shift = {}, 0
    for t in free:
        lane = (idx >> np.uint64(shift)) & np.uint64(mask(max(t.width, 1)))
        env[t.name] = lane.astype(bool) if t.width == BOOL else lane
        shift += max(t.width, 1)
    env[x.name] = np.full(idx.shape, c.value, dtype=bool if x.width == BOOL else np.uint64)
    return env, idx.shape


class TestSubstitute:
    def test_substituted_roots_agree_with_evaluation(self):
        # The mappings of one root run in sequence on one builder, so a memo
        # that confused two of them would show here.
        for seed in range(240):
            b, root, inputs, mappings = substitutions(seed)
            for mapping in mappings:
                ((x, c),) = mapping.items()
                env, shape = valuations(inputs, x, c)
                got = b.substitute(root, mapping)
                expected = np.broadcast_to(bulk_evaluate(root, env), shape)
                assert (np.broadcast_to(bulk_evaluate(got, env), shape) == expected).all(), seed

    def test_fold_outcomes_match_the_full_rebuild(self):
        folded = 0
        for seed in range(1000):
            b, root, _, mappings = substitutions(seed)
            ref_b, ref_root, _, ref_mappings = substitutions(seed)
            for mapping, ref_mapping in zip(mappings, ref_mappings):
                got = b.substitute(root, mapping)
                ref = rebuild_everywhere(ref_b, ref_root, ref_mapping)
                assert got.is_const == ref.is_const, seed
                if got.is_const:
                    assert got.value == ref.value, seed
                    folded += 1
        assert folded > 1000, folded

    @pytest.fixture
    def polls(self, monkeypatch):
        """The nodes each substitute call settles, counted by _poll, per
        root in call order."""
        counts: dict = {}
        inside = []
        real_substitute, real_poll = TermBuilder.substitute, TermBuilder._poll

        def poll(builder):
            if inside:
                inside[-1] += 1
            real_poll(builder)

        def substitute(builder, root, mapping):
            inside.append(0)
            try:
                return real_substitute(builder, root, mapping)
            finally:
                counts.setdefault(root, []).append(inside.pop())

        monkeypatch.setattr(TermBuilder, "_poll", poll)
        monkeypatch.setattr(TermBuilder, "substitute", substitute)
        return counts

    def test_a_false_first_conjunct_leaves_the_second_unvisited(self, polls):
        b = TermBuilder()
        x, y = b.input("x", 8), b.input("y", 8)
        first = b.slt(x, b.const(3, 8))
        big = b.true
        for i in range(50):
            big = b.and_(big, b.eq(b.add(x, b.const(i, 8)), y))
        root = b.and_(first, big)
        assert root.args[0] is first
        assert b.substitute(root, {x: b.const(5, 8)}) is b.false
        # Two nodes are settled, the first conjunct and the root; a visit
        # to big would settle its nodes over x too.
        assert polls[root] == [2]

    @pytest.mark.parametrize("width", [8, 32])
    def test_insert_proof_cases_rebuild_few_nodes(self, tmp_path, polls, width):
        # test_insert_general confines pos to 0..2. Each query case settles
        # fewer than 400 of the root's 1,684 nodes, and each case of the
        # completeness call fewer than 20 of its 1,021, as it reuses what
        # the query's case with the same pos rebuilt.
        (tmp_path / "insert_tests.c").write_text(
            (CORPUS / "minivec" / "tests" / "insert_tests.c").read_text()
        )
        tests, view = load_tests(tmp_path, load_snapshot(CORPUS / "minivec" / "old", width))
        (t,) = [t for t in tests if t.name == "test_insert_general"]
        gt = GeneralizedTest(t.name, t.body, [], manual=True)
        assert verify_test(gt, view, UnrollConfig(timeout_s=60, width=width)) == Pass(8, True)
        query, completeness = polls.values()
        assert len(query) == len(completeness) == 3
        assert max(query) < 400, query
        assert max(completeness) < 20, completeness

    @pytest.mark.parametrize("kind", ["ite", "and"])
    def test_a_20000_deep_chain_substitutes_without_recursion(self, kind):
        b = TermBuilder()
        x, y, p = b.input("x", 16), b.input("y", 16), b.input("p", BOOL)
        c = lambda v: b.const(v, 16)
        chain = y if kind == "ite" else p
        for i in range(20_000):
            if kind == "ite":
                chain = b.ite(b.eq(x, c(i)), c(i), chain)
            else:
                chain = b.and_(chain, b.slt(x, c(i)))
        if kind == "ite":
            assert b.substitute(chain, {x: c(5)}) is c(5)
            assert b.substitute(chain, {x: c(30_000)}) is y
            assert b.substitute(chain, {y: c(1)}).op == "ite"
        else:
            assert b.substitute(chain, {x: c(0)}) is b.false
            assert b.substitute(chain, {x: c(-1)}) is p


class TestAgreement:
    @given(st.integers(0, 100_000))
    @settings(max_examples=100)
    def test_bitblast_agrees_with_enumeration(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, width=4, max_inputs=2, depth=3)
        fast = sat_solve(f)
        slow = exhaustive_solve(f)
        assert type(fast) is type(slow)
        if isinstance(fast, Sat):
            assert fast.model == slow.model
            assert check_model(f, fast.model)
        if not f.root.is_const:  # sat_solve simulates these; search the clauses too
            assert learned_model(f) == (slow.model if isinstance(slow, Sat) else None)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100)
    def test_every_gate_lies_in_the_root_cone(self, seed):
        # Variables above the inputs are exactly the gates, each after its
        # operands, and each read by the root through the gate list.
        f = random_formula(random.Random(seed), width=4, max_inputs=3, depth=4)
        cnf = bitblast(f)
        assert [g for g, _, _ in cnf.gates] == list(range(cnf.num_inputs + 2, cnf.num_vars + 1))
        for g, _, ops in cnf.gates:
            assert all(abs(op) < g for op in ops)
        reached = {abs(cnf.root)}
        for g, _, ops in reversed(cnf.gates):
            if g in reached:
                reached.update(abs(op) for op in ops)
        assert reached >= {g for g, _, _ in cnf.gates}

    def test_equalities_share_their_high_bits(self):
        # Chained from the MSB, x == 0 ... x == 7 share one chain over the
        # 29 upper zero bits; chained from the LSB, each builds its own
        # (284 variables).
        f = single_input_formula(32, lambda b, x: b.any_([b.eq(x, b.const(i, 32)) for i in range(8)]))
        assert bitblast(f).num_vars <= 90
        assert sat_solve(f).model == {"x": 0}

    def test_deadline_passing_while_clauses_are_written_raises(self, monkeypatch):
        f = miter_formula(32)
        assert bitblast(f).num_vars > 4096  # so writing the clauses polls the clock
        root_built = []

        def blast_node(bl, t, bits):
            out = _blast_node(bl, t, bits)
            if t is f.root:
                root_built.append(True)
            return out

        # The clock passes the deadline only once the root's gates exist.
        clock = SimpleNamespace(monotonic=lambda: 10.0 if root_built else 0.0)
        monkeypatch.setattr("cfv.bitblast._blast_node", blast_node)
        monkeypatch.setattr("cfv.errors.time", clock)
        f.builder.deadline = 1.0
        with pytest.raises(Timeout):
            bitblast(f)
        assert root_built

    @pytest.mark.parametrize(
        "case, least",
        [
            ("ite condition", (3, 0, False, False)),
            ("xor operand", (0, 1, False, False)),
            ("negated operand", (3, 5, False, False)),
            ("shared and", (0, 5, False, True)),
        ],
    )
    def test_each_gate_writes_the_sides_its_readers_need(self, case, least):
        # Without a side some gate needs, the clauses admit a model below
        # the least one: the shifter's select bits are read only as ite
        # conditions, the xor's operands only by the xor, x < 3 only
        # negated, and x < 3 && y == 5 by two and gates, neither of which
        # may absorb it.
        b = TermBuilder()
        x, y = b.input("x", 4), b.input("y", 4)
        p, q = b.input("p", BOOL), b.input("q", BOOL)
        c = lambda v: b.const(v, 4)
        shared = b.and_(b.slt(x, c(3)), b.eq(y, c(5)))
        root = {
            "ite condition": b.ne(b.band(b.shl(c(1), b.add(x, c(1))), c(1)), c(0)),
            "xor operand": b.xor(b.eq(y, c(0)), b.eq(x, c(0))),
            "negated operand": b.and_(b.not_(b.slt(x, c(3))), b.eq(y, c(5))),
            "shared and": b.or_(b.and_(shared, p), b.and_(shared, q)),
        }[case]
        f = Formula(b, root, (x, y, p, q))
        model = dict(zip("xypq", least))
        assert learned_model(f) == exhaustive_solve(f).model == model

    def test_absorbed_conjunctions_merge_repeats_and_drop_tautologies(self):
        # The root reads the top and gate negated, so only its clause of
        # f(ops) -> g is written, over the conjuncts of the two and gates it
        # absorbs: p once, or no clause at all when p meets !p, as that
        # clause always holds.
        b = TermBuilder()
        p, q, r = (b.input(name, BOOL) for name in "pqr")
        for second, lengths in ((p, [1, 1, 4]), (b.not_(p), [1, 1])):
            f = Formula(b, b.not_(b.and_(b.and_(p, q), b.and_(second, r))), (p, q, r))
            cnf = bitblast(f)
            check_cnf(cnf)
            assert sorted(map(len, cnf.clauses)) == lengths
            assert learned_model(f) == exhaustive_solve(f).model

    def test_core_route_least_models_match_enumeration(self, monkeypatch):
        # Above the simulation cut the learning core searches the clauses,
        # which hold each gate only on the sides the root needs; its least
        # model must still be the enumeration's. A lower bound on the last
        # input keeps most least models off zero.
        blasted = []
        monkeypatch.setattr("cfv.solver.bitblast", lambda f: blasted.append(bitblast(f)) or blasted[-1])
        rng = random.Random(1720)
        checked = sats = 0
        while checked < 60:
            width = rng.choice((6, 9, 10))
            f = random_formula(rng, width=width, max_inputs=3, depth=4)
            if f.root.is_const or not SIM_MAX_INPUT_BITS < input_bits(f) <= EXHAUSTIVE_BIT_CAP:
                continue
            b, x = f.builder, f.inputs[-1]
            low = b.const(rng.randrange(1 << width), width)
            f = Formula(b, b.and_(f.root, b.slt(low, x)), f.inputs)
            before = len(blasted)
            fast, slow = sat_solve(f), exhaustive_solve(f)
            assert type(fast) is type(slow)
            if isinstance(fast, Sat):
                assert fast.model == slow.model
                sats += 1
            for cnf in blasted[before:]:
                assert cnf.gates is None
                check_cnf(cnf)
            checked += 1
        assert len(blasted) > 50 and 30 < sats < 60, (len(blasted), sats)

    def test_cnf_shape_invariants(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_formula(rng, width=4, max_inputs=3, depth=4)
            if f.root.is_const:
                continue
            cnf = bitblast(f)
            check_cnf(cnf)  # no empty/tautological clauses, indices in range


def test_signed_helpers():
    assert to_signed(15, 4) == -1
    assert to_signed(7, 4) == 7
    assert to_signed(8, 4) == -8
