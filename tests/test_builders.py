"""The term and gate constructors against oracles that share no code with
them, and the determinism and identity their hash-consing promises.

* Terms: every formula and ite pair the generators build agrees, on every
  valuation at widths 3 to 6, with the plain tree built beside it
  (oracles.evaluate_tree), and so does every affine equality against a
  constant that eq solves at the word level.
* Gates: each bitblast gate constructor, over every choice of operands
  from {TRUE, FALSE, x, -x, y, -y, z, -z}, returns a literal whose value,
  read through the blaster's gate cache, is the Python truth function.
* Two builders fed the same seeds build the same nodes in the same order
  and the same CNF, and share no node.
"""

import random
from itertools import permutations, product

import numpy as np
import pytest

from cfv.bitblast import TRUE_LIT, _Blaster, bitblast
from cfv.terms import _CONSTRUCTOR, BOOL, TermBuilder, postorder

from generators import random_formula, random_formula_with_tree, random_ite_pair_with_trees
from oracles import bulk_evaluate, evaluate_tree


def every_valuation(inputs):
    """Every valuation of the inputs: int64 lanes for evaluate_tree, and
    the same lanes as uint64 for bulk_evaluate."""
    widths = [max(t.width, 1) for t in inputs]
    idx = np.arange(1 << sum(widths), dtype=np.int64)
    tree_env, shift = {}, 0
    for t, w in zip(inputs, widths):
        lane = (idx >> shift) & ((1 << w) - 1)
        tree_env[t.name] = lane.astype(bool) if t.width == BOOL else lane
        shift += w
    term_env = {k: v if v.dtype == bool else v.astype(np.uint64) for k, v in tree_env.items()}
    return tree_env, term_env, idx.shape


def assert_agree(term, tree, width, envs, context):
    tree_env, term_env, shape = envs
    built = np.broadcast_to(bulk_evaluate(term, term_env), shape)
    expected = np.broadcast_to(evaluate_tree(tree, tree_env, width), shape)
    if term.width != BOOL:
        built = built.astype(np.int64)
    assert np.array_equal(built, expected), (context, term)


class TestRewriteOracle:
    @pytest.mark.parametrize("width", [3, 4, 5, 6])
    def test_formulas_agree_with_their_trees(self, width):
        for seed in range(120):
            rng = random.Random(width * 1000 + seed)
            f, tree = random_formula_with_tree(rng, width, max_inputs=3 if width < 5 else 2)
            assert_agree(f.root, tree, width, every_valuation(f.inputs), seed)

    @pytest.mark.parametrize("width", [3, 4, 5, 6])
    def test_ite_pairs_and_their_equality_agree_with_their_trees(self, width):
        for seed in range(60):
            rng = random.Random(width * 1000 + seed)
            b, x, y, inputs, tx, ty = random_ite_pair_with_trees(rng, width)
            envs = every_valuation(inputs)
            assert_agree(x, tx, width, envs, seed)
            assert_agree(y, ty, width, envs, seed)
            assert_agree(b.eq(x, y), ("==", tx, ty), width, envs, seed)

    @pytest.mark.parametrize("width", [3, 4, 5, 6])
    def test_affine_equalities_agree_with_their_trees(self, width):
        # For every c, d and odd k: k*x + d == c, d - x == c, x + d == x + c
        # and (g ? x + d : y) == c. Each sum is a bijection of x, or cancels
        # to a constant, so eq builds no sum or product.
        b = TermBuilder()
        x, y, g = b.input("x", width), b.input("y", width), b.input("g", BOOL)
        X, Y, G = ("var", "x"), ("var", "y"), ("var", "g")
        over_x, over_xyg = every_valuation((x,)), every_valuation((x, y, g))
        word = lambda v: b.const(v, width)
        values = range(1 << width)
        for d, c in product(values, values):
            D, C = ("const", d), ("const", c)
            cases = [
                (b.eq(b.add(b.mul(word(k), x), word(d)), word(c)),
                 ("==", ("+", ("*", ("const", k), X), D), C), over_x)
                for k in range(1, 1 << width, 2)
            ]
            cases += [
                (b.eq(b.sub(word(d), x), word(c)), ("==", ("-", D, X), C), over_x),
                (b.eq(b.add(x, word(d)), b.add(x, word(c))), ("==", ("+", X, D), ("+", X, C)), over_x),
                (b.eq(b.ite(g, b.add(x, word(d)), y), word(c)),
                 ("==", ("ite", G, ("+", X, D), Y), C), over_xyg),
            ]
            for term, tree, envs in cases:
                assert_agree(term, tree, width, envs, tree)
                assert {t.op for t in postorder(term)}.isdisjoint({"add", "sub", "mul"}), tree

    def test_the_tree_evaluator_reads_c_semantics(self):
        # At width 4, 13 is -3 and -3 >> 1 is -2, or 14; 5 << 5 shifts by
        # 5 & 3 = 1; -5 is 11. At width 3, 6 is -2, so 6 < 1 holds.
        def at(tree, width):
            return np.atleast_1d(evaluate_tree(tree, {"a": np.array([5])}, width))[0]

        assert at((">>", ("const", 13), ("const", 1)), 4) == 14
        assert at(("<<", ("var", "a"), ("const", 5)), 4) == 10
        assert at(("neg", ("var", "a")), 4) == 11
        assert at(("<", ("const", 6), ("const", 1)), 3)


def gate_values(bl, x, y, z):
    """Truth value of every literal of bl's circuit with inputs x, y, z."""
    value = {TRUE_LIT: True, 2: x, 3: y, 4: z}

    def lit(l):
        return value[abs(l)] == (l > 0)

    for (kind, *ops), g in bl.gate_cache.items():
        a = [lit(o) for o in ops]
        if kind == "and":
            value[g] = a[0] and a[1]
        elif kind == "xor":
            value[g] = a[0] != a[1]
        elif kind == "maj":
            value[g] = sum(a) >= 2
        else:
            value[g] = a[1] if a[0] else a[2]
    return lit


GATES = {
    "and_gate": (2, lambda a, b: a and b),
    "or_gate": (2, lambda a, b: a or b),
    "xor_gate": (2, lambda a, b: a != b),
    "maj_gate": (3, lambda a, b, c: a + b + c >= 2),
    "ite_gate": (3, lambda c, a, b: a if c else b),
}


class TestGateConstructors:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_gates_compute_their_truth_function(self, name):
        arity, truth = GATES[name]
        bl = _Blaster(None)
        x, y, z = bl.new_var(), bl.new_var(), bl.new_var()
        literals = (TRUE_LIT, -TRUE_LIT, x, -x, y, -y, z, -z)
        calls = [(ops, getattr(bl, name)(*ops)) for ops in product(literals, repeat=arity)]
        for valuation in product((False, True), repeat=3):
            lit = gate_values(bl, *valuation)
            for ops, out in calls:
                assert lit(out) == truth(*map(lit, ops)), (ops, valuation)

    def test_maj_ignores_the_order_of_its_operands(self):
        bl = _Blaster(None)
        x, y, z = bl.new_var(), bl.new_var(), bl.new_var()
        literals = (TRUE_LIT, -TRUE_LIT, x, -x, y, -y, z, -z)
        for ops in product(literals, repeat=3):
            assert len({bl.maj_gate(*p) for p in permutations(ops)}) == 1, ops


def node_sequence(builder):
    """(op, uid, operand uids, width, value, name) of every node, in
    creation order."""
    return [
        (t.op, t.uid, tuple(a.uid for a in t.args), t.width, t.value, t.name)
        for t in builder._table.values()
    ]


def cnf_parts(cnf):
    return cnf.num_vars, cnf.clauses, cnf.gates, cnf.input_bits, cnf.root


class TestDeterminismAndIdentity:
    SEEDS = range(60)

    @staticmethod
    def twice(seed):
        width = 3 + seed % 4
        return [random_formula(random.Random(seed), width) for _ in range(2)]

    def test_same_seed_same_nodes_and_cnf(self):
        for seed in self.SEEDS:
            f, g = self.twice(seed)
            assert node_sequence(f.builder) == node_sequence(g.builder), seed
            assert [t.uid for t in f.builder._table.values()] == list(range(f.builder._uid))
            if not f.root.is_const:
                assert cnf_parts(bitblast(f)) == cnf_parts(bitblast(g)), seed

    def test_nodes_are_interned_on_their_own_fields(self):
        for seed in self.SEEDS:
            b = self.twice(seed)[0].builder
            for key, t in list(b._table.items()):
                assert t.is_const == (t.op == "const")
                assert key == (t.op, t.args, t.width, t.value, t.name)
                assert key[1] is t.args
                assert b._mk(t.op, t.args, t.width, t.value, t.name) is t
                if t.args:
                    build = getattr(b, _CONSTRUCTOR.get(t.op, t.op))
                    assert build(*t.args) is build(*t.args)

    def test_builders_share_no_node(self):
        for seed in self.SEEDS:
            f, g = self.twice(seed)
            ours = {id(t) for t in f.builder._table.values()}
            assert ours.isdisjoint(id(t) for t in g.builder._table.values())
            for key in f.builder._table:
                assert all(id(a) in ours for a in key[1])
            assert f.builder.const(3, 4) is not g.builder.const(3, 4)
