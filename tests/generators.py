"""Seeded random generators for the oracle-based test campaigns.

Three families, all deterministic per seed, plus a resized corpus module:

* random formulas over a few small-width inputs, for solver agreement
  against the exhaustive enumerator, and random pairs of ite DAGs, for
  TermBuilder.eq;
* random function pairs (original plus a mutation), for equivalence-verdict
  agreement against brute-force interpretation over every input;
* random nondet-free test bodies over a small fixture snapshot, for
  encoder/interpreter agreement;
* minivec_sources, the corpus vector module with a larger buffer, for
  deadline tests that need a miter too large to finish in time.

`normalize_alpha` renames a function canonically. It serves the rename
mutation and is the reference that `cfv.minic.normalize.alpha_key` is
checked against.

Generated loops are counting loops with at most three iterations so a bound
of four unrolls them completely, keeping bounded and unbounded semantics
identical, which is what lets plain interpretation serve as ground truth.
"""

from __future__ import annotations

import random
from dataclasses import replace

from cfv.minic import ast
from cfv.minic.ast import DUMMY_SPAN as S
from cfv.minic.printer import format_unit
from cfv.minic.typecheck import type_check
from cfv.snapshot import Snapshot, snapshot_from_sources
from cfv.terms import BOOL, Formula, Term, TermBuilder
from oracles import CORPUS

INT_BIN_OPS = ("+", "-", "*", "&", "|", "^", "<<", ">>")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


# ---------------------------------------------------------------------------
# Formulas


def random_formula(
    rng: random.Random, width: int = 4, max_inputs: int = 3, depth: int = 4
) -> Formula:
    return random_formula_with_tree(rng, width, max_inputs, depth)[0]


def random_formula_with_tree(
    rng: random.Random, width: int = 4, max_inputs: int = 3, depth: int = 4
) -> tuple[Formula, tuple]:
    """random_formula and, built beside it, the same expression as a plain
    tree for oracles.evaluate_tree: ("const", value), ("var", name) or
    (op, *operands), op one of the C operators, "neg" (unary minus), "ite"
    and the boolean "and", "or", "xor" and "not". random_formula draws
    the same numbers, so one seed gives one formula either way."""
    b = TermBuilder()
    n_inputs = rng.randint(1, max_inputs)
    inputs = [b.input(f"x{i}", width) for i in range(n_inputs)]
    build = {
        "+": b.add, "-": b.sub, "*": b.mul, "&": b.band,
        "|": b.bor, "^": b.bxor, "<<": b.shl, ">>": b.ashr,
        "~": b.bnot, "neg": b.neg, "ite": b.ite,
        "<": b.slt, "<=": b.sle, "==": b.eq, "!=": b.ne,
        ">": lambda p, q: b.slt(q, p), ">=": lambda p, q: b.sle(q, p),
        "and": b.and_, "or": b.or_, "xor": b.xor, "not": b.not_,
    }

    def node(op: str, *operands: tuple[Term, tuple]) -> tuple[Term, tuple]:
        term = build[op](*[t for t, _ in operands])
        return term, (op, *[tree for _, tree in operands])

    def bv(d: int) -> tuple[Term, tuple]:
        if d == 0 or rng.random() < 0.3:
            if rng.random() < 0.4:
                value = rng.randrange(1 << width)
                return b.const(value, width), ("const", value)
            x = rng.choice(inputs)
            return x, ("var", x.name)
        op = rng.choice(INT_BIN_OPS + ("~", "neg", "ite"))
        if op in ("~", "neg"):
            return node(op, bv(d - 1))
        if op == "ite":
            return node("ite", bl(d - 1), bv(d - 1), bv(d - 1))
        return node(op, bv(d - 1), bv(d - 1))

    def bl(d: int) -> tuple[Term, tuple]:
        if d == 0 or rng.random() < 0.25:
            op = rng.choice(CMP_OPS)
            return node(op, bv(max(d - 1, 0)), bv(max(d - 1, 0)))
        op = rng.choice(("and", "or", "not", "xor"))
        if op == "not":
            return node("not", bl(d - 1))
        return node(op, bl(d - 1), bl(d - 1))

    root, tree = bl(depth)
    return Formula(b, root, tuple(inputs)), tree


def random_ite_pair(
    rng: random.Random, width: int = 4
) -> tuple[TermBuilder, Term, Term, tuple[Term, ...]]:
    """Two random ite DAGs over one builder, for TermBuilder.eq.

    Both grow from one pool, so they share guards, leaves and whole
    sub-DAGs; guards may be negated, so equal values can sit behind
    different guards, and some leaves are constants. Returns the builder,
    the two roots and the inputs: 2 * width + 3 bits.
    """
    return random_ite_pair_with_trees(rng, width)[:4]


def random_ite_pair_with_trees(
    rng: random.Random, width: int = 4
) -> tuple[TermBuilder, Term, Term, tuple[Term, ...], tuple, tuple]:
    """random_ite_pair plus the two roots as plain trees in the form of
    random_formula_with_tree; a subtree the pool shares is one tuple."""
    b = TermBuilder()
    xs = [b.input(f"x{i}", width) for i in range(2)]
    cs = [b.input(f"c{i}", BOOL) for i in range(3)]
    value = rng.randrange(1 << width)
    k = b.const(value, width)
    x_trees = [("var", x.name) for x in xs]
    guards = cs + [b.slt(xs[0], xs[1]), b.eq(xs[0], k)]
    guard_trees = [("var", c.name) for c in cs] + [
        ("<", *x_trees), ("==", x_trees[0], ("const", value))
    ]
    other = rng.randrange(1 << width)
    nodes = xs + [k, b.const(other, width), b.add(xs[0], xs[1])]
    trees = x_trees + [("const", value), ("const", other), ("+", *x_trees)]
    for _ in range(rng.randint(2, 14)):
        g = rng.randrange(len(guards))
        guard, guard_tree = guards[g], guard_trees[g]
        if rng.random() < 0.3:
            guard, guard_tree = b.not_(guard), ("not", guard_tree)
        i, j = rng.randrange(len(nodes)), rng.randrange(len(nodes))
        nodes.append(b.ite(guard, nodes[i], nodes[j]))
        trees.append(("ite", guard_tree, trees[i], trees[j]))
    r, s = rng.randrange(6), rng.randrange(6)
    return b, nodes[-6:][r], nodes[-6:][s], tuple(xs + cs), trees[-6:][r], trees[-6:][s]


# ---------------------------------------------------------------------------
# Function pairs


class FunctionGen:
    """Random single-function programs: 1-2 int parameters, optionally one
    int global, straight-line/branching/counting-loop bodies."""

    def __init__(self, rng: random.Random, width: int = 4, with_global: bool = False):
        self.rng = rng
        self.width = width
        self.with_global = with_global
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def int_expr(self, vars_: list[str], depth: int) -> ast.Expr:
        rng = self.rng
        if depth == 0 or rng.random() < 0.35:
            if vars_ and rng.random() < 0.7:
                return ast.VarRef(S, rng.choice(vars_))
            return ast.IntLit(S, rng.randrange(1 << self.width))
        if rng.random() < 0.15:
            op = rng.choice(("-", "~"))
            return ast.Unary(S, op, self.int_expr(vars_, depth - 1))
        op = rng.choice(INT_BIN_OPS)
        return ast.Binary(
            S, op, self.int_expr(vars_, depth - 1), self.int_expr(vars_, depth - 1)
        )

    def bool_expr(self, vars_: list[str], depth: int) -> ast.Expr:
        rng = self.rng
        if depth == 0 or rng.random() < 0.5:
            op = rng.choice(CMP_OPS)
            return ast.Binary(
                S, op, self.int_expr(vars_, depth), self.int_expr(vars_, depth)
            )
        op = rng.choice(("&&", "||"))
        left = self.bool_expr(vars_, depth - 1)
        right = self.bool_expr(vars_, depth - 1)
        if rng.random() < 0.2:
            left = ast.Unary(S, "!", left)
        return ast.Binary(S, op, left, right)

    def statements(self, vars_: list[str], writable: list[str], budget: int) -> list[ast.Stmt]:
        rng = self.rng
        out: list[ast.Stmt] = []
        local_vars = list(vars_)
        local_writable = list(writable)
        while budget > 0:
            budget -= 1
            kind = rng.random()
            if kind < 0.35:
                name = self.fresh()
                out.append(
                    ast.VarDecl(
                        S, name, ast.IntType(), self.int_expr(local_vars, 2)
                    )
                )
                local_vars.append(name)
                local_writable.append(name)
            elif kind < 0.65 and local_writable:
                target = rng.choice(local_writable)
                out.append(
                    ast.Assign(S, ast.VarRef(S, target), self.int_expr(local_vars, 2))
                )
            elif kind < 0.85:
                then_body = ast.Block(S, self.statements(local_vars, local_writable, 1))
                else_body = None
                if rng.random() < 0.5:
                    else_body = ast.Block(
                        S, self.statements(local_vars, local_writable, 1)
                    )
                out.append(
                    ast.If(S, self.bool_expr(local_vars, 1), then_body, else_body)
                )
            else:
                counter = self.fresh()
                bound = rng.randint(1, 3)
                body = self.statements(local_vars, local_writable, 1)
                body.append(
                    ast.Assign(
                        S,
                        ast.VarRef(S, counter),
                        ast.Binary(S, "+", ast.VarRef(S, counter), ast.IntLit(S, 1)),
                    )
                )
                out.append(ast.VarDecl(S, counter, ast.IntType(), ast.IntLit(S, 0)))
                out.append(
                    ast.While(
                        S,
                        ast.Binary(S, "<", ast.VarRef(S, counter), ast.IntLit(S, bound)),
                        ast.Block(S, body),
                    )
                )
        return out

    def function(self) -> ast.SourceUnit:
        rng = self.rng
        n_params = rng.randint(1, 2)
        params = [ast.Param(f"p{i}", ast.IntType(), S) for i in range(n_params)]
        vars_ = [p.name for p in params]
        writable = list(vars_)
        decls: list[ast.GlobalDecl | ast.FunctionDef] = []
        if self.with_global:
            decls.append(ast.GlobalDecl("g", ast.IntType(), None, S))
            vars_.append("g")
            writable.append("g")
        stmts = self.statements(vars_, writable, self.rng.randint(1, 3))
        stmts.append(ast.Return(S, self.int_expr(vars_, 2)))
        fn = ast.FunctionDef(
            "f", params, ast.IntType(), ast.Block(S, stmts), span=S
        )
        decls.append(fn)
        return ast.SourceUnit("gen.c", decls)


# ---------------------------------------------------------------------------
# Canonical alpha renaming
#
# Parameters become p0, p1, ... in signature order; locals become v0, v1, ...
# in declaration order; recursive calls and the function's own name are
# replaced by a fixed placeholder. Globals and calls to other functions keep
# their names, so a global named like a canonical local would be confused
# with it; the generators declare only the global `g`.

SELF_PLACEHOLDER = "$self"


class _Renamer:
    def __init__(self, fn: ast.FunctionDef):
        self.fn_name = fn.name
        self.counter = 0
        self.scopes: list[dict[str, str]] = [
            {p.name: f"p{i}" for i, p in enumerate(fn.params)}
        ]

    def resolve(self, name: str) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return name  # a global

    def expr(self, e: ast.Expr) -> ast.Expr | None:
        if isinstance(e, ast.VarRef):
            return ast.VarRef(e.span, self.resolve(e.name), e.slot)
        if isinstance(e, ast.ArrayIndex):
            index = ast.map_expr(e.index, self.expr)
            return ast.ArrayIndex(e.span, self.resolve(e.name), index, e.slot)
        if isinstance(e, ast.Call) and e.name == self.fn_name:
            args = [ast.map_expr(a, self.expr) for a in e.args]
            return ast.Call(e.span, SELF_PLACEHOLDER, args)
        return None

    def stmt(self, s: ast.Stmt) -> ast.Stmt | None:
        if isinstance(s, ast.Block):
            self.scopes.append({})
            stmts = [ast.map_stmt(x, self.expr, self.stmt) for x in s.stmts]
            self.scopes.pop()
            return ast.Block(s.span, stmts)
        if isinstance(s, ast.VarDecl):
            init = None if s.init is None else ast.map_expr(s.init, self.expr)
            new = f"v{self.counter}"
            self.counter += 1
            self.scopes[-1][s.name] = new
            return ast.VarDecl(s.span, new, s.declared_type, init, s.slot)
        return None


def normalize_alpha(fn: ast.FunctionDef) -> ast.FunctionDef:
    """Return a canonically renamed copy of fn. Deterministic and idempotent."""
    renamer = _Renamer(fn)
    return replace(
        fn,
        name=SELF_PLACEHOLDER,
        params=[replace(p, name=f"p{i}") for i, p in enumerate(fn.params)],
        body=ast.map_stmt(fn.body, renamer.expr, renamer.stmt),
    )


def _mutation_points(fn: ast.FunctionDef):
    """Mutable expressions, excluding loop conditions and counter updates
    so every mutant still unrolls completely at the oracle bound."""
    counters = {
        n.cond.left.name
        for n in ast.preorder(fn.body)
        if isinstance(n, ast.While)
        and isinstance(n.cond, ast.Binary)
        and isinstance(n.cond.left, ast.VarRef)
    }
    points = []
    skip = False  # whether the statement that owns the next expressions is skipped
    for node in ast.preorder(fn.body):
        if isinstance(node, ast.Stmt):
            skip = isinstance(node, ast.While) or (
                isinstance(node, ast.Assign)
                and isinstance(node.target, ast.VarRef)
                and node.target.name in counters
            )
        elif not skip and isinstance(node, (ast.Binary, ast.IntLit)):
            points.append(node)
    return points


def mutate_function(rng: random.Random, unit: ast.SourceUnit, width: int) -> ast.SourceUnit:
    """A randomly mutated copy; the mutation may or may not change behavior.

    Ground truth comes from the brute-force oracle, so no mutation needs a
    known outcome.
    """
    text = format_unit(unit)
    from cfv.minic.parser import parse_unit

    copy = parse_unit(text, unit.path)
    fn = copy.functions[0]
    choice = rng.random()
    if choice < 0.2:
        return copy  # byte-identical apart from layout
    if choice < 0.35:
        renamed = normalize_alpha(fn)
        renamed.name = fn.name
        for i, decl in enumerate(copy.declarations):
            if isinstance(decl, ast.FunctionDef):
                copy.declarations[i] = renamed
        return copy
    points = _mutation_points(fn)
    if not points:
        return copy
    target = rng.choice(points)
    if isinstance(target, ast.IntLit):
        target.value = (target.value + rng.choice((1, -1))) % (1 << width)
        return copy
    if rng.random() < 0.5:
        target.left, target.right = target.right, target.left
    else:
        families = (("+", "-"), ("&", "|", "^"), ("<", "<=", ">", ">="), ("==", "!="))
        for family in families:
            if target.op in family:
                target.op = rng.choice([op for op in family if op != target.op] or [target.op])
                break
    return copy


def random_pair(
    rng: random.Random, width: int = 4, with_global: bool = False
) -> tuple[Snapshot, Snapshot]:
    """An (old, new) snapshot pair around one generated function "f"."""
    gen = FunctionGen(rng, width, with_global)
    unit = gen.function()
    old_text = format_unit(unit)
    new_unit = mutate_function(rng, unit, width)
    new_text = format_unit(new_unit)
    old = snapshot_from_sources({"gen.c": old_text}, "old", width)
    new = snapshot_from_sources({"gen.c": new_text}, "new", width)
    return old, new


# ---------------------------------------------------------------------------
# Nondet-free tests

FIXTURE_SOURCE = """
int acc = 0;
int buf[3];

int add_clip(int a, int b) {
    int s = a + b;
    if (s < a) { return a; }
    return s;
}

int scale(int x, int k) {
    int r = 0;
    int i = 0;
    while (i < k && i < 3) {
        r = r + x;
        i = i + 1;
    }
    return r;
}

void stash(int idx, int val) {
    buf[idx] = val;
    acc = acc + val;
}

int fetch(int idx) {
    return buf[idx];
}

int bump(int v) {
    buf[0] = v;
    return v + 1;
}

void restash(int idx, int val) {
    buf[1 + (idx & 1)] = bump(val);
    assert(buf[0] == val);
}

int wide[12];

void wide_put(int idx, int val) {
    wide[idx] = val;
}

int wide_get(int idx) {
    return wide[idx];
}
"""


def fixture_snapshot(width: int = 4) -> Snapshot:
    return snapshot_from_sources({"fixture.c": FIXTURE_SOURCE}, "fixture", width)


class RandomTestGen:
    """Random nondet-free test bodies over the fixture snapshot.

    Some asserts hold and some do not; some array accesses go out of
    bounds. `wide` has more elements than an index of width 4 can select, and
    `restash` stores a value whose call writes the same array. Assumes, at top level and under `if`, come before and after
    asserts, so a failed check can precede a failed assume: the run stops
    at whichever fails first. The point is agreement between the encoder
    and the interpreter, not test health.
    """

    def __init__(self, rng: random.Random, width: int = 4):
        self.rng = rng
        self.gen = FunctionGen(rng, width)
        self.width = width

    def call_expr(self, vars_: list[str]) -> ast.Expr:
        rng = self.rng
        name = rng.choice(("add_clip", "scale", "fetch", "wide_get"))
        if name in ("fetch", "wide_get"):
            return ast.Call(S, name, [self.gen.int_expr(vars_, 1)])
        return ast.Call(
            S, name, [self.gen.int_expr(vars_, 1), self.gen.int_expr(vars_, 1)]
        )

    def check(self, vars_: list[str]) -> ast.Stmt:
        """An assert or, less often, an assume of a random condition."""
        kind = ast.Assert if self.rng.random() < 0.6 else ast.Assume
        return kind(S, self.gen.bool_expr(vars_, 1))

    def body(self) -> ast.FunctionDef:
        rng = self.rng
        self.gen.counter = 0
        vars_: list[str] = []
        stmts: list[ast.Stmt] = []
        for _ in range(rng.randint(2, 5)):
            roll = rng.random()
            if roll < 0.45 or not vars_:
                name = self.gen.fresh()
                init = (
                    self.call_expr(vars_)
                    if rng.random() < 0.5
                    else self.gen.int_expr(vars_, 2)
                )
                stmts.append(ast.VarDecl(S, name, ast.IntType(), init))
                vars_.append(name)
            elif roll < 0.6:
                stmts.append(
                    ast.ExprStmt(
                        S,
                        ast.Call(
                            S,
                            rng.choice(("stash", "restash", "wide_put")),
                            [self.gen.int_expr(vars_, 1), self.gen.int_expr(vars_, 1)],
                        ),
                    )
                )
            elif roll < 0.8:
                stmts.append(self.check(vars_))
            else:
                then_body = ast.Block(
                    S, [self.check(vars_) for _ in range(rng.randint(1, 2))]
                )
                stmts.append(ast.If(S, self.gen.bool_expr(vars_, 1), then_body, None))
        stmts.append(ast.Assert(S, self.gen.bool_expr(vars_, 1)))
        return ast.FunctionDef(
            "test_generated", [], ast.VoidType(), ast.Block(S, stmts), span=S
        )

    def test_case(self):
        from cfv.harness import TestCase

        body = self.body()
        # Round-trip through the printer and parser so spans are real; the
        # encoder keys nondet sites by byte offset and tests stay honest.
        unit = ast.SourceUnit("gen_test.c", [body])
        text = format_unit(unit)
        from cfv.minic.parser import parse_unit

        parsed = parse_unit(text, "gen_test.c")
        # Checked against the fixture view, as load_tests checks test units.
        view = fixture_snapshot(self.width)
        type_check(view.units + [parsed], (view.globals, view.functions))
        return TestCase("test_generated", "generated", parsed.functions[0]), text


def minivec_sources(capacity: int) -> dict[str, str]:
    """The old and new corpus minivec sources, keyed by side, with a data
    buffer of capacity elements instead of 8. Every 8 in vec.c is that
    capacity."""
    return {
        side: (CORPUS / "minivec" / side / "vec.c").read_text().replace("8", str(capacity))
        for side in ("old", "new")
    }
