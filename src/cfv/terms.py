"""Bitvector/boolean term DAGs, the formula carrier for all solving paths.

Terms are immutable and hash-consed per TermBuilder: structurally identical
terms built through one builder are the same object, so untouched state
compared against itself folds away before any solver sees it; the table
keys a node on its operands' identity (see Term). Builders also apply
deterministic constant folding and a few algebraic identities; the same
construction sequence always yields the same DAG.

Width 0 denotes bool. Bitvector values are kept as unsigned residues modulo
2**width; comparisons are signed two's complement, shift amounts are masked
with width - 1 (taken modulo the width at power-of-two widths), and right
shift is arithmetic.

Equality of bitvectors is pushed through if-then-else, so that guarded
state updates over a shared initial value compare equal wherever both sides
kept that value, without a search (see TermBuilder.eq). Two ites under
different guards are compared leaf by leaf, through selection conditions;
under one guard, or against a non-ite, the push stays linear.

A Formula is a bool root plus the ordered list of input symbols. The order
fixes the meaning of "lexicographically least model" everywhere: valuations
are compared as tuples of unsigned input values in slot order.

A check's builder holds its deadline, the only copy of it: encoding, the
miter and every stage of solver.sat_solve read it from a Formula's builder,
and each poll goes through errors.check_deadline. The builder polls it
itself once per _MK_POLL_EVERY new nodes, so no construction that creates
many nodes outlives it by much.

Query data is acyclic and is freed by reference counting: a term points
only at older terms, the CNF is tuples of ints, and the solver's state holds
no reference cycles. The cyclic garbage collector would only re-walk it, so
the entry points that build and drop it run under collector_paused().
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass

from cfv import errors

BOOL = 0

# TermBuilder._mk reads the clock once per this many new nodes; lookups of
# existing nodes never read it.
_MK_POLL_EVERY = 4096

# TermBuilder.eq reads the clock once per this many new cached pairs,
# compared leaf pairs and ite nodes given a selection condition: about 1 ms
# of miter building on minivec's vec_insert.
_EQ_POLL_EVERY = 128

_COMMUTATIVE = frozenset({"add", "mul", "band", "bor", "bxor", "and", "or", "xor", "eq"})

# The TermBuilder method that builds each op, where it is not the op's name.
_CONSTRUCTOR = {"not": "not_", "and": "and_", "or": "or_"}

# The ops whose args[0], once constant, can settle the node without the
# other operands (see TermBuilder.substitute).
_SHORT_CIRCUIT = frozenset({"and", "or", "ite"})


def _is_linear(t: "Term") -> bool:
    """Whether t is a node of the linear normal form that TermBuilder gives
    sums: an add, a sub, or a constant multiple (constant first)."""
    return t.op in ("add", "sub") or (t.op == "mul" and t.args[0].is_const)


@contextmanager
def collector_paused():
    """Suspend the cyclic garbage collector for the block (or, as a
    decorator, for each call); reference counting still frees everything.
    Collection resumes only if it was enabled before, so nesting is safe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Term:
    """One node of a builder's DAG; it hashes and compares by identity.

    The builder's table keys a node on (op, args, width, value, name), args
    being the operand Terms themselves, which the builder keeps alive. uid
    numbers nodes in creation order and is the only order used, so nothing
    depends on id(). is_const is a field: every constructor's folding reads it.
    """

    __slots__ = ("op", "args", "width", "value", "name", "uid", "is_const")

    def __init__(self, op, args, width, value, name, uid):
        self.op = op
        self.args = args
        self.width = width
        self.value = value
        self.name = name
        self.uid = uid
        self.is_const = op == "const"

    def __repr__(self) -> str:
        # No operands: a DAG shares them, and printing them as a tree would
        # grow exponentially with its depth.
        if self.op == "const":
            return f"c{self.value}:{self.width}#{self.uid}"
        if self.op == "input":
            return f"{self.name}:{self.width}#{self.uid}"
        return f"({self.op}:{self.width}#{self.uid})"


def mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def to_unsigned(value: int, width: int) -> int:
    return value & mask(width)


class TermBuilder:
    """Factory and intern table for terms.

    One builder per solving task; terms from different builders must not be
    mixed. All ops validate operand widths. With a deadline (a
    time.monotonic() value), every op raises errors.Timeout once it has
    passed and _MK_POLL_EVERY more nodes have been created; eq and
    substitute also poll as they work, since they can expand into thousands
    of nodes or cache hits. The encoder polls the same deadline through
    check_deadline.

    The builder keeps substitute's rebuilds for its lifetime, one memo per
    mapping, so a second root under the same mapping rebuilds only the
    nodes the first did not reach: solver.solve_bounded's completeness call
    shares most of its nodes with the query, and its cases are the query's.
    """

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self._table: dict[tuple, Term] = {}
        self._inputs: dict[str, Term] = {}
        self._eq_cache: dict[tuple[int, int], Term] = {}
        self._eq_work = 0
        # Linear decomposition per term: ((term, coeff), ...) plus constant.
        self._lin_cache: dict[int, tuple[tuple[tuple[Term, int], ...], int]] = {}
        # substitute's memo per mapping, keyed by its sorted (input uid,
        # term uid) pairs: the uid of each node rebuilt so far -> its result.
        self._substitutions: dict[tuple[tuple[int, int], ...], dict[int, Term]] = {}
        self._uid = 0
        self.true = self._mk("const", (), BOOL, 1, None)
        self.false = self._mk("const", (), BOOL, 0, None)

    def _mk(self, op, args, width, value=None, name=None) -> Term:
        key = (op, args, width, value, name)
        term = self._table.get(key)
        if term is None:
            term = Term(op, args, width, value, name, self._uid)
            self._uid += 1
            self._table[key] = term
            if not self._uid % _MK_POLL_EVERY:
                self.check_deadline()
        return term

    # -- leaves ---------------------------------------------------------------

    def const(self, value: int, width: int) -> Term:
        if width == BOOL:
            return self.true if value else self.false
        return self._mk("const", (), width, to_unsigned(value, width))

    def bool_const(self, value: bool) -> Term:
        return self.true if value else self.false

    def input(self, name: str, width: int) -> Term:
        term = self._inputs.get(name)
        if term is not None:
            if term.width != width:
                raise ValueError(
                    f"input {name!r} requested at width {width}, exists at {term.width}"
                )
            return term
        term = self._mk("input", (), width, None, name)
        self._inputs[name] = term
        return term

    # -- boolean layer ----------------------------------------------------------

    def not_(self, a: Term) -> Term:
        assert a.width == BOOL
        if a.is_const:
            return self.bool_const(not a.value)
        if a.op == "not":
            return a.args[0]
        return self._mk("not", (a,), BOOL)

    def and_(self, a: Term, b: Term) -> Term:
        assert a.width == BOOL and b.width == BOOL
        if a.is_const:
            return b if a.value else self.false
        if b.is_const:
            return a if b.value else self.false
        if a is b:
            return a
        if (a.op == "not" and a.args[0] is b) or (b.op == "not" and b.args[0] is a):
            return self.false
        a, b = self._sort2(a, b)
        return self._mk("and", (a, b), BOOL)

    def or_(self, a: Term, b: Term) -> Term:
        assert a.width == BOOL and b.width == BOOL
        if a.is_const:
            return self.true if a.value else b
        if b.is_const:
            return self.true if b.value else a
        if a is b:
            return a
        if (a.op == "not" and a.args[0] is b) or (b.op == "not" and b.args[0] is a):
            return self.true
        a, b = self._sort2(a, b)
        return self._mk("or", (a, b), BOOL)

    def xor(self, a: Term, b: Term) -> Term:
        assert a.width == BOOL and b.width == BOOL
        if a.is_const and b.is_const:
            return self.bool_const(bool(a.value) ^ bool(b.value))
        if a.is_const:
            return self.not_(b) if a.value else b
        if b.is_const:
            return self.not_(a) if b.value else a
        if a is b:
            return self.false
        a, b = self._sort2(a, b)
        return self._mk("xor", (a, b), BOOL)

    def implies(self, a: Term, b: Term) -> Term:
        return self.or_(self.not_(a), b)

    def all_(self, terms) -> Term:
        acc = self.true
        for t in terms:
            acc = self.and_(acc, t)
        return acc

    def any_(self, terms) -> Term:
        acc = self.false
        for t in terms:
            acc = self.or_(acc, t)
        return acc

    def _sort2(self, a: Term, b: Term) -> tuple[Term, Term]:
        return (a, b) if a.uid <= b.uid else (b, a)

    # -- comparisons ---------------------------------------------------------

    def eq(self, a: Term, b: Term) -> Term:
        if a.width != b.width:
            raise ValueError(f"eq width mismatch: {a.width} vs {b.width}")
        if a is b:
            return self.true
        if a.width == BOOL:
            return self.not_(self.xor(a, b))
        if a.is_const and b.is_const:
            return self.bool_const(a.value == b.value)
        if a.uid > b.uid:
            a, b = b, a
        key = (a.uid, b.uid)
        cached = self._eq_cache.get(key)
        if cached is not None:
            return cached
        # Push equality through if-then-else. Guarded state updates produce
        # deep ite chains over a shared initial value; compared as opaque
        # words, a SAT search could only find "both sides left it untouched,
        # hence equal" by enumerating the untouched value. Pushed through,
        # the shared leaf meets itself and eq(x, x) folds to true here.
        # - Same guard: ite(c, eq(t1, t2), eq(e1, e2)).
        # - Ite against a non-ite: ite(c, eq(t, b), eq(e, b)).
        #   Both add one node per pair and the pair cache bounds them by the
        #   distinct subterm pairs. Selection conditions here would build
        #   the same comparisons under larger guards: on the vec_count and
        #   vec_sum pairs of cfvbench's scale workload, checks took 1.5-2x
        #   as long.
        # - Different guards: splitting both guards at every level would
        #   multiply the two ite DAGs node by node (76k nodes against 8.7k
        #   on the width-32 vec_insert miter), so _leaf_pairs compares the
        #   leaves the two sides can select instead.
        if a.op == "ite" and b.op == "ite":
            c1, t1, e1 = a.args
            c2, t2, e2 = b.args
            if c1 is c2:
                result = self.ite(c1, self.eq(t1, t2), self.eq(e1, e2))
            else:
                result = self._leaf_pairs(a, b)
        elif a.op == "ite":
            c1, t1, e1 = a.args
            result = self.ite(c1, self.eq(t1, b), self.eq(e1, b))
        elif b.op == "ite":
            c2, t2, e2 = b.args
            result = self.ite(c2, self.eq(a, t2), self.eq(a, e2))
        elif _is_linear(a) or _is_linear(b):
            result = self._affine_eq(a, b)
        else:
            result = self._mk("eq", (a, b), BOOL)
        self._eq_cache[key] = result
        self._poll()
        return result

    def check_deadline(self) -> None:
        """Raise Timeout if the deadline has passed."""
        errors.check_deadline(self.deadline, "building terms")

    def _poll(self) -> None:
        """Count one unit of miter work; check the deadline once per
        _EQ_POLL_EVERY units."""
        self._eq_work += 1
        if self._eq_work % _EQ_POLL_EVERY == 0:
            self.check_deadline()

    def _leaf_pairs(self, a: Term, b: Term) -> Term:
        """eq(a, b) for two ites under different guards:
        OR over leaf pairs (L, M) of sel_a(L) and sel_b(M) and eq(L, M).

        Exact, because under any valuation each side selects exactly one
        leaf, the value it evaluates to. Its size is the product of the two
        leaf counts. The deadline is polled per pair.
        """
        sel_b = self._leaf_selections(b)
        result = self.false
        for leaf_a, cond_a in self._leaf_selections(a):
            for leaf_b, cond_b in sel_b:
                self._poll()
                same = self.eq(leaf_a, leaf_b)
                if same is not self.false:
                    picked = self.and_(cond_a, cond_b)
                    result = self.or_(result, self.and_(picked, same))
        return result

    def _leaf_selections(self, root: Term) -> list[tuple[Term, Term]]:
        """(leaf, selection condition) for each non-ite leaf of root's ite
        DAG, newest first. A leaf's condition is the OR of the guard paths
        from root that reach it; under any valuation exactly one condition
        holds, the one of the leaf root evaluates to. The deadline is
        polled per ite node."""
        nodes = {root.uid: root}
        stack = [root]
        while stack:
            term = stack.pop()
            if term.op == "ite":
                for branch in term.args[1:]:
                    if branch.uid not in nodes:
                        nodes[branch.uid] = branch
                        stack.append(branch)
        # A term is newer than its operands, so in descending uid order a
        # node's condition is complete before it is handed down.
        sel: dict[int, Term] = {root.uid: self.true}
        leaves: list[tuple[Term, Term]] = []
        for uid in sorted(nodes, reverse=True):
            term, cond = nodes[uid], sel[uid]
            if term.op != "ite":
                leaves.append((term, cond))
                continue
            self._poll()
            c, then, other = term.args
            for branch, guard in ((then, c), (other, self.not_(c))):
                picked = self.and_(cond, guard)
                prev = sel.get(branch.uid)
                sel[branch.uid] = picked if prev is None else self.or_(prev, picked)
        return leaves

    def _affine_eq(self, a: Term, b: Term) -> Term:
        """eq(a, b) for two words, at least one a sum or a constant
        multiple, neither an ite: decided by a - b in linear normal form
        (see _linear_parts)."""
        m = mask(a.width)
        if a.is_const or b.is_const:  # the common case, without a merge
            c, s = (a, b) if a.is_const else (b, a)
            parts, d = self._linear_parts(s)
            d = (d - c.value) & m
        else:
            parts, d = self._lin_merge(a, b, -1, m)
        if not parts:
            return self.bool_const(d == 0)
        if len(parts) == 1 and parts[0][1] & 1:
            t, k = parts[0]
            return self.eq(t, self.const(-d * pow(k, -1, m + 1), a.width))
        return self._mk("eq", (a, b), BOOL)

    def ne(self, a: Term, b: Term) -> Term:
        return self.not_(self.eq(a, b))

    def slt(self, a: Term, b: Term) -> Term:
        if a.width != b.width or a.width == BOOL:
            raise ValueError("slt needs equal bitvector widths")
        if a is b:
            return self.false
        if a.is_const and b.is_const:
            return self.bool_const(
                to_signed(a.value, a.width) < to_signed(b.value, b.width)
            )
        return self._mk("slt", (a, b), BOOL)

    def sle(self, a: Term, b: Term) -> Term:
        return self.not_(self.slt(b, a))

    def ite(self, c: Term, a: Term, b: Term) -> Term:
        assert c.width == BOOL
        if a.width != b.width:
            raise ValueError("ite branch width mismatch")
        if c.is_const:
            return a if c.value else b
        if a is b:
            return a
        if a.width == BOOL:
            # (c ? a : b) as a boolean gate network keeps the layer uniform.
            return self.or_(self.and_(c, a), self.and_(self.not_(c), b))
        return self._mk("ite", (c, a, b), a.width)

    # -- bitvector arithmetic -----------------------------------------------

    def _bv2(self, op: str, a: Term, b: Term, fold) -> Term:
        if a.width != b.width or a.width == BOOL:
            raise ValueError(f"{op} needs equal bitvector widths")
        if a.is_const and b.is_const:
            return self.const(fold(a.value, b.value, a.width), a.width)
        if op in _COMMUTATIVE:
            a, b = self._sort2(a, b)
        return self._mk(op, (a, b), a.width)

    # Sums normalize to one canonical linear combination: coefficients per
    # opaque term plus a constant, modulo 2**width. All associations and
    # orderings of the same sum become the same term, so differently written
    # but equal arithmetic folds away before it can burden the solver.
    # eq solves an equality against a sum at the word level before any
    # blasting (Ganesh & Dill, "STP", CAV 2007): when a - b cancels to a
    # constant it folds, and when it is k*t + d with k odd it becomes
    # t == -d * k^-1, exact because t -> k*t + d is a bijection modulo
    # 2**width. t is opaque, so the rewritten eq is never rewritten again.

    def _linear_parts(self, t: Term) -> tuple[tuple[tuple[Term, int], ...], int]:
        cached = self._lin_cache.get(t.uid)
        if cached is not None:
            return cached
        m = mask(t.width)
        if t.op == "const":
            parts: tuple = ((), t.value)
        elif t.op == "add":
            parts = self._lin_merge(t.args[0], t.args[1], 1, m)
        elif t.op == "sub":
            parts = self._lin_merge(t.args[0], t.args[1], -1, m)
        elif t.op == "mul" and t.args[0].is_const:
            inner, c = self._linear_parts(t.args[1])
            k = t.args[0].value
            parts = (
                tuple((u, (co * k) & m) for u, co in inner),
                (c * k) & m,
            )
        else:
            parts = (((t, 1),), 0)
        self._lin_cache[t.uid] = parts
        return parts

    def _lin_merge(self, a: Term, b: Term, sign: int, m: int):
        pa, ca = self._linear_parts(a)
        pb, cb = self._linear_parts(b)
        acc: dict[int, tuple[Term, int]] = {u.uid: (u, c) for u, c in pa}
        for u, c in pb:
            prev = acc.get(u.uid)
            coeff = ((prev[1] if prev else 0) + sign * c) & m
            if coeff:
                acc[u.uid] = (u, coeff)
            else:
                acc.pop(u.uid, None)
        parts = tuple(acc[k] for k in sorted(acc))
        return parts, (ca + sign * cb) & m

    def _render_linear(self, parts, const_part: int, width: int) -> Term:
        m = mask(width)
        positives: list[Term] = []
        negatives: list[Term] = []
        for t, coeff in parts:
            signed = to_signed(coeff, width)
            if signed >= 0:
                positives.append(self._scaled(t, signed, width))
            else:
                negatives.append(self._scaled(t, -signed, width))
        acc: Term | None = None
        for t in positives:
            acc = t if acc is None else self._mk("add", self._sort2(acc, t), width)
        if const_part:
            c = self.const(const_part, width)
            acc = c if acc is None else self._mk("add", self._sort2(acc, c), width)
        if acc is None:
            acc = self.const(0, width)
        for t in negatives:
            acc = self._mk("sub", (acc, t), width)
        return acc

    def _scaled(self, t: Term, k: int, width: int) -> Term:
        if k == 1:
            return t
        return self._mk("mul", (self.const(k, width), t), width)

    def add(self, a: Term, b: Term) -> Term:
        if a.width != b.width or a.width == BOOL:
            raise ValueError("add needs equal bitvector widths")
        parts, c = self._lin_merge(a, b, 1, mask(a.width))
        return self._render_linear(parts, c, a.width)

    def sub(self, a: Term, b: Term) -> Term:
        if a.width != b.width or a.width == BOOL:
            raise ValueError("sub needs equal bitvector widths")
        parts, c = self._lin_merge(a, b, -1, mask(a.width))
        return self._render_linear(parts, c, a.width)

    def neg(self, a: Term) -> Term:
        return self.sub(self.const(0, a.width), a)

    def mul(self, a: Term, b: Term) -> Term:
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return self.const(0, a.width)
                if x.value == 1:
                    return y
                parts, c = self._linear_parts(y)
                m = mask(a.width)
                scaled = tuple((u, (co * x.value) & m) for u, co in parts)
                scaled = tuple((u, co) for u, co in scaled if co)
                return self._render_linear(scaled, (c * x.value) & m, a.width)
        return self._bv2("mul", a, b, lambda x, y, w: x * y)

    def band(self, a: Term, b: Term) -> Term:
        if a is b:
            return a
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return self.const(0, a.width)
                if x.value == mask(a.width):
                    return y
        return self._bv2("band", a, b, lambda x, y, w: x & y)

    def bor(self, a: Term, b: Term) -> Term:
        if a is b:
            return a
        for x, y in ((a, b), (b, a)):
            if x.is_const:
                if x.value == 0:
                    return y
                if x.value == mask(a.width):
                    return self.const(mask(a.width), a.width)
        return self._bv2("bor", a, b, lambda x, y, w: x | y)

    def bxor(self, a: Term, b: Term) -> Term:
        if a is b:
            return self.const(0, a.width)
        for x, y in ((a, b), (b, a)):
            if x.is_const and x.value == 0:
                return y
        return self._bv2("bxor", a, b, lambda x, y, w: x ^ y)

    def bnot(self, a: Term) -> Term:
        if a.is_const:
            return self.const(~a.value, a.width)
        if a.op == "bnot":
            return a.args[0]
        return self._mk("bnot", (a,), a.width)

    def shl(self, a: Term, b: Term) -> Term:
        if b.is_const:
            amt = b.value & (a.width - 1)
            if amt == 0:
                return a
            if a.is_const:
                return self.const(a.value << amt, a.width)
        return self._bv2("shl", a, b, lambda x, y, w: x << (y & (w - 1)))

    def ashr(self, a: Term, b: Term) -> Term:
        if b.is_const:
            amt = b.value & (a.width - 1)
            if amt == 0:
                return a
            if a.is_const:
                return self.const(to_signed(a.value, a.width) >> amt, a.width)
        return self._bv2(
            "ashr", a, b, lambda x, y, w: to_signed(x, w) >> (y & (w - 1))
        )

    # -- substitution ----------------------------------------------------------

    def substitute(self, root: Term, mapping: dict[Term, Term]) -> Term:
        """root with each input of mapping replaced by its term.

        A node above a replaced input is rebuilt through this builder's own
        constructors, so constants fold, sums renormalise and eq is pushed
        through ite again; a node whose operands are all unchanged is kept
        as it is. Only the operands that decide a node are rebuilt: and and
        or rebuild args[0] first, and when it is their absorbing constant
        (false for and, true for or) that constant is the node, unvisited
        args[1] and all; ite rebuilds its condition first, and when it is
        constant only the branch it picks. This is exact, because and_,
        or_ and ite return exactly that when that operand is that constant.

        The walk is top-down on an explicit stack, so a DAG of any depth
        substitutes without recursion. Rebuilt nodes go into the memo of
        this mapping, which the builder keeps (see TermBuilder), so later
        calls with the same mapping reuse them. The deadline is polled on
        entry and then once per _EQ_POLL_EVERY rebuilt nodes, counted with
        eq's units.
        """
        self.check_deadline()
        key = tuple(sorted((x.uid, v.uid) for x, v in mapping.items()))
        new = self._substitutions.get(key)
        if new is None:
            new = self._substitutions[key] = {x.uid: v for x, v in mapping.items()}
        stack = [root]
        while stack:
            term = stack[-1]
            uid = term.uid
            if uid in new:
                stack.pop()
                continue
            args = term.args
            op = term.op
            if op in _SHORT_CIRCUIT:
                first = new.get(args[0].uid)
                if first is None:
                    stack.append(args[0])
                    continue
                if first.is_const and (op == "ite" or first.value == (op == "or")):
                    settled = first
                    if op == "ite":
                        picked = args[1] if first.value else args[2]
                        settled = new.get(picked.uid)
                        if settled is None:
                            stack.append(picked)
                            continue
                    stack.pop()
                    self._poll()
                    new[uid] = settled
                    continue
            missing = [a for a in args if a.uid not in new]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            rebuilt = tuple([new[a.uid] for a in args])
            if rebuilt == args:  # Terms compare by identity
                new[uid] = term
                continue
            self._poll()
            new[uid] = getattr(self, _CONSTRUCTOR.get(op, op))(*rebuilt)
        return new[root.uid]


@dataclass
class Formula:
    """A bool root over an ordered tuple of input symbols."""

    builder: TermBuilder
    root: Term
    inputs: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.root.width != BOOL:
            raise ValueError("formula root must be bool")


def postorder(root: Term) -> list[Term]:
    """Iterative postorder over the DAG, each node once."""
    order: list[Term] = []
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        term, expanded = stack.pop()
        if expanded:
            order.append(term)
            continue
        if term.uid in seen:
            continue
        seen.add(term.uid)
        stack.append((term, True))
        for a in term.args:
            if a.uid not in seen:
                stack.append((a, False))
    return order
