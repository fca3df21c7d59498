"""Tseitin transformation from term DAGs to CNF.

The circuit is built first: gate constructors fold constants and hash
structurally, and only record each gate as (kind, operand literals). Then
one backward pass from the root marks the gates in its cone of influence
(Biere et al., "Symbolic Model Checking without BDDs", TACAS 1999), and one
forward pass writes their clauses. Gates nothing reads, such as the sum
bits of a comparison's subtractor, get neither a variable nor a clause.

Variable layout: variable 1 is the constant true (pinned by a unit clause),
then the formula inputs get variables 2..k + 1 in slot order with each
bitvector's bits allocated most-significant first, then one variable per
live gate, in the order the gates were created. A gate is created after its
operands, so its variable lies above theirs.

The result carries two views of one circuit: the Tseitin clauses, with the
root literal as a unit clause, and the gate list (var, kind, operands) of
the live gates in that same topological order, with the root literal. The
gate list is kept only for formulas of at most SIM_MAX_INPUT_BITS input
bits, and this module alone reads that threshold: dpll.solve_cnf simulates
exactly the formulas that carry a gate list and searches the clauses of the
rest. On the width-32 vec_insert miter (14k variables) the list would hold
1.8 MB while the learning core searches. Every variable above the inputs
is a gate, a function of the inputs. So a least satisfying input valuation, extended by
the gate values it forces, is the lexicographically least model over
variables 1..n, with input valuations compared in the counting order of the
test suite's enumeration oracle (tests/oracles.exhaustive_solve). dpll
returns that model whether it simulates the gates or searches the clauses.

Arithmetic is structural: ripple-carry adders, subtraction as a + ~b + 1,
shift-and-add multiplication, barrel shifters, signed comparison from the
borrow chain and sign bits, and equality as an AND chain from the most
significant bit down. ITE gates carry the two redundant clauses so equal
branches propagate without a case split.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfv.errors import check_deadline
from cfv.terms import BOOL, Formula, Term, postorder

TRUE_LIT = 1
SIM_MAX_INPUT_BITS = 16  # formulas up to this many input bits keep gates
_POLL_MASK = 4095  # poll the deadline every 4,096 gates built or emitted


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[tuple[int, ...]]
    # input name -> variable index per bit, least significant first;
    # bools get a single entry.
    input_bits: dict[str, tuple[int, ...]]
    # (var, kind, operand literals) per gate, operands before their users:
    # "and" (a, b), "xor" (x, y) over variables, "maj" (a, b, c) and
    # "ite" (c, a, b), the last meaning c ? a : b.
    # None above SIM_MAX_INPUT_BITS input bits.
    gates: list[tuple[int, str, tuple[int, ...]]] | None
    root: int  # the literal the formula asserts

    @property
    def num_inputs(self) -> int:
        """Input bits; they take variables 2..num_inputs + 1."""
        return sum(map(len, self.input_bits.values()))


class _Blaster:
    """Builds the circuit with constant folding and structural hashing; the
    clauses are written afterwards, by cnf(), for the root's cone only."""

    def __init__(self, deadline: float | None):
        self.num_vars = 1  # var 1 is constant true
        # (kind, operand literals) -> gate variable. A gate is inserted when
        # it is created, so the keys list the circuit in creation order,
        # which is topological.
        self.gate_cache: dict[tuple, int] = {}
        self.deadline = deadline

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def gate(self, key: tuple) -> int:
        g = self.gate_cache.get(key)
        if g is None:
            g = self.gate_cache[key] = self.new_var()
            if g & _POLL_MASK == 0:
                check_deadline(self.deadline, "bit-blasting")
        return g

    # -- gates ----------------------------------------------------------------
    # Constant operands are folded here as well: term-level folding misses
    # constants that only appear after bit decomposition.

    def and_gate(self, a: int, b: int) -> int:
        if a == -TRUE_LIT or b == -TRUE_LIT:
            return -TRUE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT:
            return a
        if a == b:
            return a
        if a == -b:
            return -TRUE_LIT
        return self.gate(("and", a, b) if a < b else ("and", b, a))

    def or_gate(self, a: int, b: int) -> int:
        return -self.and_gate(-a, -b)

    def xor_gate(self, a: int, b: int) -> int:
        if a == TRUE_LIT:
            return -b
        if a == -TRUE_LIT:
            return b
        if b == TRUE_LIT:
            return -a
        if b == -TRUE_LIT:
            return a
        if a == b:
            return -TRUE_LIT
        if a == -b:
            return TRUE_LIT
        # xor is invariant under double negation and flips under single
        # negation, so cache one gate per variable pair.
        flip = (a < 0) != (b < 0)
        x, y = abs(a), abs(b)
        if x > y:
            x, y = y, x
        g = self.gate(("xor", x, y))
        return -g if flip else g

    def maj_gate(self, a: int, b: int, c: int) -> int:
        # A constant moved to c makes maj the or (c true) or the and (c false) of a and b.
        if abs(a) == TRUE_LIT:
            a, c = c, a
        elif abs(b) == TRUE_LIT:
            b, c = c, b
        if c == TRUE_LIT:
            return self.or_gate(a, b)
        if c == -TRUE_LIT:
            return self.and_gate(a, b)
        if a == b:
            return a
        if a == c:
            return a
        if b == c:
            return b
        if a == -b:
            return c
        if a == -c:
            return b
        if b == -c:
            return a
        return self.gate(("maj", *sorted((a, b, c))))

    def ite_gate(self, c: int, a: int, b: int) -> int:
        if c == TRUE_LIT:
            return a
        if c == -TRUE_LIT:
            return b
        if a == b:
            return a
        if a == -b:
            return -self.xor_gate(c, a)  # c ? a : !a  ==  c <-> a
        if a == TRUE_LIT and b == -TRUE_LIT:
            return c
        if a == -TRUE_LIT and b == TRUE_LIT:
            return -c
        if a == c:
            return self.or_gate(c, b)  # c ? c : b
        if a == -c:
            return self.and_gate(-c, b)  # c ? !c : b
        if b == c:
            return self.and_gate(c, a)  # c ? a : c
        if b == -c:
            return self.or_gate(-c, a)  # c ? a : !c
        return self.gate(("ite", c, a, b))

    # -- word-level helpers (bit lists are LSB first) -------------------------

    def ripple_add(self, a: list[int], b: list[int], carry: int) -> list[int]:
        out = []
        for x, y in zip(a, b):
            out.append(self.xor_gate(self.xor_gate(x, y), carry))
            carry = self.maj_gate(x, y, carry)
        return out

    def sub_bits(self, a: list[int], b: list[int]) -> list[int]:
        return self.ripple_add(a, [-x for x in b], TRUE_LIT)

    def mul_bits(self, a: list[int], b: list[int]) -> list[int]:
        w = len(a)
        acc = [self.and_gate(x, b[0]) for x in a]
        for i in range(1, w):
            shifted = [-TRUE_LIT] * i + a[: w - i]
            addend = [self.and_gate(x, b[i]) for x in shifted]
            acc = self.ripple_add(acc, addend, -TRUE_LIT)
        return acc

    def shift_bits(self, a: list[int], amount: list[int], arithmetic: bool, left: bool) -> list[int]:
        # The amount is masked with w - 1, as in terms, so there is one stage
        # per set bit of w - 1: all the low bits when w is a power of two.
        w = len(a)
        cur = list(a)
        fill = a[-1] if arithmetic else -TRUE_LIT
        for s in range((w - 1).bit_length()):
            if not (w - 1) >> s & 1:
                continue
            dist = 1 << s
            sel = amount[s]
            if left:
                shifted = [-TRUE_LIT] * dist + cur[: w - dist]
            else:
                shifted = cur[dist:] + [fill] * dist
            cur = [self.ite_gate(sel, sh, old) for sh, old in zip(shifted, cur)]
        return cur

    def equal_bits(self, a: list[int], b: list[int]) -> int:
        # MSB first: comparisons with constants that share their high bits,
        # such as x == 0 ... x == 7, then share a prefix of the chain.
        acc = TRUE_LIT
        for x, y in zip(reversed(a), reversed(b)):
            acc = self.and_gate(acc, -self.xor_gate(x, y))
        return acc

    def slt_bits(self, a: list[int], b: list[int]) -> int:
        # The sign bit of a + ~b + 1, from the carry chain alone.
        carry = TRUE_LIT
        for x, y in zip(a[:-1], b[:-1]):
            carry = self.maj_gate(x, -y, carry)
        sa, sb = a[-1], b[-1]
        diff_sign = self.xor_gate(self.xor_gate(sa, -sb), carry)
        return self.ite_gate(self.xor_gate(sa, sb), sa, diff_sign)

    def cnf(self, root: int, input_bits: dict[str, tuple[int, ...]]) -> CnfFormula:
        """The clauses of the gates in the root's cone of influence.

        One backward pass marks the live gates; they are renumbered from
        num_inputs + 2 upward in creation order, so operands still precede
        their users, and their clauses are written in that order.
        """
        live = bytearray(self.num_vars + 1)
        live[abs(root)] = 1
        for key, g in reversed(self.gate_cache.items()):
            if live[g]:
                for lit in key[1:]:
                    live[abs(lit)] = 1
        num_inputs = sum(map(len, input_bits.values()))
        n = num_inputs + 1
        # ren[lit] is the renumbered literal. Negative literals index from
        # the end of the list, which never overlaps 1..num_vars.
        ren = [0] * (2 * self.num_vars + 1)
        for v in range(1, n + 1):
            ren[v], ren[-v] = v, -v
        clauses: list[tuple[int, ...]] = [(TRUE_LIT,)]
        gates: list[tuple[int, str, tuple[int, ...]]] | None = (
            [] if num_inputs <= SIM_MAX_INPUT_BITS else None
        )
        for key, old in self.gate_cache.items():
            if not live[old]:
                continue
            n += 1
            if n & _POLL_MASK == 0:
                check_deadline(self.deadline, "bit-blasting")
            g = ren[old] = n
            ren[-old] = -n
            kind = key[0]
            if kind == "and":
                a, b = ren[key[1]], ren[key[2]]
                clauses += ((-g, a), (-g, b), (g, -a, -b))
                ops = (a, b)
            elif kind == "xor":
                x, y = ren[key[1]], ren[key[2]]
                clauses += ((-g, x, y), (-g, -x, -y), (g, -x, y), (g, x, -y))
                ops = (x, y)
            elif kind == "maj":
                a, b, c = ren[key[1]], ren[key[2]], ren[key[3]]
                clauses += (
                    (-g, a, b), (-g, a, c), (-g, b, c), (g, -a, -b), (g, -a, -c), (g, -b, -c)
                )
                ops = (a, b, c)
            else:  # ite: c ? a : b
                c, a, b = ren[key[1]], ren[key[2]], ren[key[3]]
                # The last two are redundant, but let equal branches
                # propagate g without deciding c.
                clauses += (
                    (-g, -c, a), (-g, c, b), (g, -c, -a), (g, c, -b), (g, -a, -b), (-g, a, b)
                )
                ops = (c, a, b)
            if gates is not None:
                gates.append((g, kind, ops))
        root = ren[root]
        clauses.append((root,))
        return CnfFormula(n, clauses, input_bits, gates, root)


def bitblast(formula: Formula) -> CnfFormula:
    """Translate a formula into an equisatisfiable CNF.

    Deterministic: identical formulas produce identical CNFs. Raises
    Timeout when the builder's deadline passes: on entry, then every 4,096
    gates built or emitted.
    """
    blaster = _Blaster(formula.builder.deadline)
    check_deadline(blaster.deadline, "bit-blasting")
    input_bits: dict[str, tuple[int, ...]] = {}
    bits: dict[int, list[int]] = {}  # term uid -> literals (LSB first; bools 1 lit)

    for term in formula.inputs:
        if term.op != "input":
            raise ValueError("formula inputs must be input terms")
        width = max(term.width, 1)
        allocated = [blaster.new_var() for _ in range(width)]
        lsb_first = tuple(reversed(allocated))  # MSB got the lowest index
        input_bits[term.name] = lsb_first
        bits[term.uid] = list(lsb_first)

    for term in postorder(formula.root):
        if term.uid in bits:
            continue
        bits[term.uid] = _blast_node(blaster, term, bits)

    return blaster.cnf(bits[formula.root.uid][0], input_bits)


def _blast_node(bl: _Blaster, t: Term, bits: dict[int, list[int]]) -> list[int]:
    op = t.op
    if op == "const":
        if t.width == BOOL:
            return [TRUE_LIT if t.value else -TRUE_LIT]
        return [TRUE_LIT if (t.value >> i) & 1 else -TRUE_LIT for i in range(t.width)]
    if op == "input":
        # Inputs not declared in the formula slots (must not happen).
        raise ValueError(f"undeclared input {t.name!r} in formula")
    a = bits[t.args[0].uid] if t.args else None
    b = bits[t.args[1].uid] if len(t.args) > 1 else None
    if op == "not":
        return [-a[0]]
    if op == "and":
        return [bl.and_gate(a[0], b[0])]
    if op == "or":
        return [bl.or_gate(a[0], b[0])]
    if op == "xor":
        return [bl.xor_gate(a[0], b[0])]
    if op == "eq":
        return [bl.equal_bits(a, b)]
    if op == "slt":
        return [bl.slt_bits(a, b)]
    if op == "ite":
        c = a[0]
        x, y = bits[t.args[1].uid], bits[t.args[2].uid]
        return [bl.ite_gate(c, xi, yi) for xi, yi in zip(x, y)]
    if op == "add":
        return bl.ripple_add(a, b, -TRUE_LIT)
    if op == "sub":
        return bl.sub_bits(a, b)
    if op == "mul":
        return bl.mul_bits(a, b)
    if op == "band":
        return [bl.and_gate(x, y) for x, y in zip(a, b)]
    if op == "bor":
        return [bl.or_gate(x, y) for x, y in zip(a, b)]
    if op == "bxor":
        return [bl.xor_gate(x, y) for x, y in zip(a, b)]
    if op == "bnot":
        return [-x for x in a]
    if op == "shl":
        return bl.shift_bits(a, b, arithmetic=False, left=True)
    if op == "ashr":
        return bl.shift_bits(a, b, arithmetic=True, left=False)
    raise AssertionError(f"unknown op {op}")  # pragma: no cover
