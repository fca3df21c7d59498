"""One-sided Tseitin transformation from term DAGs to CNF.

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

The result carries two views of one circuit: the clauses, with the root
literal as a unit clause, and the gate list (var, kind, operands) of the
live gates in that same topological order, with the root literal. The gate
list is kept only for formulas of at most SIM_MAX_INPUT_BITS input bits,
and this module alone reads that threshold: dpll.solve_cnf simulates
exactly the formulas that carry a gate list and searches the clauses of the
rest. On the width-32 vec_insert miter (13,717 variables) the list would
add about 2 MB to the 3.5 MB of clauses while the learning core searches.

The clauses are one-sided (Plaisted & Greenbaum, "A Structure-preserving
Clause Form Translation", J. Symb. Comp. 1986). A gate g = f(ops) has two
sides: _POS, the clauses of g -> f(ops), and _NEG, those of f(ops) -> g.
The root literal is asserted, so the root's variable needs _POS when the
literal is positive and _NEG when it is negated. An operand of an and or
maj gate, and each branch of an ite, needs the sides its reader needs,
swapped where the reader reads it negated; the operands of an xor and the
condition of an ite need both. Each gate writes the sides it needs. An and
gate read by one live gate only, an and reading it as a positive literal,
is absorbed (Jackson & Sheridan, "Clause Form Conversions for Boolean
Circuits", SAT 2004): its operands join its reader's clauses as further
conjuncts, recursively, and it writes no clause. An n-ary clause lists a
repeated conjunct once and is dropped when it holds x and -x.

Fix an input valuation. The clauses are satisfiable with the inputs set to
it exactly when the circuit's root is true:

* The circuit's values satisfy every clause: each is a Tseitin clause of
  its gate, or a resolvent of the Tseitin clauses of an and gate and those
  it absorbed, and the root's unit clause holds when the root does.
* Conversely, take any model M with those inputs. By induction over the
  gates that write clauses, operands first, a gate that writes _POS and is
  true in M is true in the circuit, and one that writes _NEG and is false
  in M is false there: each of its clauses ties it to operand literals
  whose needed sides give the same bound (Plaisted and Greenbaum's
  argument). The root's unit clause then makes the root true.

So the input bits of the models are exactly the satisfying input
valuations, though a gate's variable may differ from the circuit's value
in a model, and an absorbed gate's appears in no clause at all. dpll's
static search returns the lexicographically least model of any clause set.
The inputs come right after the constant, so that model's variables
2..k + 1 are the least satisfying input valuation, in the counting order
of the test suite's enumeration oracle (tests/oracles.exhaustive_solve),
and that is all solver.sat_solve decodes. Simulation finds the same
valuation, with the circuit's value in every gate variable.

Arithmetic is structural: ripple-carry adders, subtraction as a + ~b + 1,
shift-and-add multiplication, barrel shifters, signed comparison from the
borrow chain and sign bits, and equality as an AND chain from the most
significant bit down. Each side of an ITE gate carries a redundant clause,
so equal branches propagate without a case split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import neg

from cfv.errors import check_deadline
from cfv.terms import BOOL, Formula, Term, postorder

TRUE_LIT = 1
SIM_MAX_INPUT_BITS = 16  # formulas up to this many input bits keep gates
_POLL_MASK = 4095  # poll the deadline every 4,096 gates, in each pass over them
# The sides of a gate g = f(ops) that cnf writes: _POS the clauses of
# g -> f(ops), _NEG those of f(ops) -> g. An and gate can be _ABSORBED into
# its reader, which then _ABSORBS it.
_POS, _NEG, _BOTH, _ABSORBED, _ABSORBS = 1, 2, 3, 4, 8
_FLIP = (0, _NEG, _POS, _BOTH)  # the sides an operand read negated needs


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
        """The clauses of the root's cone of influence, each gate's written
        only on the sides the root needs (see the module docstring).

        One backward pass marks the live gates with those sides and finds
        the and gates to absorb. The live gates are renumbered from
        num_inputs + 2 upward in creation order, so operands still precede
        their users, and one forward pass writes their clauses in that
        order.
        """
        # need[v]: the sides of v's definition the root needs (_POS, _NEG,
        # _BOTH; 0 off the cone), with _ABSORBED and _ABSORBS for and gates.
        need = [0] * (self.num_vars + 1)
        need[abs(root)] = _POS if root > 0 else _NEG
        # reader[v]: the and gate that reads v, while that is v's only read
        # and is of the positive literal; -1 once v has any other read.
        reader = [0] * (self.num_vars + 1)
        reader[abs(root)] = -1
        for key, g in reversed(self.gate_cache.items()):
            if not g & _POLL_MASK:
                check_deadline(self.deadline, "bit-blasting")
            p = need[g]
            if not p:
                continue
            kind = key[0]
            if kind == "and":
                # Every reader of g was visited before g, so reader[g] is final.
                r = reader[g]
                if r > 0:
                    need[g] = p | _ABSORBED
                    need[r] |= _ABSORBS
                # The two operands are written out: this loop is hot.
                _, a, b = key
                if a > 0:
                    need[a] |= p
                    reader[a] = -1 if reader[a] else g
                else:
                    need[-a] |= _FLIP[p]
                    reader[-a] = -1
                if b > 0:
                    need[b] |= p
                    reader[b] = -1 if reader[b] else g
                else:
                    need[-b] |= _FLIP[p]
                    reader[-b] = -1
            elif kind == "xor":
                _, x, y = key  # variables, see xor_gate
                need[x] = need[y] = _BOTH
                reader[x] = reader[y] = -1
            else:  # maj (a, b, c), ite (c, a, b)
                if kind == "ite":
                    c = abs(key[1])
                    need[c] = _BOTH
                    reader[c] = -1
                    ops = key[2:]
                else:
                    ops = key[1:]
                for lit in ops:
                    if lit > 0:
                        need[lit] |= p
                    else:
                        lit = -lit
                        need[lit] |= _FLIP[p]
                    reader[lit] = -1
        num_inputs = sum(map(len, input_bits.values()))
        n = num_inputs + 1
        # ren[lit] is the renumbered literal. Negative literals index from
        # the end of the list, which never overlaps 1..num_vars; so do
        # leaves', where an absorbed gate keeps its conjuncts, renumbered.
        ren = [0] * (2 * self.num_vars + 1)
        for v in range(1, n + 1):
            ren[v], ren[-v] = v, -v
        leaves: list[list[int] | None] = [None] * (2 * self.num_vars + 1)
        clauses: list[tuple[int, ...]] = [(TRUE_LIT,)]
        gates: list[tuple[int, str, tuple[int, ...]]] | None = (
            [] if num_inputs <= SIM_MAX_INPUT_BITS else None
        )
        for key, old in self.gate_cache.items():
            p = need[old]
            if not p:
                continue
            n += 1
            if n & _POLL_MASK == 0:
                check_deadline(self.deadline, "bit-blasting")
            g = ren[old] = n
            ren[-old] = -n
            kind = key[0]
            if kind == "and":
                a, b = ren[key[1]], ren[key[2]]
                if gates is not None:
                    gates.append((g, kind, (a, b)))
                if p == _BOTH:
                    clauses += ((-g, a), (-g, b), (g, -a, -b))
                elif p == _POS:
                    clauses += ((-g, a), (-g, b))
                elif p == _NEG:
                    clauses.append((g, -a, -b))
                else:  # absorbs an operand, is absorbed, or both
                    # An absorbed operand's list is extended in place. The
                    # chain so far is usually the key's last operand (a
                    # negative or older one sorts first), so it grows at
                    # its end.
                    lits = leaves[key[2]]
                    if lits is None:
                        lits = [b]
                    more = leaves[key[1]]
                    if more is None:
                        lits.append(a)
                    else:
                        lits += more
                    if p & _ABSORBED:
                        leaves[old] = lits
                    else:
                        # Merge duplicates; a clause with x and -x holds.
                        merged = dict.fromkeys(lits)
                        if p & _POS:
                            clauses += zip(repeat(-g), merged)
                        if p & _NEG:
                            clause = (g, *map(neg, merged))
                            if merged.keys().isdisjoint(clause):
                                clauses.append(clause)
            elif kind == "xor":
                x, y = ren[key[1]], ren[key[2]]
                if gates is not None:
                    gates.append((g, kind, (x, y)))
                if p & _POS:
                    clauses += ((-g, x, y), (-g, -x, -y))
                if p & _NEG:
                    clauses += ((g, -x, y), (g, x, -y))
            elif kind == "maj":
                a, b, c = ren[key[1]], ren[key[2]], ren[key[3]]
                if gates is not None:
                    gates.append((g, kind, (a, b, c)))
                if p & _POS:
                    clauses += ((-g, a, b), (-g, a, c), (-g, b, c))
                if p & _NEG:
                    clauses += ((g, -a, -b), (g, -a, -c), (g, -b, -c))
            else:  # ite: c ? a : b
                c, a, b = ren[key[1]], ren[key[2]], ren[key[3]]
                if gates is not None:
                    gates.append((g, kind, (c, a, b)))
                # The last clause of each side is redundant, but lets equal
                # branches propagate g without deciding c.
                if p & _POS:
                    clauses += ((-g, -c, a), (-g, c, b), (-g, a, b))
                if p & _NEG:
                    clauses += ((g, -c, -a), (g, c, -b), (g, -a, -b))
        root = ren[root]
        clauses.append((root,))
        return CnfFormula(n, clauses, input_bits, gates, root)


def bitblast(formula: Formula) -> CnfFormula:
    """Translate a formula into an equisatisfiable CNF.

    Deterministic: identical formulas produce identical CNFs. Raises
    Timeout when the builder's deadline passes: on entry, then every 4,096
    gates built, visited by cnf's backward pass or written by its forward
    pass.
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
