"""The decision procedure over formulas, the only one cfv has: no query
leaves the process, so every Unsat comes from this core.

sat_solve decides a Formula by one of three routes, and returns the
lexicographically least satisfying model (inputs compared as unsigned
tuples in slot order), which keeps witnesses reproducible:

* By cases, with no CNF, when the root's own top-level conjuncts confine
  some inputs to at most SPLIT_MAX joint values. The conjuncts read are
  slt(x, c), not slt(x, c), slt(c, x), not slt(c, x) and eq(x, c), for an
  input bitvector x and a constant c; the builder makes an equality such
  as x + 1 == 5 or 3 * x == 6 the form eq(x, c). Bounds with no
  value left are Unsat at once. The root is rebuilt once per joint value, with each split input
  replaced by that constant (TermBuilder.substitute), so the builder's
  constant folding, linear normalisation and eq-through-ite run again.
  Only the operands that decide a node are rebuilt: a conjunct that folds
  to false settles its and, a constant condition its ite, so a case that
  folds touches a fraction of the root. The builder keeps each case's
  rebuilds, and solve_bounded's completeness call, over the same inputs
  and values, reuses them. A case root that does not fold is thrown away,
  so only whether a case folds, and to what, is read. Cases are tried in
  lexicographic order: split inputs in slot order, each by unsigned
  residue. A case root that folds to false has no model; one that folds
  to true is satisfied by every valuation of the other inputs. So if
  every case before the first true one folds to false, the least model is
  that case's values with every other input 0 (false): any model sets the
  split inputs to a true case, no smaller than this one, and no other
  input below 0. All cases false is Unsat. At the first case that
  folds to neither, the split is abandoned and the routes below run on the
  original formula. This is how a symbolic executor resolves an index to
  its few feasible values (Cadar, Dunbar & Engler, "KLEE", OSDI 2008), and
  how a word-level solver simplifies before it bit-blasts (Ganesh & Dill,
  "STP", CAV 2007): the generalized insert test confines its index with
  assume(pos >= 0) and assume(pos <= vec_len()), and its three cases fold.
* By bit-parallel simulation of the bit-blasted circuit, for formulas of
  at most bitblast.SIM_MAX_INPUT_BITS input bits.
* By the conflict-driven learning core above that, over the one-sided
  clauses bitblast writes: only the sides of each gate the asserted root
  needs, and one clause per chain of and gates. The least model of those
  clauses may give a gate variable another value than the circuit does,
  but its input bits are the least satisfying valuation (see bitblast),
  and only those are decoded.

The test suite holds every route against an independent oracle,
tests/oracles.exhaustive_solve, which evaluates the formula on every input
valuation and shares nothing with TermBuilder.substitute, bitblast or dpll.

Models map input names to unsigned residues for bitvectors and to bools
for booleans.

The deadline is the formula's own, formula.builder.deadline, an absolute
time.monotonic() value or None; no call here takes it as an argument. Each
stage polls it through errors.check_deadline, which raises errors.Timeout
once it has passed, and sat_solve lets that through: a result is Sat or
Unsat, never a timeout. The one catch here is in solve_bounded, where a
timed-out completeness call means the bound is not known to be complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import inf

from cfv.bitblast import bitblast
from cfv.dpll import solve_cnf
from cfv.errors import Timeout, check_deadline
from cfv.terms import BOOL, Formula, Term, to_signed, to_unsigned

Model = dict[str, int | bool]

# The most joint values of the bounded inputs that sat_solve decides by cases.
SPLIT_MAX = 16


@dataclass
class Sat:
    model: Model


@dataclass
class Unsat:
    pass


SolveResult = Sat | Unsat


@dataclass
class Unknown:
    """An equivalence check or a test verification that was not decided."""

    reason: str  # "timeout" or "unsupported"


@dataclass
class SolverStats:
    """Counts actual solver invocations; stage-1 equivalence must stay at 0."""

    solver_calls: int = 0

    def merge(self, other: "SolverStats") -> None:
        self.solver_calls += other.solver_calls


def sat_solve(formula: Formula, stats: SolverStats | None = None) -> SolveResult:
    """Decide by cases, or via bit-blasting, then simulation or a SAT core.
    The builder's deadline covers every stage, and each raises Timeout once
    it has passed. The case split polls it before each case and, through the
    builder, while it rebuilds the root.

    Up to bitblast.SIM_MAX_INPUT_BITS (16) input bits the blasted circuit is
    simulated on every valuation, 4,096 at a time, in counting order; the
    first valuation that satisfies the root is the least model. Above that
    the learning core searches the clauses and ends with a static search
    that returns the least model. Either way the model is the
    lexicographically least one.
    """
    if stats is not None:
        stats.solver_calls += 1
    if formula.root.is_const:
        return Sat(_default_model(formula)) if formula.root.value else Unsat()
    decided = _decide_by_cases(formula)
    if decided is not None:
        return decided
    cnf = bitblast(formula)
    result = solve_cnf(cnf, formula.builder.deadline)
    if result.status == "unsat":
        return Unsat()
    assignment = result.assignment
    model: Model = {}
    for term in formula.inputs:
        bits = cnf.input_bits[term.name]
        if term.width == BOOL:
            model[term.name] = bool(assignment[bits[0]])
        else:
            model[term.name] = sum(assignment[v] << i for i, v in enumerate(bits))
    return Sat(model)


def solve_bounded(
    solve, bad: Formula, assume_ok: Term, unwound: Term, stats
) -> Sat | bool:
    """The bounded query for bad, shaped here and nowhere else: solve
    decides (assume_ok and unwound) and bad.root over bad.inputs, where
    assume_ok holds on every input whose run respects its assumptions and
    unwound on every run within the unwinding bound. A Sat is returned as
    it is. An Unsat becomes whether the bound is complete: True unless
    assume_ok and not unwound, over the same inputs, is satisfiable (CBMC's
    unwinding check, one more call unless unwound is constant true) or
    that call, its formula's building included, times out. A timeout of the
    first call, or of building its formula, propagates."""
    b = bad.builder
    query = Formula(b, b.and_(b.and_(assume_ok, unwound), bad.root), bad.inputs)
    result = solve(query, stats=stats)
    if not isinstance(result, Unsat):
        return result
    if unwound.is_const and unwound.value:
        return True
    try:
        escape = Formula(b, b.and_(assume_ok, b.not_(unwound)), bad.inputs)
        return isinstance(solve(escape, stats=stats), Unsat)
    except Timeout:
        return False


def _decide_by_cases(formula: Formula) -> SolveResult | None:
    """The query decided by splitting on its bounded inputs (see the module
    docstring), or None when there is nothing to split on or a case root
    does not fold to a constant."""
    ranges = _input_ranges(formula.root)
    if any(lo > hi for lo, hi in ranges.values()):
        return Unsat()
    split: list[Term] = []
    values: list[list[int]] = []
    count = 1
    for x in formula.inputs:
        if x not in ranges:
            continue
        lo, hi = ranges[x]
        if count * (hi - lo + 1) <= SPLIT_MAX:
            count *= hi - lo + 1
            split.append(x)
            values.append(sorted(to_unsigned(v, x.width) for v in range(lo, hi + 1)))
    if not split:
        return None
    b = formula.builder
    for case in product(*values):
        check_deadline(b.deadline, "the case split")
        mapping = {x: b.const(v, x.width) for x, v in zip(split, case)}
        root = b.substitute(formula.root, mapping)
        if not root.is_const:
            return None
        if root.value:
            model = _default_model(formula)
            model.update((x.name, v) for x, v in zip(split, case))
            return Sat(model)
    return Unsat()


def _input_ranges(root: Term) -> dict[Term, tuple[int, int]]:
    """Signed [lo, hi] per input bitvector that a top-level conjunct of root
    bounds by a constant; lo > hi when the bounds leave no value."""
    ranges: dict[Term, tuple[int, int]] = {}

    def narrow(x: Term, lo: float, hi: float) -> None:
        half = 1 << (x.width - 1)
        old_lo, old_hi = ranges.get(x, (-half, half - 1))
        ranges[x] = (max(old_lo, lo), min(old_hi, hi))

    seen: set[int] = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if t.uid in seen:
            continue
        seen.add(t.uid)
        if t.op == "and":
            stack.extend(t.args)
            continue
        negated = t.op == "not"
        if negated:
            t = t.args[0]
        if t.op not in ("slt", "eq"):
            continue
        a, c = t.args
        if t.op == "eq":
            if a.is_const:
                a, c = c, a
            if not negated and a.op == "input" and c.is_const:
                v = to_signed(c.value, c.width)
                narrow(a, v, v)
        elif a.op == "input" and c.is_const:  # x < c; negated, x >= c
            v = to_signed(c.value, c.width)
            if negated:
                narrow(a, v, inf)
            else:
                narrow(a, -inf, v - 1)
        elif a.is_const and c.op == "input":  # c < x; negated, x <= c
            v = to_signed(a.value, a.width)
            if negated:
                narrow(c, -inf, v)
            else:
                narrow(c, v + 1, inf)
    return ranges


def _default_model(formula: Formula) -> Model:
    return {
        t.name: (False if t.width == BOOL else 0) for t in formula.inputs
    }

