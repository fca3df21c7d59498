"""The decision procedure over formulas, the only one cfv has: no query
leaves the process, so every Unsat comes from this core.

sat_solve decides a Formula by Tseitin bit-blasting, then dpll.solve_cnf:
bit-parallel simulation of the blasted circuit for formulas of at most
dpll.SIM_MAX_INPUT_BITS input bits, the conflict-driven learning core over
its clauses above that. It returns the lexicographically least satisfying
model (inputs compared as unsigned tuples in slot order), which keeps
witnesses reproducible.

The test suite holds this route against an independent oracle,
tests/oracles.exhaustive_solve, which evaluates the formula on every input
valuation and shares nothing with bitblast or dpll.

Models map input names to unsigned residues for bitvectors and to bools
for booleans.

A deadline is always an absolute time.monotonic() value. A stage that finds
it passed raises errors.Timeout, which sat_solve lets through: a result is
Sat or Unsat, never a timeout. The one catch here is in solve_bounded, where
a timed-out completeness call means the bound is not known to be complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfv.bitblast import bitblast
from cfv.dpll import solve_cnf
from cfv.errors import Timeout
from cfv.terms import BOOL, Formula, Term

Model = dict[str, int | bool]


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


def sat_solve(
    formula: Formula,
    deadline: float | None = None,
    stats: SolverStats | None = None,
) -> SolveResult:
    """Decide via bit-blasting, then simulation or a SAT core; the deadline
    covers both stages, and either raises Timeout once it has passed.

    Up to dpll.SIM_MAX_INPUT_BITS (16) input bits the blasted circuit is
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
    cnf = bitblast(formula, deadline)
    result = solve_cnf(cnf.num_vars, cnf.clauses, deadline=deadline, circuit=cnf)
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
    solve, formula: Formula, assume_ok: Term, unwound: Term, deadline, stats
) -> Sat | bool:
    """solve(formula), with Unsat turned into whether the bound is complete:
    True unless an input allowed by assume_ok escapes the unwinding bound
    (CBMC's unwinding check, one more call unless unwound is constant true)
    or that call times out. A timeout of the first call propagates."""
    result = solve(formula, deadline=deadline, stats=stats)
    if not isinstance(result, Unsat):
        return result
    if unwound.is_const and unwound.value:
        return True
    b = formula.builder
    escape = Formula(b, b.and_(assume_ok, b.not_(unwound)), formula.inputs)
    try:
        return isinstance(solve(escape, deadline=deadline, stats=stats), Unsat)
    except Timeout:
        return False


def _default_model(formula: Formula) -> Model:
    return {
        t.name: (False if t.width == BOOL else 0) for t in formula.inputs
    }

