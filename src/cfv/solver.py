"""Decision procedures over formulas.

Two independent routes decide the same Formula type:

* sat_solve: Tseitin bit-blasting, then dpll.solve_cnf: bit-parallel
  simulation of the blasted circuit for formulas of at most
  dpll.SIM_MAX_INPUT_BITS input bits, the conflict-driven learning core
  over its clauses above that.
* exhaustive_solve: vectorized enumeration of every input valuation,
  capped at 20 input bits. This is the oracle the test suite holds the
  solver route against; it shares nothing with the CNF path.

Both return the lexicographically least satisfying model (inputs compared
as unsigned tuples in slot order), which keeps witnesses reproducible.

Models map input names to unsigned residues for bitvectors and to bools
for booleans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from cfv.bitblast import BlastTimeout, bitblast
from cfv.dpll import solve_cnf
from cfv.errors import DomainTooLargeError
from cfv.terms import BOOL, Formula, bulk_evaluate, evaluate

EXHAUSTIVE_BIT_CAP = 20
_CHUNK_BITS = 16

Model = dict[str, int | bool]


@dataclass
class Sat:
    model: Model


@dataclass
class Unsat:
    pass


@dataclass
class Timeout:
    pass


SolveResult = Sat | Unsat | Timeout


@dataclass
class Unknown:
    """An equivalence check or a test verification that was not decided."""

    reason: str  # "timeout" or "unsupported"


@dataclass
class SolverStats:
    """Counts actual solver invocations; stage-1 equivalence must stay at 0."""

    solver_calls: int = 0
    timeouts: int = 0

    def merge(self, other: "SolverStats") -> None:
        self.solver_calls += other.solver_calls
        self.timeouts += other.timeouts


def sat_solve(
    formula: Formula,
    timeout_s: float | None = None,
    deadline: float | None = None,
    stats: SolverStats | None = None,
) -> SolveResult:
    """Decide via bit-blasting, then simulation or a SAT core; the deadline
    covers both stages.

    Up to dpll.SIM_MAX_INPUT_BITS (16) input bits the blasted circuit is
    simulated on every valuation, 4,096 at a time, in counting order; the
    first valuation that satisfies the root is the least model. Above that
    the learning core searches the clauses and ends with a static search
    that returns the least model. Either way the model is the
    lexicographically least one.
    """
    if deadline is None and timeout_s is not None:
        deadline = time.monotonic() + timeout_s
    if stats is not None:
        stats.solver_calls += 1
    if formula.root.is_const:
        return Sat(_default_model(formula)) if formula.root.value else Unsat()
    try:
        cnf = bitblast(formula, deadline)
    except BlastTimeout:
        if stats is not None:
            stats.timeouts += 1
        return Timeout()
    result = solve_cnf(cnf.num_vars, cnf.clauses, deadline=deadline, circuit=cnf)
    if result.status == "timeout":
        if stats is not None:
            stats.timeouts += 1
        return Timeout()
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


def _default_model(formula: Formula) -> Model:
    return {
        t.name: (False if t.width == BOOL else 0) for t in formula.inputs
    }


def exhaustive_solve(formula: Formula, cap_bits: int = EXHAUSTIVE_BIT_CAP) -> SolveResult:
    """Enumerate every valuation, first satisfying model in counting order.

    Raises DomainTooLargeError beyond cap_bits total input bits.
    """
    total_bits = formula.input_bits
    if total_bits > cap_bits:
        raise DomainTooLargeError(
            f"{total_bits} input bits exceed the exhaustive cap of {cap_bits}"
        )
    if formula.root.is_const:
        return Sat(_default_model(formula)) if formula.root.value else Unsat()

    # Input i occupies the bits above all later inputs, so increasing index
    # walks valuations in lexicographic (slot-order counting) order.
    shifts: list[int] = []
    acc = 0
    for term in reversed(formula.inputs):
        shifts.append(acc)
        acc += max(term.width, 1)
    shifts.reverse()

    total = 1 << total_bits
    step = 1 << min(_CHUNK_BITS, total_bits)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint64)
        env: dict[str, np.ndarray] = {}
        for term, shift in zip(formula.inputs, shifts):
            width = max(term.width, 1)
            chunk = (idx >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            env[term.name] = chunk.astype(bool) if term.width == BOOL else chunk
        result = bulk_evaluate(formula.root, env)
        result = np.broadcast_to(result, idx.shape)
        if result.any():
            first = int(np.argmax(result))
            model: Model = {}
            for term, shift in zip(formula.inputs, shifts):
                width = max(term.width, 1)
                value = (int(idx[first]) >> shift) & ((1 << width) - 1)
                model[term.name] = bool(value) if term.width == BOOL else value
            return Sat(model)
    return Unsat()


def check_model(formula: Formula, model: Model) -> bool:
    """True when the model satisfies the formula under concrete evaluation."""
    return bool(evaluate(formula.root, model))


def make_solve_fn(external=None):
    """Build the solving callable the pipeline hands around.

    With an external solver configured, it decides sat/unsat first; sat
    results still go through the internal solver because witnesses need a
    model in our own format. Anything the external tool cannot answer falls
    back to the internal route as well.
    """
    if external is None:
        return sat_solve

    def solve(
        formula: Formula,
        timeout_s: float | None = None,
        deadline: float | None = None,
        stats: SolverStats | None = None,
    ) -> SolveResult:
        remaining = timeout_s
        if deadline is not None:
            remaining = max(deadline - time.monotonic(), 0.05)
        verdict = external.decide(formula, remaining)
        if verdict == "unsat":
            if stats is not None:
                stats.solver_calls += 1
            return Unsat()
        return sat_solve(formula, timeout_s=timeout_s, deadline=deadline, stats=stats)

    return solve
