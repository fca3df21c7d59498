"""Bounded model checking of (generalized) tests and counterexample replay.

A test is verified as a local model: its body plus the callees it actually
reaches are encoded from the snapshot's initial global state, and the
solver searches for nondet values that reach an assertion or bounds
violation within the unrolling bound. A SAT model is immediately re-run
through the reference interpreter with tracing on (a model that does not
replay to a failure raises errors.InternalError); the counterexample that
comes out therefore carries a real execution trace and a failing assertion
site, not a decoded guess. Concretization turns that counterexample back
into an ordinary nondet-free test; it fails under plain interpretation
unless some nondet site is reached more than once.

The time limit covers encoding and solving. A stage that finds it expired
raises errors.Timeout; verify_test catches it in one place and returns
Unknown("timeout").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from cfv.errors import InternalError, Timeout
from cfv.harness import GeneralizedTest
from cfv.interp import run_function
from cfv.minic import ast
from cfv.minic.ast import Span
from cfv.snapshot import Snapshot
from cfv.solver import SolverStats, Unknown, sat_solve, solve_bounded
from cfv.ssa import UnrollConfig, encode_ssa
from cfv.terms import Formula, TermBuilder, collector_paused, to_signed


@dataclass
class Counterexample:
    # Dynamic nondet symbol -> value, and the same values keyed as the
    # interpreter reads them: (intrinsic byte offset, per-site occurrence).
    valuation: dict[str, int | bool]
    values: dict[tuple[int, int], int | bool]
    failing_assert: Span
    trace: list[tuple[Span, str, int | bool]]
    # The function failing_assert lies in: the test or one it calls.
    function: str | None = None


@dataclass
class Pass:
    bound: int
    complete: bool


@dataclass
class Fail:
    counterexample: Counterexample


VerificationResult = Pass | Fail | Unknown


@collector_paused()
def verify_test(
    gt: GeneralizedTest,
    snap: Snapshot,
    cfg: UnrollConfig,
    stats: SolverStats | None = None,
) -> VerificationResult:
    """Pass, Fail or Unknown for gt's body from the snapshot's initial
    globals. The query is the negation of assertion_ok, a failed assert or
    bounds check, which solve_bounded restricts to the runs that respect
    every assume and stay within the bound; a Pass is complete when no
    such run leaves the bound."""
    builder = TermBuilder(time.monotonic() + cfg.timeout_s)
    try:
        prog = encode_ssa(gt.body, snap, cfg, builder, symbolic_globals=False)
        failed = Formula(builder, builder.not_(prog.assertion_ok), tuple(prog.inputs))
        result = solve_bounded(
            sat_solve, failed, prog.assume_ok, prog.unwinding_complete, stats
        )
    except Timeout:
        return Unknown("timeout")
    except RecursionError:  # inlining stacks bodies each as deep as the parser allows
        return Unknown("unsupported")
    if isinstance(result, bool):
        return Pass(cfg.loop_bound, result)

    model = result.model
    values = prog.nondet_values(model)
    outcome = run_function(snap, gt.body, [], None, values, record_trace=True)
    if outcome.status not in ("assert_fail", "trap"):
        raise InternalError(
            f"model for {gt.origin!r} does not replay to a failure"
            f" (got {outcome.status})"
        )
    valuation = {rec.name: model[rec.name] for rec in prog.nondet_records}
    return Fail(
        Counterexample(valuation, values, outcome.span, outcome.trace, outcome.function)
    )


def _literal_for(value: int | bool, width: int, span: Span) -> ast.Expr:
    if isinstance(value, bool):
        return ast.BoolLit(span, value)
    signed = to_signed(value, width)
    if signed < 0:
        return ast.Unary(span, "-", ast.IntLit(span, -signed))
    return ast.IntLit(span, signed)


def concretize(gt: GeneralizedTest, cx: Counterexample, width: int) -> ast.FunctionDef:
    """Substitute counterexample values back, yielding a nondet-free test body.

    Each intrinsic site receives the value of its first dynamic occurrence.
    A site reached again, as in a loop, may need another value for the
    failure, so the result can pass: replay it before reporting it.
    """
    def literal(e: ast.Expr) -> ast.Expr | None:
        if not isinstance(e, (ast.NondetInt, ast.NondetBool)):
            return None
        value = cx.values.get((e.span.start, 0))
        if value is None:
            # Site never reached within the bound; any constant keeps the
            # test well-typed without affecting the replayed path.
            value = False if isinstance(e, ast.NondetBool) else 0
        return _literal_for(value, width, e.span)

    return replace(gt.body, body=ast.map_stmt(gt.body.body, literal))
