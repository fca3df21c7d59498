"""Bounded model checking of (generalized) tests and counterexample replay.

A test is verified as a local model: its body plus the callees it actually
reaches are encoded from the snapshot's initial global state, and the
solver searches for nondet values that reach an assertion or bounds
violation within the unrolling bound. A SAT model is immediately re-run
through the reference interpreter with tracing on; the counterexample that
comes out therefore carries a real execution trace and a failing assertion
site, not a decoded guess. Concretization turns that counterexample back
into an ordinary nondet-free test that fails under plain interpretation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from cfv.errors import CfvError
from cfv.harness import GeneralizedTest, TestCase
from cfv.interp import DEFAULT_FUEL, run_function
from cfv.minic import ast
from cfv.minic.ast import Span
from cfv.snapshot import Snapshot
from cfv.solver import Sat, SolverStats, Timeout, Unknown, Unsat, sat_solve
from cfv.ssa import EncodeTimeout, UnrollConfig, encode_ssa, verification_formula
from cfv.terms import to_signed


@dataclass
class Counterexample:
    # Dynamic nondet symbol -> value; sites maps each symbol to its source
    # (byte offset of the intrinsic, per-site occurrence index).
    valuation: dict[str, int | bool]
    sites: dict[str, tuple[int, int]]
    failing_assert: Span
    trace: list[tuple[Span, str, int | bool]]


@dataclass
class Pass:
    bound: int
    complete: bool


@dataclass
class Fail:
    counterexample: Counterexample


VerificationResult = Pass | Fail | Unknown


def verify_test(
    gt: GeneralizedTest,
    snap: Snapshot,
    cfg: UnrollConfig,
    stats: SolverStats | None = None,
    fuel: int = DEFAULT_FUEL,
    solve_fn=None,
) -> VerificationResult:
    solve = solve_fn if solve_fn is not None else sat_solve
    deadline = time.monotonic() + cfg.timeout_s
    try:
        prog = encode_ssa(
            gt.body, snap, cfg, symbolic_globals=False, deadline=deadline
        )
    except EncodeTimeout:
        return Unknown("timeout")
    formula = verification_formula(prog)
    result = solve(formula, deadline=deadline, stats=stats)
    if isinstance(result, Timeout):
        return Unknown("timeout")
    if isinstance(result, Unsat):
        b = prog.builder
        uc = prog.unwinding_complete
        if uc.is_const and uc.value:
            return Pass(cfg.loop_bound, True)
        from cfv.terms import Formula

        comp = Formula(
            b, b.and_(prog.assume_ok, b.not_(uc)), formula.inputs
        )
        comp_result = solve(comp, deadline=deadline, stats=stats)
        return Pass(cfg.loop_bound, isinstance(comp_result, Unsat))

    model = result.model
    nondet_values = {
        (rec.span.start, rec.site_occurrence): model[rec.name]
        for rec in prog.nondet_records
    }
    outcome = run_function(
        snap, gt.body, [], None, nondet_values, fuel, record_trace=True
    )
    if outcome.status not in ("assert_fail", "trap"):
        raise RuntimeError(
            f"internal error: model for {gt.origin!r} does not replay to a failure"
            f" (got {outcome.status})"
        )
    valuation = {rec.name: model[rec.name] for rec in prog.nondet_records}
    sites = {
        rec.name: (rec.span.start, rec.site_occurrence)
        for rec in prog.nondet_records
    }
    return Fail(Counterexample(valuation, sites, outcome.span, outcome.trace))


def _literal_for(value: int | bool, width: int, span: Span) -> ast.Expr:
    if isinstance(value, bool):
        return ast.BoolLit(span, value)
    signed = to_signed(value, width)
    if signed < 0:
        return ast.Unary(span, "-", ast.IntLit(span, -signed))
    return ast.IntLit(span, signed)


class _Concretizer:
    def __init__(self, values: dict[int, int | bool], width: int):
        self.values = values  # site byte offset -> first-occurrence value
        self.width = width

    def expr(self, e: ast.Expr) -> ast.Expr:
        if isinstance(e, (ast.NondetInt, ast.NondetBool)):
            value = self.values.get(e.span.start)
            if value is None:
                # Site never reached within the bound; any constant keeps
                # the test well-typed without affecting the replayed path.
                value = False if isinstance(e, ast.NondetBool) else 0
            return _literal_for(value, self.width, e.span)
        if isinstance(e, (ast.IntLit, ast.BoolLit, ast.VarRef)):
            return e
        if isinstance(e, ast.ArrayIndex):
            return ast.ArrayIndex(e.span, e.name, self.expr(e.index))
        if isinstance(e, ast.Unary):
            return ast.Unary(e.span, e.op, self.expr(e.operand))
        if isinstance(e, ast.Binary):
            return ast.Binary(e.span, e.op, self.expr(e.left), self.expr(e.right))
        if isinstance(e, ast.Call):
            return ast.Call(e.span, e.name, [self.expr(a) for a in e.args])
        raise AssertionError(f"unknown expression {e!r}")  # pragma: no cover

    def stmt(self, s: ast.Stmt) -> ast.Stmt:
        if isinstance(s, ast.Block):
            return ast.Block(s.span, [self.stmt(x) for x in s.stmts])
        if isinstance(s, ast.VarDecl):
            init = self.expr(s.init) if s.init is not None else None
            return ast.VarDecl(s.span, s.name, s.declared_type, init)
        if isinstance(s, ast.Assign):
            target = s.target
            if isinstance(target, ast.ArrayIndex):
                target = ast.ArrayIndex(target.span, target.name, self.expr(target.index))
            return ast.Assign(s.span, target, self.expr(s.value))
        if isinstance(s, ast.If):
            return ast.If(
                s.span,
                self.expr(s.cond),
                self.stmt(s.then_body),
                self.stmt(s.else_body) if s.else_body is not None else None,
            )
        if isinstance(s, ast.While):
            return ast.While(s.span, self.expr(s.cond), self.stmt(s.body))
        if isinstance(s, ast.Return):
            return ast.Return(s.span, self.expr(s.value) if s.value else None)
        if isinstance(s, ast.Assert):
            return ast.Assert(s.span, self.expr(s.cond))
        if isinstance(s, ast.Assume):
            return ast.Assume(s.span, self.expr(s.cond))
        if isinstance(s, ast.ExprStmt):
            return ast.ExprStmt(s.span, self.expr(s.expr))
        raise AssertionError(f"unknown statement {s!r}")  # pragma: no cover


def concretize(gt: GeneralizedTest, cx: Counterexample, width: int) -> TestCase:
    """Substitute counterexample values back, yielding a nondet-free test.

    Each intrinsic site receives the value of its first dynamic occurrence;
    for the loop-free bodies generalization produces, that is the only one.
    """
    by_site: dict[int, int | bool] = {}
    for symbol, (site, occurrence) in cx.sites.items():
        if occurrence == 0:
            by_site[site] = cx.valuation[symbol]
    conc = _Concretizer(by_site, width)
    body = conc.stmt(gt.body.body)
    fn = ast.FunctionDef(
        gt.body.name,
        [],
        gt.body.return_type,
        body,
        span=gt.body.span,
        body_span=gt.body.body_span,
        reads_globals=gt.body.reads_globals,
        writes_globals=gt.body.writes_globals,
    )
    return TestCase(gt.origin, gt.origin, fn)
