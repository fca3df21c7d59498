"""Reference big-step interpreter for MiniC.

This is the dynamic half of the toolkit: the semantics here are the ground
truth that the symbolic encoder must match bit for bit. Integers are
unsigned residues modulo 2**width with signed comparisons, shift amounts
are masked by width-1, right shift is arithmetic, `&&`/`||` short-circuit,
and an out-of-bounds array access is an implicit assertion violation at the
access site.

Execution is fuel-bounded (a nontermination guard) and can record a trace
of every executed assignment, which is how counterexample traces are
produced: a failing input is simply re-run concretely.

Each call gets a frame that maps the slots the type checker gave the
callee's parameters and locals to their values; a variable is read with one
lookup of its node's slot, and names are never resolved here. Apart from
the frontend, the interpreter imports only the word arithmetic of
`cfv.terms`, nothing of the encoder, blaster or solver it judges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cfv.errors import CfvError
from cfv.minic import ast
from cfv.minic.ast import Span
from cfv.snapshot import Snapshot
from cfv.terms import mask, to_signed, to_unsigned

DEFAULT_FUEL = 1_000_000
# A run that nests calls deeper halts as out_of_fuel, an observable outcome
# that ssa matches through UnrollConfig.inline_depth, not a stack guard. The
# entry function counts as one call, and ssa inlines at most MAX_CALL_DEPTH - 1
# nested calls, so every model the solver finds can be replayed here.
MAX_CALL_DEPTH = 100

Value = int | bool | list


@dataclass
class Outcome:
    """Result of running one function body to completion or to a halt."""

    status: str  # "ok", "assert_fail", "trap", "assume_halt", "out_of_fuel"
    span: Span | None = None
    ret: int | bool | None = None
    globals: dict[str, Value] = field(default_factory=dict)
    trace: list[tuple[Span, str, int | bool]] = field(default_factory=list)
    # The innermost function running when the run halted; span lies in it.
    function: str | None = None

    @property
    def ok(self) -> bool:
        # assume_halt ends the run without observing anything; it never
        # counts as a violation.
        return self.status in ("ok", "assume_halt")


class InterpreterError(CfvError):
    """Misuse, e.g. nondet intrinsics without a supplied stream."""


class _Halt(Exception):
    def __init__(self, status: str, span: Span):
        self.status = status
        self.span = span
        self.function: str | None = None  # set by the innermost call


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def zero_globals(snap: Snapshot) -> dict[str, Value]:
    """Every global of snap at zero: arrays of 0, bools False, ints 0."""
    out: dict[str, Value] = {}
    for name, decl in snap.globals.items():
        if isinstance(decl.ty, ast.ArrayType):
            out[name] = [0] * decl.ty.length
        else:
            out[name] = False if isinstance(decl.ty, ast.BoolType) else 0
    return out


def initial_globals(snap: Snapshot) -> dict[str, Value]:
    """The globals as the program starts: zero, or the scalar initializer."""
    out = zero_globals(snap)
    for name, decl in snap.globals.items():
        value = ast.literal_value(decl.init)
        if value is None:
            if decl.init is not None:
                raise InterpreterError(f"non-literal initializer for global {name!r}")
        elif isinstance(decl.ty, ast.BoolType):
            out[name] = bool(value)
        else:
            out[name] = to_unsigned(value, snap.width)
    return out


class Interpreter:
    def __init__(
        self,
        snap: Snapshot,
        fuel: int = DEFAULT_FUEL,
        nondet_values: dict[tuple[int, int], int | bool] | None = None,
        record_trace: bool = False,
    ):
        self.snap = snap
        self.width = snap.width
        self.fuel = fuel
        # Nondet values are keyed by (site byte offset, per-site occurrence):
        # the executed path visits a subset of the encoded occurrences, so a
        # flat stream would go out of step at the first branch.
        self.nondet_values = nondet_values
        self.site_counts: dict[int, int] = {}
        self.globals: dict[str, Value] = {}
        self.trace: list[tuple[Span, str, int | bool]] = []
        self.record_trace = record_trace
        self.call_depth = 0

    # -- plumbing ------------------------------------------------------------

    def burn(self, span: Span) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise _Halt("out_of_fuel", span)

    def record(self, span: Span, name: str, value: int | bool) -> None:
        if self.record_trace:
            self.trace.append((span, name, value))

    def run_function(
        self,
        fn: ast.FunctionDef,
        args: list[int | bool],
        globals_init: dict[str, Value] | None = None,
    ) -> Outcome:
        """Run fn from a fresh global state; arguments are residues/bools."""
        self.globals = (
            {k: (list(v) if isinstance(v, list) else v) for k, v in globals_init.items()}
            if globals_init is not None
            else initial_globals(self.snap)
        )
        self.trace = []
        self.site_counts = {}
        try:
            ret = self.call(fn, args, fn.span)
            return Outcome("ok", None, ret, self.globals, self.trace)
        except _Halt as halt:
            return Outcome(
                halt.status, halt.span, None, self.globals, self.trace, halt.function
            )

    def call(self, fn: ast.FunctionDef, args: list[int | bool], span: Span):
        if len(args) != len(fn.params):
            raise InterpreterError(f"arity mismatch calling {fn.name!r}")
        self.call_depth += 1
        if self.call_depth > MAX_CALL_DEPTH:
            raise _Halt("out_of_fuel", span)
        frame: dict[int, Value] = dict(enumerate(args))
        try:
            self.exec_block(fn.body, frame)
        except _ReturnSignal as sig:
            return sig.value
        except _Halt as halt:
            halt.function = halt.function or fn.name
            raise
        finally:
            self.call_depth -= 1
        return None

    # -- statements ------------------------------------------------------------

    def exec_block(self, block: ast.Block, frame: dict[int, Value]) -> None:
        for stmt in block.stmts:
            self.exec_stmt(stmt, frame)

    def exec_stmt(self, stmt: ast.Stmt, frame: dict[int, Value]) -> None:
        self.burn(stmt.span)
        if isinstance(stmt, ast.Block):
            self.exec_block(stmt, frame)
        elif isinstance(stmt, ast.VarDecl):
            if isinstance(stmt.declared_type, ast.ArrayType):
                value: Value = [0] * stmt.declared_type.length
            elif stmt.init is not None:
                value = self.eval(stmt.init, frame)
            elif isinstance(stmt.declared_type, ast.BoolType):
                value = False
            else:
                value = 0
            frame[ast.slot_of(stmt)] = value
            if not isinstance(value, list):
                self.record(stmt.span, stmt.name, value)
        elif isinstance(stmt, ast.Assign):
            self.exec_assign(stmt, frame)
        elif isinstance(stmt, ast.If):
            if self.eval(stmt.cond, frame):
                self.exec_block(stmt.then_body, frame)
            elif stmt.else_body is not None:
                self.exec_block(stmt.else_body, frame)
        elif isinstance(stmt, ast.While):
            while True:
                self.burn(stmt.span)
                if not self.eval(stmt.cond, frame):
                    break
                self.exec_block(stmt.body, frame)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, frame) if stmt.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Assert):
            if not self.eval(stmt.cond, frame):
                raise _Halt("assert_fail", stmt.span)
        elif isinstance(stmt, ast.Assume):
            if not self.eval(stmt.cond, frame):
                raise _Halt("assume_halt", stmt.span)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, frame)
        else:  # pragma: no cover
            raise AssertionError(f"unknown statement {stmt!r}")

    def exec_assign(self, stmt: ast.Assign, frame: dict[int, Value]) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            value = self.eval(stmt.value, frame)
            self.store(target, value, frame)
            self.record(stmt.span, target.name, value)
        else:
            assert isinstance(target, ast.ArrayIndex)
            idx = self.eval(target.index, frame)
            arr = self.load(target, frame)
            self.check_bounds(idx, len(arr), target.span)
            value = self.eval(stmt.value, frame)
            arr[to_signed(idx, self.width)] = value
            self.record(stmt.span, f"{target.name}[{to_signed(idx, self.width)}]", value)

    def load(self, ref: ast.VarRef | ast.ArrayIndex, frame: dict[int, Value]) -> Value:
        slot = ast.slot_of(ref)
        return self.globals[ref.name] if slot == ast.GLOBAL else frame[slot]

    def store(self, ref: ast.VarRef, value, frame: dict[int, Value]) -> None:
        slot = ast.slot_of(ref)
        if slot == ast.GLOBAL:
            self.globals[ref.name] = value
        else:
            frame[slot] = value

    def check_bounds(self, idx: int, length: int, span: Span) -> None:
        signed = to_signed(idx, self.width)
        if signed < 0 or signed >= length:
            raise _Halt("trap", span)

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: ast.Expr, frame: dict[int, Value]):
        self.burn(expr.span)
        w = self.width
        if isinstance(expr, ast.IntLit):
            return to_unsigned(expr.value, w)
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self.load(expr, frame)
        if isinstance(expr, ast.ArrayIndex):
            idx = self.eval(expr.index, frame)
            arr = self.load(expr, frame)
            self.check_bounds(idx, len(arr), expr.span)
            return arr[to_signed(idx, w)]
        if isinstance(expr, ast.Unary):
            v = self.eval(expr.operand, frame)
            if expr.op == "-":
                return to_unsigned(-v, w)
            if expr.op == "~":
                return v ^ mask(w)
            return not v
        if isinstance(expr, ast.Binary):
            return self.eval_binary(expr, frame)
        if isinstance(expr, ast.Call):
            fn = self.snap.functions[expr.name]
            args = [self.eval(a, frame) for a in expr.args]
            return self.call(fn, args, expr.span)
        if isinstance(expr, (ast.NondetInt, ast.NondetBool)):
            if self.nondet_values is None:
                raise InterpreterError(
                    "nondet intrinsic reached without supplied values"
                )
            site = expr.span.start
            occurrence = self.site_counts.get(site, 0)
            self.site_counts[site] = occurrence + 1
            try:
                value = self.nondet_values[(site, occurrence)]
            except KeyError:
                raise InterpreterError(
                    f"no value for nondet occurrence {occurrence} at offset {site}"
                ) from None
            if isinstance(expr, ast.NondetBool):
                return bool(value)
            return to_unsigned(int(value), w)
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def eval_binary(self, expr: ast.Binary, frame: dict[int, Value]):
        op = expr.op
        w = self.width
        if op == "&&":
            return bool(self.eval(expr.left, frame)) and bool(
                self.eval(expr.right, frame)
            )
        if op == "||":
            return bool(self.eval(expr.left, frame)) or bool(
                self.eval(expr.right, frame)
            )
        a = self.eval(expr.left, frame)
        b = self.eval(expr.right, frame)
        if op == "+":
            return (a + b) & mask(w)
        if op == "-":
            return (a - b) & mask(w)
        if op == "*":
            return (a * b) & mask(w)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return (a << (b & (w - 1))) & mask(w)
        if op == ">>":
            return (to_signed(a, w) >> (b & (w - 1))) & mask(w)
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        sa, sb = to_signed(a, w), to_signed(b, w)
        if op == "<":
            return sa < sb
        if op == "<=":
            return sa <= sb
        if op == ">":
            return sa > sb
        if op == ">=":
            return sa >= sb
        raise AssertionError(f"unknown operator {op}")  # pragma: no cover


# -- public entry points -------------------------------------------------------


def run_function(
    snap: Snapshot,
    fn: ast.FunctionDef,
    args: list[int | bool],
    globals_init: dict[str, Value] | None = None,
    nondet_values: dict[tuple[int, int], int | bool] | None = None,
    fuel: int = DEFAULT_FUEL,
    record_trace: bool = False,
) -> Outcome:
    interp = Interpreter(snap, fuel, nondet_values, record_trace)
    return interp.run_function(fn, args, globals_init)
