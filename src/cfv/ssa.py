"""Bounded symbolic encoding of MiniC functions into term DAGs.

One pass of guarded symbolic execution produces, per function, the return
term, the final term of every touched global, and three boolean guards:

* assertion_ok: every assert and every array bounds check holds,
* unwinding_complete: no loop or call chain ran past its bound,
* assume_ok: every executed assume held.

Loops unroll loop_bound times with the residual entry falsifying
unwinding_complete; calls inline up to inline_depth the same way. State
updates are guarded if-then-else rewrites, so join points need no explicit
merging. Every nondet intrinsic occurrence becomes a fresh input symbol
tagged with its source site, which is what lets counterexamples replay
through the interpreter.

Two entry-state modes: equivalence checking reads globals as fresh shared
input symbols (a function can be called in any state), while whole-test
verification starts from the snapshot's declared initial values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from cfv.errors import CfvError
from cfv.minic import ast
from cfv.minic.ast import Span
from cfv.snapshot import Snapshot
from cfv.terms import BOOL, Formula, Term, TermBuilder

PARAM_PREFIX = "a"
GLOBAL_PREFIX = "g!"
NONDET_PREFIX = "n"


@dataclass(frozen=True)
class UnrollConfig:
    loop_bound: int = 8
    inline_depth: int | None = None  # defaults to loop_bound
    timeout_s: float = 60.0
    width: int = 32

    def __post_init__(self) -> None:
        if self.loop_bound < 1:
            raise ValueError("loop_bound must be at least 1")
        if self.inline_depth is not None and self.inline_depth < 1:
            raise ValueError("inline_depth must be at least 1")
        if not self.timeout_s > 0:  # NaN included
            raise ValueError("timeout_s must be positive")

    @property
    def depth(self) -> int:
        return self.inline_depth if self.inline_depth is not None else self.loop_bound


class EncodeTimeout(CfvError):
    pass


@dataclass
class InputSlot:
    kind: str  # "param", "global", "nondet"
    name: str
    terms: tuple[Term, ...]

    def flat(self):
        return self.terms


@dataclass
class NondetRecord:
    name: str  # input symbol name
    span: Span
    site_occurrence: int  # how many occurrences of this site came before


@dataclass
class SsaProgram:
    fn_name: str
    width: int
    builder: TermBuilder
    slots: list[InputSlot]
    ret: Term | None
    return_type: ast.Type
    globals_final: dict[str, Term | tuple[Term, ...]]
    globals_read: set[str]
    globals_written: set[str]
    assertion_ok: Term
    unwinding_complete: Term
    assume_ok: Term
    nondet_records: list[NondetRecord]

    def input_terms(self) -> list[Term]:
        out: list[Term] = []
        for slot in self.slots:
            out.extend(slot.terms)
        return out


class _Frame:
    __slots__ = ("scopes", "values", "ret_flag", "ret_val")

    def __init__(self, ret_flag: Term, ret_val: Term | None):
        self.scopes: list[dict[str, int]] = [{}]
        self.values: dict[int, Term | tuple[Term, ...]] = {}
        self.ret_flag = ret_flag
        self.ret_val = ret_val


class Encoder:
    def __init__(
        self,
        snap: Snapshot,
        cfg: UnrollConfig,
        builder: TermBuilder | None = None,
        symbolic_globals: bool = True,
        deadline: float | None = None,
    ):
        if snap.width != cfg.width:
            raise ValueError(
                f"snapshot width {snap.width} != encoding width {cfg.width}"
            )
        self.snap = snap
        self.cfg = cfg
        self.b = builder if builder is not None else TermBuilder()
        self.symbolic_globals = symbolic_globals
        self.deadline = deadline
        self.width = cfg.width

    # -- entry ----------------------------------------------------------------

    def encode_function(self, fn: ast.FunctionDef) -> SsaProgram:
        b = self.b
        self.global_env: dict[str, Term | tuple[Term, ...]] = {}
        self.globals_read: set[str] = set()
        self.globals_written: set[str] = set()
        self.slots: list[InputSlot] = []
        self.nondet_records: list[NondetRecord] = []
        self._nondet_counter = 0
        self._site_counts: dict[int, int] = {}
        self._key_counter = 0
        self.ok = b.true
        self.uc = b.true
        self.assume = b.true
        self.depth = 0

        if not self.symbolic_globals:
            from cfv.interp import initial_globals

            for name, value in initial_globals(self.snap).items():
                if isinstance(value, list):
                    self.global_env[name] = tuple(
                        b.const(v, self.width) for v in value
                    )
                elif isinstance(value, bool):
                    self.global_env[name] = b.bool_const(value)
                else:
                    self.global_env[name] = b.const(value, self.width)

        frame = _Frame(b.false, self._default(fn.return_type))
        for i, p in enumerate(fn.params):
            if isinstance(p.ty, ast.ArrayType):
                raise CfvError("array parameters are outside the subset")
            width = BOOL if isinstance(p.ty, ast.BoolType) else self.width
            term = b.input(f"{PARAM_PREFIX}{i}", width)
            self.slots.append(InputSlot("param", p.name, (term,)))
            key = self._fresh_key()
            frame.scopes[0][p.name] = key
            frame.values[key] = term

        self.exec_block(fn.body, b.true, frame)

        ret = None if isinstance(fn.return_type, ast.VoidType) else frame.ret_val
        return SsaProgram(
            fn_name=fn.name,
            width=self.width,
            builder=b,
            slots=self.slots,
            ret=ret,
            return_type=fn.return_type,
            globals_final=dict(self.global_env),
            globals_read=set(self.globals_read),
            globals_written=set(self.globals_written),
            assertion_ok=self.ok,
            unwinding_complete=self.uc,
            assume_ok=self.assume,
            nondet_records=self.nondet_records,
        )

    # -- helpers ---------------------------------------------------------------

    def _fresh_key(self) -> int:
        self._key_counter += 1
        return self._key_counter

    def _default(self, ty: ast.Type) -> Term | tuple[Term, ...] | None:
        if isinstance(ty, ast.VoidType):
            return None
        if isinstance(ty, ast.BoolType):
            return self.b.false
        if isinstance(ty, ast.ArrayType):
            return tuple(self.b.const(0, self.width) for _ in range(ty.length))
        return self.b.const(0, self.width)

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise EncodeTimeout("encoding exceeded the time limit")

    def _global_decl(self, name: str) -> ast.GlobalDecl:
        return self.snap.globals[name]

    def global_value(self, name: str) -> Term | tuple[Term, ...]:
        value = self.global_env.get(name)
        if value is not None:
            return value
        # First read in symbolic mode: materialize fresh shared inputs.
        decl = self._global_decl(name)
        b = self.b
        if isinstance(decl.ty, ast.ArrayType):
            terms = tuple(
                b.input(f"{GLOBAL_PREFIX}{name}!{i}", self.width)
                for i in range(decl.ty.length)
            )
            value = terms
        elif isinstance(decl.ty, ast.BoolType):
            value = b.input(f"{GLOBAL_PREFIX}{name}", BOOL)
            terms = (value,)
        else:
            value = b.input(f"{GLOBAL_PREFIX}{name}", self.width)
            terms = (value,)
        self.slots.append(InputSlot("global", name, terms))
        self.global_env[name] = value
        return value

    def resolve(self, name: str, frame: _Frame) -> tuple[str, int | None]:
        """Returns ("local", key) or ("global", None)."""
        for scope in reversed(frame.scopes):
            if name in scope:
                return "local", scope[name]
        return "global", None

    def read_var(self, name: str, frame: _Frame) -> Term | tuple[Term, ...]:
        kind, key = self.resolve(name, frame)
        if kind == "local":
            return frame.values[key]
        self.globals_read.add(name)
        return self.global_value(name)

    def write_var(self, name: str, value, frame: _Frame) -> None:
        kind, key = self.resolve(name, frame)
        if kind == "local":
            frame.values[key] = value
        else:
            self.globals_written.add(name)
            self.global_env[name] = value

    def ok_require(self, guard: Term, cond: Term) -> None:
        self.ok = self.b.and_(self.ok, self.b.implies(guard, cond))

    def bounds_guard(self, idx: Term, length: int) -> Term:
        b = self.b
        return b.and_(
            b.sle(b.const(0, self.width), idx),
            b.slt(idx, b.const(length, self.width)),
        )

    # -- statements ----------------------------------------------------------

    def exec_block(self, block: ast.Block, guard: Term, frame: _Frame) -> None:
        frame.scopes.append({})
        for stmt in block.stmts:
            self.exec_stmt(stmt, guard, frame)
        frame.scopes.pop()

    def exec_stmt(self, stmt: ast.Stmt, guard: Term, frame: _Frame) -> None:
        b = self.b
        eff = b.and_(guard, b.not_(frame.ret_flag))
        if isinstance(stmt, ast.Block):
            self.exec_block(stmt, eff, frame)
        elif isinstance(stmt, ast.VarDecl):
            key = self._fresh_key()
            frame.scopes[-1][stmt.name] = key
            if stmt.init is not None:
                frame.values[key] = self.eval(stmt.init, eff, frame)
            else:
                frame.values[key] = self._default(stmt.declared_type)
        elif isinstance(stmt, ast.Assign):
            self.exec_assign(stmt, eff, frame)
        elif isinstance(stmt, ast.If):
            cond = self.eval(stmt.cond, eff, frame)
            self.exec_block(stmt.then_body, b.and_(eff, cond), frame)
            if stmt.else_body is not None:
                self.exec_block(stmt.else_body, b.and_(eff, b.not_(cond)), frame)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt, eff, frame)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.eval(stmt.value, eff, frame)
                frame.ret_val = b.ite(eff, value, frame.ret_val)
            frame.ret_flag = b.or_(frame.ret_flag, eff)
        elif isinstance(stmt, ast.Assert):
            cond = self.eval(stmt.cond, eff, frame)
            self.ok_require(eff, cond)
        elif isinstance(stmt, ast.Assume):
            cond = self.eval(stmt.cond, eff, frame)
            self.assume = b.and_(self.assume, b.implies(eff, cond))
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, eff, frame, allow_void=True)
        else:  # pragma: no cover
            raise AssertionError(f"unknown statement {stmt!r}")

    def exec_assign(self, stmt: ast.Assign, eff: Term, frame: _Frame) -> None:
        b = self.b
        target = stmt.target
        if isinstance(target, ast.VarRef):
            value = self.eval(stmt.value, eff, frame)
            # The guarded update needs the previous value; under a constant
            # true guard the ite folds and the read disappears again.
            old = self.read_var(target.name, frame)
            self.write_var(target.name, b.ite(eff, value, old), frame)
        else:
            assert isinstance(target, ast.ArrayIndex)
            idx = self.eval(target.index, eff, frame)
            arr = self.read_var(target.name, frame)
            assert isinstance(arr, tuple)
            self.ok_require(eff, self.bounds_guard(idx, len(arr)))
            value = self.eval(stmt.value, eff, frame)
            updated = tuple(
                b.ite(
                    b.and_(eff, b.eq(idx, b.const(j, self.width))), value, arr[j]
                )
                for j in range(len(arr))
            )
            self.write_var(target.name, updated, frame)

    def exec_while(self, stmt: ast.While, eff: Term, frame: _Frame) -> None:
        b = self.b
        g = eff
        for _ in range(self.cfg.loop_bound):
            self._check_deadline()
            live = b.and_(g, b.not_(frame.ret_flag))
            cond = self.eval(stmt.cond, live, frame)
            g = b.and_(live, cond)
            if g.is_const and g.value == 0:
                return  # statically exhausted within the bound
            self.exec_block(stmt.body, g, frame)
        live = b.and_(g, b.not_(frame.ret_flag))
        cond = self.eval(stmt.cond, live, frame)
        residual = b.and_(live, cond)
        self.uc = b.and_(self.uc, b.not_(residual))

    # -- expressions -------------------------------------------------------------

    def eval(self, expr: ast.Expr, guard: Term, frame: _Frame, allow_void: bool = False):
        b = self.b
        if isinstance(expr, ast.IntLit):
            return b.const(expr.value, self.width)
        if isinstance(expr, ast.BoolLit):
            return b.bool_const(expr.value)
        if isinstance(expr, ast.VarRef):
            return self.read_var(expr.name, frame)
        if isinstance(expr, ast.ArrayIndex):
            idx = self.eval(expr.index, guard, frame)
            arr = self.read_var(expr.name, frame)
            assert isinstance(arr, tuple)
            self.ok_require(guard, self.bounds_guard(idx, len(arr)))
            value = b.const(0, self.width)
            for j in range(len(arr) - 1, -1, -1):
                value = b.ite(b.eq(idx, b.const(j, self.width)), arr[j], value)
            return value
        if isinstance(expr, ast.Unary):
            v = self.eval(expr.operand, guard, frame)
            if expr.op == "-":
                return b.neg(v)
            if expr.op == "~":
                return b.bnot(v)
            return b.not_(v)
        if isinstance(expr, ast.Binary):
            return self.eval_binary(expr, guard, frame)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, guard, frame)
        if isinstance(expr, ast.NondetInt):
            return self.fresh_nondet(expr.span, self.width)
        if isinstance(expr, ast.NondetBool):
            return self.fresh_nondet(expr.span, BOOL)
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def fresh_nondet(self, span: Span, width: int) -> Term:
        name = f"{NONDET_PREFIX}{self._nondet_counter}"
        self._nondet_counter += 1
        site = span.start
        occurrence = self._site_counts.get(site, 0)
        self._site_counts[site] = occurrence + 1
        term = self.b.input(name, width)
        self.slots.append(InputSlot("nondet", name, (term,)))
        self.nondet_records.append(NondetRecord(name, span, occurrence))
        return term

    def eval_binary(self, expr: ast.Binary, guard: Term, frame: _Frame) -> Term:
        b = self.b
        op = expr.op
        if op == "&&":
            left = self.eval(expr.left, guard, frame)
            right = self.eval(expr.right, b.and_(guard, left), frame)
            return b.and_(left, right)
        if op == "||":
            left = self.eval(expr.left, guard, frame)
            right = self.eval(expr.right, b.and_(guard, b.not_(left)), frame)
            return b.or_(left, right)
        a = self.eval(expr.left, guard, frame)
        c = self.eval(expr.right, guard, frame)
        if op == "+":
            return b.add(a, c)
        if op == "-":
            return b.sub(a, c)
        if op == "*":
            return b.mul(a, c)
        if op == "&":
            return b.band(a, c)
        if op == "|":
            return b.bor(a, c)
        if op == "^":
            return b.bxor(a, c)
        if op == "<<":
            return b.shl(a, c)
        if op == ">>":
            return b.ashr(a, c)
        if op == "==":
            return b.eq(a, c)
        if op == "!=":
            return b.ne(a, c)
        if op == "<":
            return b.slt(a, c)
        if op == "<=":
            return b.sle(a, c)
        if op == ">":
            return b.slt(c, a)
        if op == ">=":
            return b.sle(c, a)
        raise AssertionError(f"unknown operator {op}")  # pragma: no cover

    def eval_call(self, expr: ast.Call, guard: Term, frame: _Frame):
        b = self.b
        fn = self.snap.functions[expr.name]
        args = [self.eval(a, guard, frame) for a in expr.args]
        if self.depth + 1 > self.cfg.depth:
            # Call chain exceeds the inlining bound on this path.
            self.uc = b.and_(self.uc, b.not_(guard))
            return self._default(fn.return_type)
        self._check_deadline()
        self.depth += 1
        callee = _Frame(b.false, self._default(fn.return_type))
        for p, value in zip(fn.params, args):
            key = self._fresh_key()
            callee.scopes[0][p.name] = key
            callee.values[key] = value
        self.exec_block(fn.body, guard, callee)
        self.depth -= 1
        return callee.ret_val


def encode_ssa(
    fn: ast.FunctionDef,
    snap: Snapshot,
    cfg: UnrollConfig,
    builder: TermBuilder | None = None,
    symbolic_globals: bool = True,
    deadline: float | None = None,
) -> SsaProgram:
    """Encode one type-checked function under the given unrolling bounds."""
    encoder = Encoder(snap, cfg, builder, symbolic_globals, deadline)
    return encoder.encode_function(fn)


def verification_formula(prog: SsaProgram) -> Formula:
    """Satisfiable iff some in-bound, assumption-respecting run violates
    an assertion or bounds check."""
    b = prog.builder
    root = b.all_(
        [prog.assume_ok, prog.unwinding_complete, b.not_(prog.assertion_ok)]
    )
    return Formula(b, root, tuple(prog.input_terms()))
