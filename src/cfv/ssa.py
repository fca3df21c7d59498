"""Bounded symbolic encoding of MiniC functions into term DAGs.

One pass of guarded symbolic execution produces, per function, the return
term, the final term of every written global, and three boolean guards:

* assertion_ok: every assert and every array bounds check holds,
* unwinding_complete: no loop or call chain ran past its bound while every
  check before that point held,
* assume_ok: every assume held that was executed while every check before
  it held.

Loops unroll loop_bound times with the residual entry falsifying
unwinding_complete; calls inline the same way, at most loop_bound deep and
never deeper than the interpreter that replays every model can follow:
it counts the entry function as one call and stops past
interp.MAX_CALL_DEPTH, so at most MAX_CALL_DEPTH - 1 calls nest. A run
stops at its first failed check, as the interpreter's does, so neither an
assume nor a bound reached after one restricts the inputs: each is guarded
by the conjunction of the checks encoded before it. Otherwise an input that
fails an assert and then a later assume, or then runs a loop past its
bound, would be excluded from the query that looks for the failure. So an
assume is a top-level conjunct of assume_ok only when no check can fail
before it, and the bounds solver.sat_solve reads from such conjuncts hold
on every run.

State updates are guarded if-then-else rewrites, so join points need no
explicit merging. Every nondet intrinsic occurrence becomes a fresh input
symbol tagged with its source site, which is what lets counterexamples
replay through the interpreter.

A global enters the encoding on its first read, so an unread one is never
built, in one of two modes: equivalence checking reads fresh shared input
symbols (a function can be called in any state), while whole-test
verification takes the declared initial value. An array's term tuple holds
only the elements a signed index can reach (Encoder.indexable), and only
those become inputs; equivalence.decode_witness gives the rest 0.

SsaProgram records what each input stands for: the parameters, each
global's input terms and each nondet's site. Input names stay private here;
a model is read back at the recorded terms.

Each inlined call gets a frame that maps the slots the type checker gave
the callee's parameters and locals to their current terms; a variable is
read with one lookup of its node's slot, and names are never resolved here.

The builder's deadline, if it has one, bounds the encoding: each loop
iteration and each inlined call polls it through TermBuilder.check_deadline,
which raises errors.Timeout once it has passed, and the builder polls it
once per 4,096 terms it creates, so an access to a large array, which
builds one ite per element with no loop around it, is bounded too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from cfv.errors import CfvError
from cfv.interp import MAX_CALL_DEPTH
from cfv.minic import ast
from cfv.snapshot import Snapshot
from cfv.terms import BOOL, Term, TermBuilder

_PARAM_PREFIX = "a"
_GLOBAL_PREFIX = "g!"
_NONDET_PREFIX = "n"


@dataclass(frozen=True)
class UnrollConfig:
    loop_bound: int = 8  # bounds loop unrolling, and call inlining (inline_depth)
    timeout_s: float = 60.0
    width: int = 32

    def __post_init__(self) -> None:
        if self.loop_bound < 1:
            raise ValueError("loop_bound must be at least 1")
        if not 0 < self.timeout_s < inf:  # NaN included
            raise ValueError("timeout_s must be positive and finite")

    @property
    def inline_depth(self) -> int:
        """loop_bound, capped at the call depth the interpreter replays."""
        return min(self.loop_bound, MAX_CALL_DEPTH - 1)


@dataclass
class NondetRecord:
    name: str  # input symbol name
    site: int  # byte offset of the intrinsic
    site_occurrence: int  # how many occurrences of this site came before


@dataclass
class SsaProgram:
    builder: TermBuilder
    # Parameters, then globals and nondets in order of first use; least
    # models compare inputs in this order.
    inputs: list[Term]
    params: list[Term]
    # Each global's input term, or one per array element an index can reach
    # (Encoder.indexable); empty when the globals start from their declared
    # values.
    global_inputs: dict[str, Term | tuple[Term, ...]]
    ret: Term | None
    # Each written global's final value, in the order globals were first met;
    # an array's holds the elements an index can reach (Encoder.indexable).
    globals_written: dict[str, Term | tuple[Term, ...]]
    assertion_ok: Term
    unwinding_complete: Term
    assume_ok: Term
    nondet_records: list[NondetRecord]

    def nondet_values(self, model: dict[str, int | bool]) -> dict[tuple[int, int], int | bool]:
        """The model's nondet values keyed by (site offset, occurrence), as
        the interpreter reads them on replay."""
        return {
            (rec.site, rec.site_occurrence): model[rec.name]
            for rec in self.nondet_records
        }


class _Frame:
    __slots__ = ("locals", "ret_flag", "ret_val")

    def __init__(self, args: list, ret_flag: Term, ret_val: Term | None):
        # Slot -> term; the arguments fill the parameters' slots 0..n-1.
        self.locals: dict[int, Term | tuple[Term, ...]] = dict(enumerate(args))
        self.ret_flag = ret_flag
        self.ret_val = ret_val


class Encoder:
    def __init__(
        self,
        snap: Snapshot,
        cfg: UnrollConfig,
        builder: TermBuilder,
        symbolic_globals: bool = True,
    ):
        if snap.width != cfg.width:
            raise ValueError(
                f"snapshot width {snap.width} != encoding width {cfg.width}"
            )
        self.snap = snap
        self.cfg = cfg
        self.b = builder
        self.symbolic_globals = symbolic_globals
        self.width = cfg.width

    # -- entry ----------------------------------------------------------------

    def encode_function(self, fn: ast.FunctionDef) -> SsaProgram:
        b = self.b
        self.global_env: dict[str, Term | tuple[Term, ...]] = {}
        self.global_inputs: dict[str, Term | tuple[Term, ...]] = {}
        self.written: set[str] = set()
        self.inputs: list[Term] = []
        self.nondet_records: list[NondetRecord] = []
        self._site_counts: dict[int, int] = {}
        self.ok = b.true
        self.uc = b.true
        self.assume = b.true
        self.depth = 0

        params = []
        for i, p in enumerate(fn.params):
            if isinstance(p.ty, ast.ArrayType):
                raise CfvError("array parameters are outside the subset")
            width = BOOL if isinstance(p.ty, ast.BoolType) else self.width
            params.append(b.input(f"{_PARAM_PREFIX}{i}", width))
        self.inputs.extend(params)
        frame = _Frame(params, b.false, self._default(fn.return_type))

        self.exec_block(fn.body, b.true, frame)

        ret = None if isinstance(fn.return_type, ast.VoidType) else frame.ret_val
        return SsaProgram(
            builder=b,
            inputs=self.inputs,
            params=params,
            global_inputs=self.global_inputs,
            ret=ret,
            globals_written={
                n: v for n, v in self.global_env.items() if n in self.written
            },
            assertion_ok=self.ok,
            unwinding_complete=self.uc,
            assume_ok=self.assume,
            nondet_records=self.nondet_records,
        )

    # -- helpers ---------------------------------------------------------------

    def _default(self, ty: ast.Type) -> Term | tuple[Term, ...] | None:
        if isinstance(ty, ast.VoidType):
            return None
        if isinstance(ty, ast.BoolType):
            return self.b.false
        if isinstance(ty, ast.ArrayType):
            return (self.b.const(0, self.width),) * self.indexable(ty.length)
        return self.b.const(0, self.width)

    def global_value(self, name: str) -> Term | tuple[Term, ...]:
        """name's current value; its entry value is built on first read."""
        value = self.global_env.get(name)
        if value is not None:
            return value
        decl = self.snap.globals[name]
        ty = decl.ty
        width = BOOL if isinstance(ty, ast.BoolType) else self.width
        if not self.symbolic_globals:
            init = ast.literal_value(decl.init)
            value = self._default(ty) if init is None else self.b.const(init, width)
        elif isinstance(ty, ast.ArrayType):
            value = tuple(
                self.b.input(f"{_GLOBAL_PREFIX}{name}!{i}", self.width)
                for i in range(self.indexable(ty.length))
            )
            self.inputs.extend(value)
            self.global_inputs[name] = value
        else:
            value = self.b.input(f"{_GLOBAL_PREFIX}{name}", width)
            self.inputs.append(value)
            self.global_inputs[name] = value
        self.global_env[name] = value
        return value

    def read_var(self, ref: ast.VarRef | ast.ArrayIndex, frame: _Frame) -> Term | tuple[Term, ...]:
        slot = ast.slot_of(ref)
        if slot == ast.GLOBAL:
            return self.global_value(ref.name)
        return frame.locals[slot]

    def write_var(self, ref: ast.VarRef | ast.ArrayIndex, value, frame: _Frame) -> None:
        slot = ast.slot_of(ref)
        if slot == ast.GLOBAL:
            self.written.add(ref.name)
            self.global_env[ref.name] = value
        else:
            frame.locals[slot] = value

    def ok_require(self, guard: Term, cond: Term) -> None:
        self.ok = self.b.and_(self.ok, self.b.implies(guard, cond))

    def indexable(self, length: int) -> int:
        """How many elements of an array of length an index can select: the
        index is signed, so none past 2**(width-1) - 1. An array's term
        tuple holds these elements only."""
        return min(length, 1 << (self.width - 1))

    def bounds_guard(self, idx: Term, length: int) -> Term:
        b = self.b
        nonneg = b.sle(b.const(0, self.width), idx)
        if length >= 1 << (self.width - 1):
            return nonneg  # a tuple cut at indexable; length would wrap here
        return b.and_(nonneg, b.slt(idx, b.const(length, self.width)))

    # -- statements ----------------------------------------------------------

    def exec_block(self, block: ast.Block, guard: Term, frame: _Frame) -> None:
        for stmt in block.stmts:
            self.exec_stmt(stmt, guard, frame)

    def exec_stmt(self, stmt: ast.Stmt, guard: Term, frame: _Frame) -> None:
        b = self.b
        eff = b.and_(guard, b.not_(frame.ret_flag))
        if isinstance(stmt, ast.Block):
            self.exec_block(stmt, eff, frame)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                value = self.eval(stmt.init, eff, frame)
            else:
                value = self._default(stmt.declared_type)
            frame.locals[ast.slot_of(stmt)] = value
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
            self.assume = b.and_(self.assume, b.implies(b.and_(eff, self.ok), cond))
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, eff, frame)
        else:  # pragma: no cover
            raise AssertionError(f"unknown statement {stmt!r}")

    def exec_assign(self, stmt: ast.Assign, eff: Term, frame: _Frame) -> None:
        b = self.b
        target = stmt.target
        if isinstance(target, ast.VarRef):
            value = self.eval(stmt.value, eff, frame)
            # The guarded update needs the previous value; under a constant
            # true guard the ite folds and the read disappears again.
            old = self.read_var(target, frame)
            self.write_var(target, b.ite(eff, value, old), frame)
        else:
            assert isinstance(target, ast.ArrayIndex)
            # The interpreter's order: index, bounds, value, then the array,
            # which a call in the value may have written.
            idx = self.eval(target.index, eff, frame)
            length = len(self.read_var(target, frame))
            self.ok_require(eff, self.bounds_guard(idx, length))
            value = self.eval(stmt.value, eff, frame)
            arr = self.read_var(target, frame)
            updated = tuple(
                b.ite(b.and_(eff, b.eq(idx, b.const(j, self.width))), value, old)
                for j, old in enumerate(arr)
            )
            self.write_var(target, updated, frame)

    def exec_while(self, stmt: ast.While, eff: Term, frame: _Frame) -> None:
        b = self.b
        g = eff
        for _ in range(self.cfg.loop_bound):
            self.b.check_deadline()
            live = b.and_(g, b.not_(frame.ret_flag))
            cond = self.eval(stmt.cond, live, frame)
            g = b.and_(live, cond)
            if g.is_const and g.value == 0:
                return  # statically exhausted within the bound
            self.exec_block(stmt.body, g, frame)
        live = b.and_(g, b.not_(frame.ret_flag))
        cond = self.eval(stmt.cond, live, frame)
        residual = b.and_(live, cond)
        self.uc = b.and_(self.uc, b.not_(b.and_(residual, self.ok)))

    # -- expressions -------------------------------------------------------------

    def eval(self, expr: ast.Expr, guard: Term, frame: _Frame):
        b = self.b
        if isinstance(expr, ast.IntLit):
            return b.const(expr.value, self.width)
        if isinstance(expr, ast.BoolLit):
            return b.bool_const(expr.value)
        if isinstance(expr, ast.VarRef):
            return self.read_var(expr, frame)
        if isinstance(expr, ast.ArrayIndex):
            idx = self.eval(expr.index, guard, frame)
            arr = self.read_var(expr, frame)
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
            return self.fresh_nondet(expr.span.start, self.width)
        if isinstance(expr, ast.NondetBool):
            return self.fresh_nondet(expr.span.start, BOOL)
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def fresh_nondet(self, site: int, width: int) -> Term:
        name = f"{_NONDET_PREFIX}{len(self.nondet_records)}"
        occurrence = self._site_counts.get(site, 0)
        self._site_counts[site] = occurrence + 1
        term = self.b.input(name, width)
        self.inputs.append(term)
        self.nondet_records.append(NondetRecord(name, site, occurrence))
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
        if self.depth >= self.cfg.inline_depth:
            # Call chain exceeds the inlining bound on this path.
            self.uc = b.and_(self.uc, b.not_(b.and_(guard, self.ok)))
            return self._default(fn.return_type)
        self.b.check_deadline()
        self.depth += 1
        callee = _Frame(args, b.false, self._default(fn.return_type))
        self.exec_block(fn.body, guard, callee)
        self.depth -= 1
        return callee.ret_val


def encode_ssa(
    fn: ast.FunctionDef,
    snap: Snapshot,
    cfg: UnrollConfig,
    builder: TermBuilder,
    symbolic_globals: bool = True,
) -> SsaProgram:
    """Encode one type-checked function under the given unrolling bounds."""
    encoder = Encoder(snap, cfg, builder, symbolic_globals)
    return encoder.encode_function(fn)
