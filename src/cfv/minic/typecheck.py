"""Type checker for MiniC units.

Infers the type of every expression, checks call signatures against the
definitions visible in the snapshot (functions may be defined in any order
and in other units of the same snapshot), verifies that every path through
a non-void function ends in a return, and computes each function's
syntactic read/write sets over global variables and the functions it calls.
It returns the snapshot's globals and functions by name; inferred types are
not stored anywhere.

It is the one pass that resolves names under C block scoping. Each
parameter and local gets a slot: parameters take 0..n-1 in order, and each
local declaration takes the next slot in source order once its initializer
is checked, so `int x = x + 1;` reads the outer `x`. The slot, or
`ast.GLOBAL`, is written onto every `VarDecl`, `VarRef` and `ArrayIndex`;
the encoder, the interpreter and the alpha key read it from there.

Conditions of `if`/`while` and the arguments of `assert`/`assume` must be
bool; there is no implicit int-to-bool conversion anywhere.

Which declarations are checked: every one of the units except those
that the base, the result of an earlier check, holds as the same object.
A test view's base is its snapshot, a new version's the old one. A
function's check reads of other declarations only the types of the
globals it reads or writes and the signatures of the functions it calls,
so a shared function whose globals and callees are declared alike checks
as it did there. `stale_units` names the units where that fails; the
loader parses those afresh, so no object of the base is written to.
"""

from __future__ import annotations

from cfv.errors import Diagnostic, TypeCheckError
from cfv.minic import ast
from cfv.minic.ast import (
    ArrayIndex,
    ArrayType,
    Assert,
    Assign,
    Assume,
    Binary,
    Block,
    BoolLit,
    BoolType,
    Call,
    Expr,
    ExprStmt,
    FunctionDef,
    GlobalDecl,
    If,
    IntLit,
    IntType,
    NondetBool,
    NondetInt,
    Return,
    SourceUnit,
    Stmt,
    Unary,
    VarDecl,
    VarRef,
    VoidType,
    While,
)


class _Checker:
    def __init__(
        self, globals_: dict[str, GlobalDecl], functions: dict[str, FunctionDef], path: str
    ):
        self.globals = globals_
        self.functions = functions
        self.path = path
        self.diagnostics: list[Diagnostic] = []
        # Each local's bindings, innermost last, as its type and slot; and
        # for each open block the names it declared, unbound when it closes.
        self.bindings: dict[str, list[tuple[ast.Type, int]]] = {}
        self.declared: list[set[str]] = []
        self.next_slot = 0
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.callees: set[str] = set()

    def error(self, span: ast.Span, message: str) -> None:
        self.diagnostics.append(Diagnostic(self.path, span, message))

    # -- scope handling ------------------------------------------------------

    def declare(self, name: str, ty: ast.Type, span: ast.Span) -> int:
        """Bind name in the innermost block to the next slot and return it."""
        slot = self.next_slot
        self.next_slot += 1
        if name in self.declared[-1]:
            self.error(span, f"redefinition of {name!r}")
            self.bindings[name].pop()
        self.declared[-1].add(name)
        self.bindings.setdefault(name, []).append((ty, slot))
        return slot

    def lookup(self, name: str) -> tuple[ast.Type | None, int | None]:
        """Resolve a name to its type and slot, ast.GLOBAL for a global;
        (None, None) when it is undefined."""
        local = self.bindings.get(name)
        if local:
            return local[-1]
        g = self.globals.get(name)
        if g is not None:
            return g.ty, ast.GLOBAL
        return None, None

    # -- functions -----------------------------------------------------------

    def check_function(self, fn: FunctionDef) -> None:
        self.bindings = {}
        self.declared = [set()]
        self.next_slot = 0
        self.reads = set()
        self.writes = set()
        self.callees = set()
        for p in fn.params:
            self.declare(p.name, p.ty, p.span)
        self.check_block(fn.body, fn)
        if not isinstance(fn.return_type, VoidType) and not self._definitely_returns(
            fn.body
        ):
            self.error(fn.span, f"function {fn.name!r}: not all paths return a value")
        fn.reads_globals = frozenset(self.reads)
        fn.writes_globals = frozenset(self.writes)
        fn.callees = frozenset(self.callees)

    def _definitely_returns(self, stmt: Stmt) -> bool:
        if isinstance(stmt, Return):
            return True
        if isinstance(stmt, Block):
            return any(self._definitely_returns(s) for s in stmt.stmts)
        if isinstance(stmt, If):
            return (
                stmt.else_body is not None
                and self._definitely_returns(stmt.then_body)
                and self._definitely_returns(stmt.else_body)
            )
        return False

    def check_block(self, block: Block, fn: FunctionDef) -> None:
        self.declared.append(set())
        for stmt in block.stmts:
            self.check_stmt(stmt, fn)
        for name in self.declared.pop():
            self.bindings[name].pop()

    def check_stmt(self, stmt: Stmt, fn: FunctionDef) -> None:
        if isinstance(stmt, Block):
            self.check_block(stmt, fn)
        elif isinstance(stmt, VarDecl):
            if stmt.init is not None:
                ty = self.infer(stmt.init)
                if ty is not None and ty != stmt.declared_type:
                    self.error(
                        stmt.span,
                        f"initializer of {stmt.name!r} has type {ty}, expected"
                        f" {stmt.declared_type}",
                    )
            stmt.slot = self.declare(stmt.name, stmt.declared_type, stmt.span)
        elif isinstance(stmt, Assign):
            self.check_assign(stmt)
        elif isinstance(stmt, If):
            self.require_bool(stmt.cond, "if condition")
            self.check_block(stmt.then_body, fn)
            if stmt.else_body is not None:
                self.check_block(stmt.else_body, fn)
        elif isinstance(stmt, While):
            self.require_bool(stmt.cond, "loop condition")
            self.check_block(stmt.body, fn)
        elif isinstance(stmt, Return):
            self.check_return(stmt, fn)
        elif isinstance(stmt, (Assert, Assume)):
            kw = "assert" if isinstance(stmt, Assert) else "assume"
            self.require_bool(stmt.cond, f"{kw} condition")
        elif isinstance(stmt, ExprStmt):
            self.infer(stmt.expr, allow_void=True)
        else:  # pragma: no cover - parser produces no other statements
            raise AssertionError(f"unknown statement {stmt!r}")

    def check_assign(self, stmt: Assign) -> None:
        target = stmt.target
        if isinstance(target, VarRef):
            ty, slot = self.lookup(target.name)
            if ty is None:
                self.error(target.span, f"undefined variable {target.name!r}")
                self.infer(stmt.value)
                return
            if isinstance(ty, ArrayType):
                self.error(target.span, "arrays cannot be assigned as a whole")
                return
            target.slot = slot
            if slot == ast.GLOBAL:
                self.writes.add(target.name)
            vty = self.infer(stmt.value)
            if vty is not None and vty != ty:
                self.error(stmt.span, f"cannot assign {vty} to {ty}")
        elif isinstance(target, ArrayIndex):
            elem = self.check_array_index(target, writing=True)
            vty = self.infer(stmt.value)
            if elem is not None and vty is not None and vty != elem:
                self.error(stmt.span, f"cannot assign {vty} to array element {elem}")
        else:  # pragma: no cover - parser enforces assignable targets
            self.error(stmt.span, "invalid assignment target")

    def check_return(self, stmt: Return, fn: FunctionDef) -> None:
        if isinstance(fn.return_type, VoidType):
            if stmt.value is not None:
                self.error(stmt.span, f"void function {fn.name!r} returns a value")
                self.infer(stmt.value)
        else:
            if stmt.value is None:
                self.error(stmt.span, f"function {fn.name!r} must return {fn.return_type}")
            else:
                ty = self.infer(stmt.value)
                if ty is not None and ty != fn.return_type:
                    self.error(
                        stmt.span,
                        f"return type mismatch: {ty}, expected {fn.return_type}",
                    )

    def require_bool(self, expr: Expr, what: str) -> None:
        ty = self.infer(expr)
        if ty is not None and not isinstance(ty, BoolType):
            self.error(expr.span, f"{what} must be bool, found {ty}")

    # -- expressions -----------------------------------------------------------

    def check_array_index(self, expr: ArrayIndex, writing: bool) -> ast.Type | None:
        ty, slot = self.lookup(expr.name)
        if ty is None:
            self.error(expr.span, f"undefined variable {expr.name!r}")
            self.infer(expr.index)
            return None
        if not isinstance(ty, ArrayType):
            self.error(expr.span, f"{expr.name!r} is not an array")
            self.infer(expr.index)
            return None
        expr.slot = slot
        if slot == ast.GLOBAL:
            self.reads.add(expr.name)
            if writing:
                self.writes.add(expr.name)
        ity = self.infer(expr.index)
        if ity is not None and not isinstance(ity, IntType):
            self.error(expr.index.span, "array index must be int")
        return IntType()

    def infer(self, expr: Expr, allow_void: bool = False) -> ast.Type | None:
        if isinstance(expr, (IntLit, NondetInt)):
            return IntType()
        if isinstance(expr, (BoolLit, NondetBool)):
            return BoolType()
        if isinstance(expr, VarRef):
            ty, slot = self.lookup(expr.name)
            if ty is None:
                if expr.name in self.functions:
                    self.error(expr.span, f"{expr.name!r} is a function, not a variable")
                else:
                    self.error(expr.span, f"undefined variable {expr.name!r}")
                return None
            if isinstance(ty, ArrayType):
                self.error(expr.span, f"array {expr.name!r} used without an index")
                return None
            expr.slot = slot
            if slot == ast.GLOBAL:
                self.reads.add(expr.name)
            return ty
        if isinstance(expr, ArrayIndex):
            return self.check_array_index(expr, writing=False)
        if isinstance(expr, Unary):
            ty = self.infer(expr.operand)
            if ty is None:
                return None
            if expr.op in ("-", "~"):
                if not isinstance(ty, IntType):
                    self.error(expr.span, f"operator {expr.op!r} needs an int operand")
                    return None
                return IntType()
            if not isinstance(ty, BoolType):
                self.error(expr.span, "operator '!' needs a bool operand")
                return None
            return BoolType()
        if isinstance(expr, Binary):
            return self._infer_binary(expr)
        if isinstance(expr, Call):
            return self._infer_call(expr, allow_void)
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def _infer_binary(self, expr: Binary) -> ast.Type | None:
        lty = self.infer(expr.left)
        rty = self.infer(expr.right)
        if lty is None or rty is None:
            return None
        op = expr.op
        if op in ast.BOOL_CONNECTIVES:
            if not isinstance(lty, BoolType) or not isinstance(rty, BoolType):
                self.error(expr.span, f"operator {op!r} needs bool operands")
                return None
            return BoolType()
        if op in ("==", "!="):
            if lty != rty or isinstance(lty, ArrayType):
                self.error(expr.span, f"cannot compare {lty} with {rty}")
                return None
            return BoolType()
        if op in ("<", "<=", ">", ">="):
            if not isinstance(lty, IntType) or not isinstance(rty, IntType):
                self.error(expr.span, f"operator {op!r} needs int operands")
                return None
            return BoolType()
        # Arithmetic, bitwise and shift operators.
        if not isinstance(lty, IntType) or not isinstance(rty, IntType):
            self.error(expr.span, f"operator {op!r} needs int operands")
            return None
        return IntType()

    def _infer_call(self, expr: Call, allow_void: bool) -> ast.Type | None:
        fn = self.functions.get(expr.name)
        if fn is None:
            self.error(expr.span, f"call to undefined function {expr.name!r}")
            for a in expr.args:
                self.infer(a)
            return None
        self.callees.add(expr.name)
        if len(expr.args) != len(fn.params):
            self.error(
                expr.span,
                f"{expr.name!r} takes {len(fn.params)} argument(s),"
                f" {len(expr.args)} given",
            )
        for arg, param in zip(expr.args, fn.params):
            aty = self.infer(arg)
            if aty is not None and aty != param.ty:
                self.error(
                    arg.span,
                    f"argument {param.name!r} of {expr.name!r} expects {param.ty},"
                    f" found {aty}",
                )
        for arg in expr.args[len(fn.params) :]:
            self.infer(arg)
        if isinstance(fn.return_type, VoidType) and not allow_void:
            self.error(expr.span, f"void function {expr.name!r} used as a value")
            return None
        return fn.return_type


def declarations(
    units: list[SourceUnit],
) -> tuple[dict[str, GlobalDecl], dict[str, FunctionDef], list[Diagnostic]]:
    """The first declaration of each name across units, globals and
    functions apart, and a diagnostic for each later one."""
    diagnostics: list[Diagnostic] = []
    globals_: dict[str, GlobalDecl] = {}
    functions: dict[str, FunctionDef] = {}
    owner: dict[str, str] = {}
    for unit in units:
        for decl in unit.declarations:
            name = decl.name
            if name in owner:
                message = f"{name!r} already defined in {owner[name]}"
                diagnostics.append(Diagnostic(unit.path, decl.span, message))
                continue
            owner[name] = unit.path
            if isinstance(decl, GlobalDecl):
                globals_[name] = decl
            else:
                functions[name] = decl
    return globals_, functions, diagnostics


def stale_units(
    units: list[SourceUnit], base: tuple[dict[str, GlobalDecl], dict[str, FunctionDef]]
) -> set[str]:
    """Paths of the units holding a function that base, a type_check
    result, holds as the same object and that would not check here as it
    did there: a global it reads or writes is not declared here with the
    same type, or a function it calls not with the same signature."""
    base_globals, base_functions = base
    globals_, functions, _ = declarations(units)

    def alike(fn: FunctionDef) -> bool:
        return all(
            name in globals_ and globals_[name].ty == base_globals[name].ty
            for name in fn.reads_globals | fn.writes_globals
        ) and all(
            name in functions and ast.same_signature(functions[name], base_functions[name])
            for name in fn.callees
        )

    return {
        unit.path
        for unit in units
        for fn in unit.functions
        if base_functions.get(fn.name) is fn and not alike(fn)
    }


def type_check(
    units: list[SourceUnit],
    base: tuple[dict[str, GlobalDecl], dict[str, FunctionDef]] | None = None,
) -> tuple[dict[str, GlobalDecl], dict[str, FunctionDef]]:
    """Type-check a set of units that together form one program.

    Returns its globals and its functions by name on success; raises
    TypeCheckError carrying every diagnostic found otherwise. The `slot` of
    every declaration and variable reference, and each function's
    `reads_globals`, `writes_globals` and `callees`, are filled in as a side
    effect.

    The names, and with them every duplicate-name diagnostic, span all of
    `units`. A declaration that base, what an earlier type_check returned,
    holds as the same object is not checked again; no unit that
    `stale_units` names may hold one. A test view passes its snapshot's
    result: test files declare no globals, so the added functions cannot
    give a snapshot body a new error or type.
    """
    globals_, functions, diagnostics = declarations(units)
    base_globals, base_functions = base or ({}, {})
    for unit in units:
        for g in unit.globals:
            if g.init is None or base_globals.get(g.name) is g:
                continue
            is_bool_init = isinstance(g.init, BoolLit)
            if isinstance(g.ty, BoolType) != is_bool_init:
                message = f"initializer type does not match global {g.name!r} ({g.ty})"
                diagnostics.append(Diagnostic(unit.path, g.span, message))
    for unit in units:
        checker = _Checker(globals_, functions, unit.path)
        for fn in unit.functions:
            if base_functions.get(fn.name) is not fn:
                checker.check_function(fn)
        diagnostics.extend(checker.diagnostics)
    if diagnostics:
        raise TypeCheckError(diagnostics)
    return globals_, functions
