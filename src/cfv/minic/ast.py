"""Typed AST for the MiniC subset.

Every node carries a source span. Equality between nodes is structural and
span-insensitive (spans and slots are excluded from comparison), so two
parses of the same text, or of texts differing only in layout and comments,
compare equal. The round-trip tests use it; the structural equivalence
stage compares the flat keys of `normalize.alpha_key` instead.

Names are resolved once, by the type checker: it writes a `slot` onto every
`VarDecl`, `VarRef` and `ArrayIndex`. Parameters hold slots 0..n-1 and each
local declaration the next slot in source order; a reference to a global
holds `GLOBAL`. A parsed tree has no slots yet, and `slot_of` raises on it,
so no pass reads an unchecked name as a global.

Value semantics: all integers are two's complement at one width per
snapshot, which `Snapshot.width` holds and no node does; arrays are
fixed-length with int elements; booleans are a distinct type. There is no
division, no pointer or address operator, and no preprocessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple


class Span(NamedTuple):
    """Half-open byte range with the 1-based line/column of its start.

    A tuple: immutable and hashable, and compared and ordered as the tuple
    (line, col, start, end).
    """

    line: int
    col: int
    start: int
    end: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


DUMMY_SPAN = Span(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidType:
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class ArrayType:
    length: int

    def __str__(self) -> str:
        return f"int[{self.length}]"


Type = IntType | BoolType | VoidType | ArrayType


# ---------------------------------------------------------------------------
# Expressions
#
# `slot` is filled in by the type checker and never participates in
# equality.


@dataclass
class Expr:
    span: Span = field(compare=False, repr=False)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class VarRef(Expr):
    name: str
    slot: int | None = field(default=None, compare=False, repr=False)


@dataclass
class ArrayIndex(Expr):
    name: str
    index: Expr
    slot: int | None = field(default=None, compare=False, repr=False)


@dataclass
class Unary(Expr):
    op: str  # "-", "!", "~"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass
class NondetInt(Expr):
    pass


@dataclass
class NondetBool(Expr):
    pass


# Binary operators grouped by precedence, weakest first. `&&` and `||`
# short-circuit; there is deliberately no `/` or `%`.
BINARY_PRECEDENCE: tuple[tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*",),
)
# Index of each binary operator's group in BINARY_PRECEDENCE.
BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_PRECEDENCE) for op in ops}

BOOL_CONNECTIVES = ("&&", "||")


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    span: Span = field(compare=False, repr=False)


@dataclass
class Block(Stmt):
    stmts: list[Stmt]


@dataclass
class VarDecl(Stmt):
    name: str
    declared_type: Type
    init: Expr | None
    slot: int | None = field(default=None, compare=False, repr=False)


@dataclass
class Assign(Stmt):
    target: Expr  # VarRef or ArrayIndex
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Block | None


@dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclass
class Return(Stmt):
    value: Expr | None


@dataclass
class Assert(Stmt):
    cond: Expr


@dataclass
class Assume(Stmt):
    cond: Expr


@dataclass
class ExprStmt(Stmt):
    expr: Expr


# ---------------------------------------------------------------------------
# Top-level declarations


@dataclass
class Param:
    name: str
    ty: Type
    span: Span = field(default=DUMMY_SPAN, compare=False, repr=False)


@dataclass
class FunctionDef:
    name: str
    params: list[Param]
    return_type: Type
    body: Block
    span: Span = field(default=DUMMY_SPAN, compare=False, repr=False)
    # The source text of body.span, filled in by parse_unit, for byte-level
    # change detection.
    body_text: str = field(default="", compare=False, repr=False)
    # Sound syntactic over-approximations, filled in by the type checker.
    reads_globals: frozenset[str] = field(default=frozenset(), compare=False)
    writes_globals: frozenset[str] = field(default=frozenset(), compare=False)
    # Names of the defined functions the body calls, also from the checker.
    callees: frozenset[str] = field(default=frozenset(), compare=False)


@dataclass
class GlobalDecl:
    name: str
    ty: Type
    init: Expr | None
    span: Span = field(default=DUMMY_SPAN, compare=False, repr=False)


@dataclass
class Comment:
    text: str
    span: Span
    end_line: int


@dataclass
class SourceUnit:
    path: str
    declarations: list[GlobalDecl | FunctionDef]
    comments: list[Comment] = field(default_factory=list, compare=False)
    # The text the unit was parsed from, which a later parse of the same
    # file compares its own text with to reuse declarations.
    text: str = field(default="", compare=False, repr=False)

    @property
    def functions(self) -> list[FunctionDef]:
        return [d for d in self.declarations if isinstance(d, FunctionDef)]

    @property
    def globals(self) -> list[GlobalDecl]:
        return [d for d in self.declarations if isinstance(d, GlobalDecl)]


def same_signature(a: FunctionDef, b: FunctionDef) -> bool:
    """Same positional parameter types and the same return type."""
    same_params = [p.ty for p in a.params] == [p.ty for p in b.params]
    return same_params and a.return_type == b.return_type


# The slot of a reference to a global.
GLOBAL = -1


def slot_of(node: VarRef | ArrayIndex | VarDecl) -> int:
    """The slot the type checker gave node: a local's, or GLOBAL."""
    if node.slot is None:
        raise ValueError(f"{node.name!r} at {node.span} is unresolved; type-check it first")
    return node.slot


def literal_value(e: Expr | None) -> int | bool | None:
    """The value of an int or bool literal or a negated int literal, else None."""
    if isinstance(e, (IntLit, BoolLit)):
        return e.value
    if isinstance(e, Unary) and e.op == "-" and isinstance(e.operand, IntLit):
        return -e.operand.value
    return None


_LEAVES = (IntLit, BoolLit, VarRef, NondetInt, NondetBool)
ExprHook = Callable[[Expr], Expr | None]
StmtHook = Callable[[Stmt], Stmt | None]


def map_expr(e: Expr, hook: ExprHook) -> Expr:
    """Rebuild an expression through hook, which sees each node before its
    children. The hook returns a replacement node, used as it is, or None,
    which means "rebuild this node around its mapped children". Rebuilt
    nodes keep their span and slot; leaves are kept as they are.
    """
    new = hook(e)
    if new is not None:
        return new
    if isinstance(e, Binary):
        return Binary(e.span, e.op, map_expr(e.left, hook), map_expr(e.right, hook))
    if isinstance(e, _LEAVES):
        return e
    if isinstance(e, Unary):
        return Unary(e.span, e.op, map_expr(e.operand, hook))
    if isinstance(e, ArrayIndex):
        return ArrayIndex(e.span, e.name, map_expr(e.index, hook), e.slot)
    if isinstance(e, Call):
        return Call(e.span, e.name, [map_expr(a, hook) for a in e.args])
    raise AssertionError(f"unknown expression {e!r}")  # pragma: no cover


def map_stmt(s: Stmt, expr_hook: ExprHook, stmt_hook: StmtHook = lambda s: None) -> Stmt:
    """Rebuild a statement; every attached expression goes through
    map_expr(e, expr_hook). stmt_hook has the same contract as the
    expression hook: a replacement is used as it is, None means "rebuild
    this statement around its mapped children", and rebuilt statements keep
    their span and slot. Children are mapped in source order.
    """
    new = stmt_hook(s)
    if new is not None:
        return new
    if isinstance(s, Block):
        return Block(s.span, [map_stmt(x, expr_hook, stmt_hook) for x in s.stmts])
    if isinstance(s, Assign):
        return Assign(s.span, map_expr(s.target, expr_hook), map_expr(s.value, expr_hook))
    if isinstance(s, VarDecl):
        init = None if s.init is None else map_expr(s.init, expr_hook)
        return VarDecl(s.span, s.name, s.declared_type, init, s.slot)
    if isinstance(s, If):
        return If(
            s.span,
            map_expr(s.cond, expr_hook),
            map_stmt(s.then_body, expr_hook, stmt_hook),
            None if s.else_body is None else map_stmt(s.else_body, expr_hook, stmt_hook),
        )
    if isinstance(s, While):
        return While(s.span, map_expr(s.cond, expr_hook), map_stmt(s.body, expr_hook, stmt_hook))
    if isinstance(s, Return):
        return Return(s.span, None if s.value is None else map_expr(s.value, expr_hook))
    if isinstance(s, (Assert, Assume)):
        return type(s)(s.span, map_expr(s.cond, expr_hook))
    if isinstance(s, ExprStmt):
        return ExprStmt(s.span, map_expr(s.expr, expr_hook))
    raise AssertionError(f"unknown statement {s!r}")  # pragma: no cover


def preorder(node: Stmt | Expr):
    """Yield node and every statement and expression below it: each
    statement, then the expressions attached to it in preorder, then its
    child statements. The walk keeps its own stack, so no depth of nesting
    exhausts Python's."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node is None:  # an absent else branch, initializer or value
            continue
        yield node
        cls = type(node)
        if cls is Binary:
            stack += (node.right, node.left)
        elif cls is Block:
            stack += reversed(node.stmts)
        elif cls is ArrayIndex:
            stack.append(node.index)
        elif cls is Unary:
            stack.append(node.operand)
        elif cls is Call:
            stack += reversed(node.args)
        elif cls is VarDecl:
            stack.append(node.init)
        elif cls is Assign:
            stack += (node.value, node.target)
        elif cls is If:
            stack += (node.else_body, node.then_body, node.cond)
        elif cls is While:
            stack += (node.body, node.cond)
        elif cls is Return:
            stack.append(node.value)
        elif cls is Assert or cls is Assume:
            stack.append(node.cond)
        elif cls is ExprStmt:
            stack.append(node.expr)
