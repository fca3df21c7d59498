"""Canonical alpha renaming of function definitions.

Parameters become p0, p1, ... in signature order; locals become v0, v1, ...
in declaration order; recursive calls and the function's own name are
replaced by a fixed placeholder. Globals and calls to other functions keep
their names. The result is what the fast structural equivalence stage
compares, so two functions that differ only in local naming, comments or
layout normalize to equal ASTs. The transformation is idempotent.

The renamed tree keeps the spans of the original; AST equality ignores
spans, so they never affect the comparison.
"""

from __future__ import annotations

from dataclasses import replace

from cfv.minic import ast

SELF_PLACEHOLDER = "$self"


class _Renamer:
    def __init__(self, fn: ast.FunctionDef):
        self.fn_name = fn.name
        self.counter = 0
        self.scopes: list[dict[str, str]] = [
            {p.name: f"p{i}" for i, p in enumerate(fn.params)}
        ]

    def resolve(self, name: str) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return name  # a global

    def expr(self, e: ast.Expr) -> ast.Expr | None:
        if isinstance(e, ast.VarRef):
            return ast.VarRef(e.span, self.resolve(e.name), e.ty)
        if isinstance(e, ast.ArrayIndex):
            index = ast.map_expr(e.index, self.expr)
            return ast.ArrayIndex(e.span, self.resolve(e.name), index, e.ty)
        if isinstance(e, ast.Call) and e.name == self.fn_name:
            args = [ast.map_expr(a, self.expr) for a in e.args]
            return ast.Call(e.span, SELF_PLACEHOLDER, args, e.ty)
        return None

    def stmt(self, s: ast.Stmt) -> ast.Stmt | None:
        if isinstance(s, ast.Block):
            self.scopes.append({})
            stmts = [ast.map_stmt(x, self.expr, self.stmt) for x in s.stmts]
            self.scopes.pop()
            return ast.Block(s.span, stmts)
        if isinstance(s, ast.VarDecl):
            init = None if s.init is None else ast.map_expr(s.init, self.expr)
            new = f"v{self.counter}"
            self.counter += 1
            self.scopes[-1][s.name] = new
            return ast.VarDecl(s.span, new, s.declared_type, init)
        return None


def normalize_alpha(fn: ast.FunctionDef) -> ast.FunctionDef:
    """Return a canonically renamed copy of fn. Deterministic and idempotent."""
    renamer = _Renamer(fn)
    return replace(
        fn,
        name=SELF_PLACEHOLDER,
        params=[replace(p, name=f"p{i}") for i, p in enumerate(fn.params)],
        body=ast.map_stmt(fn.body, renamer.expr, renamer.stmt),
    )
