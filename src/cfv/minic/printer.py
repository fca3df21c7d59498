"""Pretty printer producing parseable MiniC text.

Printing a parsed unit and reparsing the output yields a structurally equal
AST (spans aside). Parentheses are emitted only where precedence requires
them, which keeps the round trip exact without cluttering the output.
"""

from __future__ import annotations

from cfv.minic import ast

_UNARY_PREC = len(ast.BINARY_PRECEDENCE)


def format_type(ty: ast.Type, name: str) -> str:
    if isinstance(ty, ast.ArrayType):
        return f"int {name}[{ty.length}]"
    return f"{ty} {name}"


def format_expr(expr: ast.Expr, parent_prec: int = -1) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.ArrayIndex):
        return f"{expr.name}[{format_expr(expr.index)}]"
    if isinstance(expr, ast.NondetInt):
        return "nondet_int()"
    if isinstance(expr, ast.NondetBool):
        return "nondet_bool()"
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.Unary):
        inner = format_expr(expr.operand, _UNARY_PREC)
        text = f"{expr.op}{inner}"
        # A unary operand binds tighter than any binary operator, and chains
        # like --x would lex as a decrement, so space them.
        if expr.op == "-" and inner.startswith("-"):
            text = f"- {inner}"
        return text
    if isinstance(expr, ast.Binary):
        prec = ast.BINARY_LEVEL[expr.op]
        left = format_expr(expr.left, prec - 1)
        right = format_expr(expr.right, prec)
        text = f"{left} {expr.op} {right}"
        if prec <= parent_prec:
            return f"({text})"
        return text
    raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover


def _format_stmt(stmt: ast.Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(stmt, ast.Block):
        out.append(pad + "{")
        for s in stmt.stmts:
            _format_stmt(s, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(stmt, ast.VarDecl):
        decl = format_type(stmt.declared_type, stmt.name)
        if stmt.init is not None:
            out.append(f"{pad}{decl} = {format_expr(stmt.init)};")
        else:
            out.append(f"{pad}{decl};")
    elif isinstance(stmt, ast.Assign):
        out.append(f"{pad}{format_expr(stmt.target)} = {format_expr(stmt.value)};")
    elif isinstance(stmt, ast.If):
        out.append(f"{pad}if ({format_expr(stmt.cond)})")
        _format_stmt(stmt.then_body, indent, out)
        if stmt.else_body is not None:
            out.append(pad + "else")
            _format_stmt(stmt.else_body, indent, out)
    elif isinstance(stmt, ast.While):
        out.append(f"{pad}while ({format_expr(stmt.cond)})")
        _format_stmt(stmt.body, indent, out)
    elif isinstance(stmt, ast.Return):
        if stmt.value is None:
            out.append(pad + "return;")
        else:
            out.append(f"{pad}return {format_expr(stmt.value)};")
    elif isinstance(stmt, ast.Assert):
        out.append(f"{pad}assert({format_expr(stmt.cond)});")
    elif isinstance(stmt, ast.Assume):
        out.append(f"{pad}assume({format_expr(stmt.cond)});")
    elif isinstance(stmt, ast.ExprStmt):
        out.append(f"{pad}{format_expr(stmt.expr)};")
    else:  # pragma: no cover
        raise AssertionError(f"unknown statement {stmt!r}")


def format_function(fn: ast.FunctionDef) -> str:
    params = ", ".join(format_type(p.ty, p.name) for p in fn.params)
    out = [f"{fn.return_type} {fn.name}({params})"]
    _format_stmt(fn.body, 0, out)
    return "\n".join(out)


def format_unit(unit: ast.SourceUnit) -> str:
    parts: list[str] = []
    for decl in unit.declarations:
        if isinstance(decl, ast.GlobalDecl):
            text = format_type(decl.ty, decl.name)
            if decl.init is not None:
                text += f" = {format_expr(decl.init)}"
            parts.append(text + ";")
        else:
            parts.append(format_function(decl))
    return "\n\n".join(parts) + "\n"
