"""Recursive descent parser for MiniC.

Produces a SourceUnit of global declarations and function definitions.
`for` loops are desugared to `while` at parse time: with an init clause the
result is a block `{ init; while (cond) { body…; step; } }`, without one it
is the bare `while`. Single-statement bodies of `if`/`else`/`while` are
wrapped in a Block, so brace style does not affect the tree.

A token is its index into the lexer's columns (`lexer.Lexed`): the parser
moves one int along them and compares texts, and it asks for a Span only
when it builds a node or a diagnostic.

A unit can be parsed against a base, the checked unit of an earlier text
of the same file. The file is lexed once, and at each top-level declaration
the parser takes the base's declaration object instead of parsing when it
starts at the same offset, on the same line and column, and has the same
text up to its end; it then resumes at the first token past that end. From
a token boundary identical text lexes to identical tokens, and a
declaration ends at a `;` or `}`, which no longer token can extend, so the
object is what parsing there would build, plus the annotations of the
base's check. A text equal to the base's returns the base unit unlexed.

Binary operators are parsed by precedence climbing over the levels of
`ast.BINARY_PRECEDENCE`: one call parses an operand and then every operator
of at least its minimum level, recursing one level up for each right
operand, so chains of one level come out left-associative.

The parser, the type checker, the encoder, the interpreter and the tree
rewriters recurse, so the parser bounds the nesting of the tree. Every node
on the path from the function body to a leaf is one level: a block, an
`if`, a `while`, an operator, a call, an index or a parenthesis. A path of
more than MAX_NESTING levels is reported as unsupported at the token that
crosses the bound. A `for` with an init clause thus takes the levels of its
desugared block, `while` and body, an `else if` those of its wrapping block
and `if`, and each operator of the flat chain `x + x + x` one level, since
the chain is a tree as deep as it is long. The recursion this takes needs
more stack than Python's default of 1,000 frames; `cfv.cli.main` runs every
command on a stack deep enough for it.
"""

from __future__ import annotations

from bisect import bisect_left

from cfv.errors import Diagnostic, MiniCSyntaxError, UnsupportedConstructError
from cfv.minic import ast
from cfv.minic.ast import Span
from cfv.minic.lexer import Lexed, lex

# The deepest nesting accepted, in levels. With CPython 3.11 `cfv diff` and
# `cfv equiv` need at most about 4,000 stack frames for a tree at the bound,
# since the parser spends four frames a level on parentheses and calls.
# cli.RECURSION_LIMIT leaves the rest to inlining, which stacks one body on
# another: a recursive function 1,000 levels deep still inlines 99 calls.
MAX_NESTING = 1_000

UNSUPPORTED_HINTS = {
    "/": "division is not supported",
    "%": "modulo is not supported",
    "++": "increment is not supported; use `x = x + 1`",
    "--": "decrement is not supported; use `x = x - 1`",
    "->": "pointers are not supported",
    ".": "structs are not supported",
    "?": "the conditional operator is not supported",
    ":": "the conditional operator is not supported",
}


class _Parser:
    def __init__(self, lexed: Lexed, source: str, path: str, base: ast.SourceUnit | None):
        self.texts = lexed.texts
        self.kinds = lexed.kinds
        self.starts = lexed.starts
        self.ends = lexed.ends
        self.span = lexed.span
        self.eof = len(lexed.texts) - 1
        self.source = source
        self.path = path
        self.pos = 0
        self.depth = 0  # levels above the node being parsed
        # The base unit's text and its declarations by start offset.
        self.base_text = "" if base is None else base.text
        self.base_decls = {} if base is None else {d.span.start: d for d in base.declarations}

    # -- token plumbing ----------------------------------------------------
    # A token is its index into the lexer's columns. A text equal to an
    # operator or keyword always has that kind, so texts alone are compared.

    def advance(self) -> int:
        # The last token is eof and `advance` never moves past it.
        tok = self.pos
        if tok != self.eof:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        tok = self.pos
        if self.texts[tok] != text:
            self.error(f"expected {text!r}, found {self.texts[tok]!r}", tok)
        self.pos += 1
        return tok

    def error(self, message: str, tok: int | None = None):
        tok = self.pos if tok is None else tok
        if self.kinds[tok] == "unsupported":
            text = self.texts[tok]
            self.unsupported(UNSUPPORTED_HINTS.get(text, f"{text!r} is outside the subset"), tok)
        raise MiniCSyntaxError([Diagnostic(self.path, self.span(tok), message)])

    def unsupported(self, message: str, tok: int | None = None):
        tok = self.pos if tok is None else tok
        raise UnsupportedConstructError([Diagnostic(self.path, self.span(tok), message)])

    def reject_unsupported(self):
        if self.kinds[self.pos] == "unsupported":
            self.error("", self.pos)

    def descend(self, tok: int, below: int = 0) -> None:
        """Enter a node with `below` levels already built under it."""
        self.depth += 1
        if self.depth + below > MAX_NESTING:
            self.unsupported("nesting is too deep to analyze", tok)

    def span_from(self, start: int) -> Span:
        return self.span(start, self.ends[max(self.pos - 1, 0)])

    # -- declarations ------------------------------------------------------

    def parse_unit(self) -> list[ast.GlobalDecl | ast.FunctionDef]:
        decls: list[ast.GlobalDecl | ast.FunctionDef] = []
        while self.pos != self.eof:
            decl = self.reuse()
            if decl is None:
                self.reject_unsupported()
                decl = self.parse_top_decl()
            decls.append(decl)
        return decls

    def reuse(self) -> ast.GlobalDecl | ast.FunctionDef | None:
        """The base declaration that starts at the current token, on the
        same line and column, with the same text up to its end; the parser
        then moves to the first token past it. None when there is none."""
        start = self.starts[self.pos]
        decl = self.base_decls.get(start)
        if decl is None:
            return None
        end = decl.span.end
        if self.span(self.pos)[:2] != decl.span[:2] or (
            self.source[start:end] != self.base_text[start:end]
        ):
            return None
        self.pos = bisect_left(self.starts, end, self.pos)
        return decl

    def parse_base_type(self) -> ast.Type:
        tok = self.pos
        if self.accept("int"):
            ty: ast.Type = ast.IntType()
        elif self.accept("bool"):
            ty = ast.BoolType()
        elif self.accept("void"):
            ty = ast.VoidType()
        else:
            self.error("expected a type (int, bool or void)", tok)
        if self.at("*"):
            self.unsupported("pointers are not supported")
        return ty

    def parse_top_decl(self) -> ast.GlobalDecl | ast.FunctionDef:
        start = self.pos
        ty = self.parse_base_type()
        name_tok = self.pos
        if self.kinds[name_tok] != "ident":
            self.error("expected a name", name_tok)
        self.advance()
        if self.at("("):
            return self.parse_function(ty, name_tok, start)
        if isinstance(ty, ast.VoidType):
            self.error("variables cannot have void type", name_tok)
        if self.accept("["):
            length_tok = self.expect_number()
            self.expect("]")
            if not isinstance(ty, ast.IntType):
                self.error("only int arrays are supported", name_tok)
            if length_tok[0] < 1:
                self.error("array length must be at least 1", length_tok[1])
            ty = ast.ArrayType(length_tok[0])
        init = None
        if self.accept("="):
            if isinstance(ty, ast.ArrayType):
                self.error("array initializers are not supported", self.pos)
            init = self.parse_const_init()
        self.expect(";")
        return ast.GlobalDecl(self.texts[name_tok], ty, init, self.span_from(start))

    def expect_number(self) -> tuple[int, int]:
        tok = self.pos
        if self.kinds[tok] != "number":
            self.error("expected an integer literal", tok)
        self.advance()
        return int(self.texts[tok], 0), tok

    def parse_const_init(self) -> ast.Expr:
        # Global initializers are literal constants, optionally negated.
        tok = self.pos
        if self.accept("true"):
            return ast.BoolLit(self.span(tok), True)
        if self.accept("false"):
            return ast.BoolLit(self.span(tok), False)
        if self.accept("-"):
            value, num = self.expect_number()
            return ast.Unary(self.span(tok, self.ends[num]), "-", ast.IntLit(self.span(num), value))
        if self.kinds[tok] == "number":
            self.advance()
            return ast.IntLit(self.span(tok), int(self.texts[tok], 0))
        self.error("global initializers must be literal constants", tok)

    def parse_function(
        self, return_type: ast.Type, name_tok: int, start: int
    ) -> ast.FunctionDef:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            if self.at("void") and self.texts[self.pos + 1] == ")":
                self.advance()  # `f(void)` style empty parameter list
            else:
                while True:
                    pstart = self.pos
                    pty = self.parse_base_type()
                    if isinstance(pty, ast.VoidType):
                        self.error("parameters cannot have void type", self.pos)
                    ptok = self.pos
                    if self.kinds[ptok] != "ident":
                        self.error("expected a parameter name", ptok)
                    self.advance()
                    if self.at("["):
                        self.error(
                            "array parameters are not supported; use a global array",
                            self.pos,
                        )
                    params.append(ast.Param(self.texts[ptok], pty, self.span_from(pstart)))
                    if not self.accept(","):
                        break
        self.expect(")")
        body = self.parse_block()
        return ast.FunctionDef(
            self.texts[name_tok],
            params,
            return_type,
            body,
            span=self.span_from(start),
            body_text=self.source[body.span.start : body.span.end],
        )

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect("{")
        self.descend(start)
        stmts: list[ast.Stmt] = []
        while not self.at("}"):
            if self.pos == self.eof:
                self.error("unexpected end of file inside a block")
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.depth -= 1
        return ast.Block(self.span_from(start), stmts)

    def parse_body(self) -> ast.Block:
        if self.at("{"):
            return self.parse_block()
        self.descend(self.pos)
        stmt = self.parse_stmt()
        self.depth -= 1
        return ast.Block(stmt.span, [stmt])

    def parse_stmt(self) -> ast.Stmt:
        self.reject_unsupported()
        start = self.pos
        if self.at("{"):
            return self.parse_block()
        if self.at("int") or self.at("bool"):
            return self.parse_var_decl()
        if self.accept("if"):
            self.descend(start)
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_body()
            else_body = None
            if self.accept("else"):
                else_body = self.parse_body()
            self.depth -= 1
            return ast.If(self.span_from(start), cond, then_body, else_body)
        if self.accept("while"):
            self.descend(start)
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_body()
            self.depth -= 1
            return ast.While(self.span_from(start), cond, body)
        if self.accept("for"):
            return self.parse_for(start)
        if self.accept("return"):
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return ast.Return(self.span_from(start), value)
        if self.accept("assert"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ast.Assert(self.span_from(start), cond)
        if self.accept("assume"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ast.Assume(self.span_from(start), cond)
        stmt = self.parse_assign_or_expr()
        self.expect(";")
        return stmt

    def parse_var_decl(self) -> ast.VarDecl:
        start = self.pos
        ty = self.parse_base_type()
        tok = self.pos
        if self.kinds[tok] != "ident":
            self.error("expected a variable name", tok)
        self.advance()
        if self.accept("["):
            length, ltok = self.expect_number()
            self.expect("]")
            if not isinstance(ty, ast.IntType):
                self.error("only int arrays are supported", ltok)
            if length < 1:
                self.error("array length must be at least 1", ltok)
            ty = ast.ArrayType(length)
        init = None
        if self.accept("="):
            if isinstance(ty, ast.ArrayType):
                self.error("array initializers are not supported", self.pos)
            init = self.parse_expr()
        self.expect(";")
        return ast.VarDecl(self.span_from(start), self.texts[tok], ty, init)

    def parse_for(self, start: int) -> ast.Stmt:
        self.expect("(")
        # An init clause goes into a block with the loop; the step goes at
        # the end of the loop body.
        init: ast.Stmt | None = None
        if self.accept(";"):
            levels = 1
        else:
            levels = 2
            self.descend(start)
            if self.at("int") or self.at("bool"):
                init = self.parse_var_decl()  # consumes the ';'
            else:
                init = self.parse_assign_or_expr()
                self.expect(";")
        self.descend(start)
        if self.at(";"):
            cond: ast.Expr = ast.BoolLit(self.span(self.pos), True)
        else:
            cond = self.parse_expr()
        self.expect(";")
        step: ast.Stmt | None = None
        if not self.at(")"):
            self.descend(start)
            step = self.parse_assign_or_expr()
            self.depth -= 1
        self.expect(")")
        body = self.parse_body()
        self.depth -= levels
        full = self.span_from(start)
        stmts = list(body.stmts)
        if step is not None:
            stmts.append(step)
        loop = ast.While(full, cond, ast.Block(body.span, stmts))
        if init is None:
            return loop
        return ast.Block(full, [init, loop])

    def parse_assign_or_expr(self) -> ast.Stmt:
        start = self.pos
        expr = self.parse_expr()
        if self.at("="):
            if not isinstance(expr, (ast.VarRef, ast.ArrayIndex)):
                self.error("assignment target must be a variable or array element")
            self.advance()
            value = self.parse_expr()
            return ast.Assign(self.span_from(start), expr, value)
        self.reject_unsupported()
        return ast.ExprStmt(self.span_from(start), expr)

    # -- expressions ---------------------------------------------------------
    # Each routine returns the tree with its height: the levels of the nodes
    # below its root on its deepest path.

    def parse_expr(self) -> ast.Expr:
        return self.parse_binary(0)[0]

    def nested_expr(self, tok: int) -> tuple[ast.Expr, int]:
        """A full expression one level down, as under `(`, and its height
        counting that level."""
        self.descend(tok)
        expr, height = self.parse_binary(0)
        self.depth -= 1
        return expr, height + 1

    def parse_binary(self, min_level: int) -> tuple[ast.Expr, int]:
        """An operand followed by every operator of level >= min_level."""
        left, height = self.parse_unary()
        while True:
            tok = self.pos
            if self.kinds[tok] == "unsupported":
                self.error("", tok)
            level = ast.BINARY_LEVEL.get(self.texts[tok])
            if level is None or level < min_level:
                return left, height
            self.pos += 1
            self.descend(tok, height)
            right, right_height = self.parse_binary(level + 1)
            self.depth -= 1
            height = max(height, right_height) + 1
            ls = left.span
            sp = Span(ls.line, ls.col, ls.start, right.span.end)
            left = ast.Binary(sp, self.texts[tok], left, right)

    def parse_unary(self) -> tuple[ast.Expr, int]:
        tok = self.pos
        if self.kinds[tok] == "unsupported":
            self.error("", tok)
        text = self.texts[tok]
        if text in ("-", "!", "~"):
            self.pos += 1
            self.descend(tok)
            operand, height = self.parse_unary()
            self.depth -= 1
            sp = self.span(tok, operand.span.end)
            return ast.Unary(sp, text, operand), height + 1
        if text == "&":
            self.unsupported("the address-of operator is not supported", tok)
        if text == "*":
            self.unsupported("pointer indirection is not supported", tok)
        return self.parse_postfix()

    def parse_postfix(self) -> tuple[ast.Expr, int]:
        tok = self.pos
        kind = self.kinds[tok]
        if kind == "number":
            self.pos += 1
            return ast.IntLit(self.span(tok), int(self.texts[tok], 0)), 0
        if kind == "ident":
            name = self.texts[tok]
            self.pos += 1
            if self.accept("("):
                args: list[ast.Expr] = []
                height = 0
                if not self.at(")"):
                    while True:
                        arg, arg_height = self.nested_expr(tok)
                        args.append(arg)
                        height = max(height, arg_height)
                        if not self.accept(","):
                            break
                self.expect(")")
                return ast.Call(self.span_from(tok), name, args), height
            if self.accept("["):
                index, height = self.nested_expr(tok)
                self.expect("]")
                return ast.ArrayIndex(self.span_from(tok), name, index), height
            return ast.VarRef(self.span(tok), name), 0
        if self.accept("true"):
            return ast.BoolLit(self.span(tok), True), 0
        if self.accept("false"):
            return ast.BoolLit(self.span(tok), False), 0
        if self.accept("nondet_int"):
            self.expect("(")
            self.expect(")")
            return ast.NondetInt(self.span_from(tok)), 0
        if self.accept("nondet_bool"):
            self.expect("(")
            self.expect(")")
            return ast.NondetBool(self.span_from(tok)), 0
        if self.accept("("):
            # A parenthesis builds no node but is a level of the parser's.
            expr = self.nested_expr(tok)
            self.expect(")")
            return expr
        self.error(f"expected an expression, found {self.texts[tok]!r}", tok)


def parse_unit(
    source: str, path: str, base: ast.SourceUnit | None = None
) -> ast.SourceUnit:
    """Parse one translation unit, against base, the unit of an earlier
    text of the file, when one is given.

    Raises MiniCSyntaxError or UnsupportedConstructError with positioned
    diagnostics on failure. The result still needs type checking, except
    for what it shares with a checked base: base itself when path and text
    are base's, else each declaration of base that `_Parser.reuse` finds.
    """
    if base is not None and base.path == path and base.text == source:
        return base
    lexed = lex(source, path)
    decls = _Parser(lexed, source, path, base).parse_unit()
    return ast.SourceUnit(path, decls, lexed.comments, source)
