import random
import sys

import pytest
from hypothesis import given, strategies as st

from cfv.errors import InputError, MiniCSyntaxError, TypeCheckError, UnsupportedConstructError
from cfv.minic import alpha_key, cyclomatic_complexity, format_unit, parse_unit, type_check
from cfv.minic import ast
from cfv.minic.ast import DUMMY_SPAN as S, Span
from cfv.minic.lexer import UNSUPPORTED_KEYWORDS, lex
from cfv.snapshot import snapshot_from_sources

from generators import FunctionGen, mutate_function, normalize_alpha
from oracles import CORPUS, reference_tokens
from test_harness import write_scale_corpus


def parse_ok(src: str):
    unit = parse_unit(src, "t.c")
    type_check([unit])
    return unit


def fn(src: str, name: str = "f"):
    unit = parse_ok(src)
    return next(f for f in unit.functions if f.name == name)


class TestParser:
    def test_identity_function(self):
        unit = parse_unit("int f(int x){return x;}", "t.c")
        assert len(unit.functions) == 1
        f = unit.functions[0]
        assert f.name == "f"
        assert len(f.params) == 1

    def test_comments_are_stripped_from_the_tree(self):
        plain = parse_unit("int f(int x){return x;}", "t.c")
        commented = parse_unit("int f(int x){/*c*/return x;}", "t.c")
        assert plain.declarations == commented.declarations
        assert len(commented.comments) == 1

    def test_division_is_unsupported(self):
        with pytest.raises(UnsupportedConstructError) as exc:
            parse_unit("int f(int x){return x / 2;}", "t.c")
        diag = exc.value.diagnostics[0]
        assert "division" in diag.message
        assert diag.span.col == 23  # the `/` token itself

    @pytest.mark.parametrize(
        "src",
        [
            "int f(int x){return x % 2;}",
            "int f(int x){x++; return x;}",
            "int f(int *p){return 0;}",
            "int f(int x){int y = &x; return y;}",
            "#define N 4\nint f(int x){return x;}",
            "int f(int x){return x ? 1 : 0;}",
        ],
    )
    def test_out_of_subset_constructs(self, src):
        with pytest.raises(UnsupportedConstructError):
            parse_unit(src, "t.c")

    def test_syntax_error_has_position(self):
        with pytest.raises(MiniCSyntaxError) as exc:
            parse_unit("int f(int x){return ;;}", "t.c")
        assert exc.value.diagnostics[0].span.line == 1

    def test_for_desugars_to_block_decl_while(self):
        looped = fn("int f(int n){int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s;}")
        handwritten = fn(
            "int f(int n){int s = 0; { int i = 0; while (i < n) { s = s + i; i = i + 1; } } return s;}"
        )
        assert alpha_key(looped) == alpha_key(handwritten)

    def test_for_without_init_is_a_bare_while(self):
        a = fn("int f(int n){for (; n > 0;) { n = n - 1; } return n;}")
        b = fn("int f(int n){while (n > 0) { n = n - 1; } return n;}")
        assert alpha_key(a) == alpha_key(b)

    def test_braceless_bodies_normalize_like_braced(self):
        a = fn("int f(int x){if (x > 0) return 1; return 0;}")
        b = fn("int f(int x){if (x > 0) { return 1; } return 0;}")
        assert alpha_key(a) == alpha_key(b)

    def test_spans_nest_within_parents(self):
        unit = parse_ok("int f(int x){ if (x > 0) { x = x - 1; } return x; }")
        f = unit.functions[0]

        def check(stmt, lo, hi):
            assert lo <= stmt.span.start <= stmt.span.end <= hi
            for child in ast.preorder(stmt):
                assert stmt.span.start <= child.span.start
                assert child.span.end <= stmt.span.end

        check(f.body, f.span.start, f.span.end)

    def test_hex_literals(self):
        f = fn("int f(){return 0x10;}")
        ret = f.body.stmts[0]
        assert isinstance(ret.value, ast.IntLit) and ret.value.value == 16


def lex_rows(source: str, path: str) -> tuple[list[tuple], list]:
    """lex's columns as rows (kind, text, line, col, start, end), and the comments."""
    lexed = lex(source, path)
    rows = [(kind, text, *lexed.span(i)) for i, (kind, text) in enumerate(zip(lexed.kinds, lexed.texts))]
    return rows, lexed.comments


class TestLexer:
    @pytest.mark.parametrize(
        "src, message, line, col",
        [
            ("#define N 4\n", "preprocessor directives are not supported", 1, 1),
            ("int x;\n   #include <a.h>\n", "preprocessor directives are not supported", 2, 4),
            ("int x;\n\t #if X\n", "preprocessor directives are not supported", 2, 3),
            ("int x; # y\n", "unexpected character '#'", 1, 8),
            ("/* a\n */ #x\n", "unexpected character '#'", 2, 5),
            ("int f(){\n  /* open", "unterminated block comment", 2, 3),
            ("int x = 0x;", "malformed hex literal", 1, 9),
            ("int x = 0xg;", "malformed hex literal", 1, 9),
            ("int f(){\n\treturn @;}", "unexpected character '@'", 2, 9),
        ],
    )
    def test_diagnostics(self, src, message, line, col):
        with pytest.raises(UnsupportedConstructError) as exc:
            lex_rows(src, "t.c")
        (diag,) = exc.value.diagnostics
        assert (diag.path, diag.message, diag.span.line, diag.span.col) == ("t.c", message, line, col)

    def test_spans_after_block_comment_tab_and_crlf(self):
        tokens, comments = lex_rows("/* a\n b\n */ int\tx = 1;\r\nint y;", "t.c")
        assert [(kind, text, Span(*pos)) for kind, text, *pos in tokens] == [
            ("keyword", "int", Span(3, 5, 12, 15)),
            ("ident", "x", Span(3, 9, 16, 17)),
            ("op", "=", Span(3, 11, 18, 19)),
            ("number", "1", Span(3, 13, 20, 21)),
            ("op", ";", Span(3, 14, 21, 22)),
            ("keyword", "int", Span(4, 1, 24, 27)),
            ("ident", "y", Span(4, 5, 28, 29)),
            ("op", ";", Span(4, 6, 29, 30)),
            ("eof", "", Span(4, 7, 30, 30)),
        ]
        (comment,) = comments
        assert (comment.text, comment.span, comment.end_line) == ("a\n b", Span(1, 1, 0, 11), 3)

    def test_line_comment(self):
        tokens, comments = lex_rows("int x; // note \nint y;", "t.c")
        (comment,) = comments
        assert (comment.text, comment.span, comment.end_line) == ("note", Span(1, 8, 7, 15), 1)
        assert Span(*tokens[3][2:]) == Span(2, 1, 16, 19)

    def test_node_spans_after_crlf_tab_and_block_comment(self):
        src = "int g;\r\nint f(int a)\r\n{\r\n\treturn a /* x\r\n y */ + 1;\r\n}\r\n"
        unit = parse_unit(src, "t.c")
        f = unit.functions[0]
        ret = f.body.stmts[0]
        assert f.span == Span(2, 1, 8, 54)
        assert f.body.span == Span(3, 1, 22, 54)
        assert ret.span == Span(4, 2, 26, 51)
        assert ret.value.span == Span(4, 9, 33, 50)
        assert ret.value.right.span == Span(5, 9, 49, 50)
        (comment,) = unit.comments
        assert (comment.text, comment.span, comment.end_line) == ("x\r\n y", Span(4, 11, 35, 46), 5)

    def test_longest_match(self):
        tokens, _ = lex_rows("a<<=b->c+=d--!=e >>= f", "t.c")
        assert [(kind, text, col) for kind, text, _, col, _, _ in tokens] == [
            ("ident", "a", 1),
            ("unsupported", "<<=", 2),
            ("ident", "b", 5),
            ("unsupported", "->", 6),
            ("ident", "c", 8),
            ("unsupported", "+=", 9),
            ("ident", "d", 11),
            ("unsupported", "--", 12),
            ("op", "!=", 14),
            ("ident", "e", 16),
            ("unsupported", ">>=", 18),
            ("ident", "f", 22),
            ("eof", "", 23),
        ]

    # Exact tokens and comments (text, (line, col, start, end), end_line) on
    # inputs where skipped whitespace moves the line and column.
    @pytest.mark.parametrize(
        "src, tokens, comments",
        [
            (
                "int\tx;\r\n\tint y;\r\n  \t \r\n",
                [
                    ("keyword", "int", 1, 1, 0, 3),
                    ("ident", "x", 1, 5, 4, 5),
                    ("op", ";", 1, 6, 5, 6),
                    ("keyword", "int", 2, 2, 9, 12),
                    ("ident", "y", 2, 6, 13, 14),
                    ("op", ";", 2, 7, 14, 15),
                    ("eof", "", 4, 1, 23, 23),
                ],
                [],
            ),
            ("", [("eof", "", 1, 1, 0, 0)], []),
            (" \t\r\n\n  ", [("eof", "", 3, 3, 7, 7)], []),
            ("\r\n", [("eof", "", 2, 1, 2, 2)], []),
            (
                "a /* b\n c\n */ d /* e */ f\n g",
                [
                    ("ident", "a", 1, 1, 0, 1),
                    ("ident", "d", 3, 5, 14, 15),
                    ("ident", "f", 3, 15, 24, 25),
                    ("ident", "g", 4, 2, 27, 28),
                    ("eof", "", 4, 3, 28, 28),
                ],
                [("b\n c", (1, 3, 2, 13), 3), ("e", (3, 7, 16, 23), 3)],
            ),
            (
                "a // one\r\n\t// two\r\nb",
                [
                    ("ident", "a", 1, 1, 0, 1),
                    ("ident", "b", 3, 1, 19, 20),
                    ("eof", "", 3, 2, 20, 20),
                ],
                [("one", (1, 3, 2, 9), 1), ("two", (2, 2, 11, 18), 2)],
            ),
        ],
    )
    def test_exact_tokens_and_comments(self, src, tokens, comments):
        got_tokens, got_comments = lex_rows(src, "t.c")
        assert got_tokens == tokens
        assert [
            (c.text, (c.span.line, c.span.col, c.span.start, c.span.end), c.end_line)
            for c in got_comments
        ] == comments

    @pytest.mark.parametrize(
        "src, message, span",
        [
            ("int x;\r\n \t#x", "preprocessor directives are not supported", (2, 3, 10, 11)),
            ("int x; #", "unexpected character '#'", (1, 8, 7, 8)),
            ("\n\n  \n\t$", "unexpected character '$'", (4, 2, 6, 7)),
            ("int x;\n\n   /* open\n", "unterminated block comment", (3, 4, 11, 12)),
            ("\n010", "octal literals are not supported", (2, 1, 1, 2)),
            ("x\n  0x;", "malformed hex literal", (2, 3, 4, 5)),
        ],
    )
    def test_exact_diagnostic_spans(self, src, message, span):
        with pytest.raises(UnsupportedConstructError) as exc:
            lex_rows(src, "t.c")
        (diag,) = exc.value.diagnostics
        s = diag.span
        assert (diag.path, diag.message, (s.line, s.col, s.start, s.end)) == ("t.c", message, span)

    def test_numbers_and_words(self):
        tokens, _ = lex_rows("0x1fG 123abc _a1 while", "t.c")
        assert [(kind, text) for kind, text, *_ in tokens] == [
            ("number", "0x1f"),
            ("ident", "G"),
            ("number", "123"),
            ("ident", "abc"),
            ("ident", "_a1"),
            ("keyword", "while"),
            ("eof", ""),
        ]

    def test_form_feed_and_vertical_tab_are_whitespace(self):
        tokens, _ = lex_rows("int\fx;\v\n\vy\f", "t.c")
        assert tokens == [
            ("keyword", "int", 1, 1, 0, 3),
            ("ident", "x", 1, 5, 4, 5),
            ("op", ";", 1, 6, 5, 6),
            ("ident", "y", 2, 2, 9, 10),
            ("eof", "", 2, 4, 11, 11),
        ]
        body = parse_unit("int f() {\f return 1; }", "t.c").functions[0].body
        assert body.stmts[0].span == Span(1, 12, 11, 20)

    @pytest.mark.parametrize(
        "src, span",
        [("\f#define X", (1, 2, 1, 2)), ("int x;\n\v\f #if X", (2, 4, 10, 11))],
    )
    def test_directive_after_form_feed_or_vertical_tab(self, src, span):
        with pytest.raises(UnsupportedConstructError) as exc:
            lex_rows(src, "t.c")
        (diag,) = exc.value.diagnostics
        s = diag.span
        assert (diag.message, (s.line, s.col, s.start, s.end)) == (
            "preprocessor directives are not supported",
            span,
        )


def lexer_result(lexer, source: str):
    """Tokens and comments, or the diagnostics when the lexer rejects the text."""
    try:
        tokens, comments = lexer(source, "t.c")
    except UnsupportedConstructError as err:
        return err.diagnostics
    return tokens, [(c.text, tuple(c.span), c.end_line) for c in comments]


# Pieces of the random lexer inputs: what starts words, numbers, comments and
# faults, the whitespace and line breaks, and characters outside the subset.
LEXER_PIECES = [
    "a", "Z", "_", "x", "0", "7", "9", "int", "do", " ", "/", "*", "//", "/*", "*/",
    "0x", "0X", "00", "#", "\r", "\n", "\t", "\f", "\v", "\u00e9", "@", "$",
]


class TestReferenceLexer:
    """lex agrees with the one-token-at-a-time reference lexer in
    tests/oracles.py on tokens, comments and the first diagnostic."""

    def test_corpus(self):
        paths = sorted(CORPUS.rglob("*.c"))
        assert paths
        for path in paths:
            source = path.read_text()
            assert lexer_result(lex_rows, source) == lexer_result(reference_tokens, source), path

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scale_corpus(self, tmp_path, seed):
        paths = sorted(write_scale_corpus(tmp_path, seed).rglob("*.c"))
        assert len(paths) == 120
        for path in paths:
            source = path.read_text()
            assert lexer_result(lex_rows, source) == lexer_result(reference_tokens, source), path

    def test_random_strings(self):
        rng = random.Random(1904)
        for _ in range(5000):
            source = "".join(rng.choices(LEXER_PIECES, k=rng.randrange(25)))
            assert lexer_result(lex_rows, source) == lexer_result(reference_tokens, source), source


class TestUnsupportedKeywords:
    """C keywords that MiniC lacks are reported at the keyword."""

    @pytest.mark.parametrize(
        "src, keyword, line, col",
        [
            ("int f() { int i = 0; while (true) { i = i + 1; break; } return i; }", "break", 1, 48),
            ("int f() { do { } while (true); return 0; }", "do", 1, 11),
            ("int f(int x) {\n  switch (x) { default: return 0; }\n}", "switch", 2, 3),
            ("int f() { goto out; return 0; }", "goto", 1, 11),
            ("unsigned int g;", "unsigned", 1, 1),
            ("int f(unsigned x) { return x; }", "unsigned", 1, 7),
            ("static int f() { return 0; }", "static", 1, 1),
            ("struct s { int a; };", "struct", 1, 1),
            ("int f(int x) { return sizeof(x); }", "sizeof", 1, 23),
            ("int f() { for (;;) { continue; } return 0; }", "continue", 1, 22),
            ("int const g = 1;", "const", 1, 5),
        ],
    )
    def test_form(self, src, keyword, line, col):
        with pytest.raises(InputError) as exc:
            snapshot_from_sources({"t.c": src}, "t")
        (diag,) = exc.value.diagnostics
        assert (diag.message, diag.span.line, diag.span.col) == (
            f"{keyword!r} is outside the subset",
            line,
            col,
        )

    @pytest.mark.parametrize("keyword", sorted(UNSUPPORTED_KEYWORDS))
    def test_every_keyword_as_a_name(self, keyword):
        with pytest.raises(InputError) as exc:
            snapshot_from_sources({"t.c": f"int f(int a) {{\n  int {keyword} = a;\n}}"}, "t")
        (diag,) = exc.value.diagnostics
        assert (diag.message, diag.span.line, diag.span.col) == (
            f"{keyword!r} is outside the subset",
            2,
            7,
        )


def shape(e) -> str:
    """Fully parenthesized text of an expression tree."""
    if isinstance(e, ast.Binary):
        return f"({shape(e.left)} {e.op} {shape(e.right)})"
    if isinstance(e, ast.Unary):
        return f"{e.op}{shape(e.operand)}"
    return e.name


def parse_expr_shape(text: str) -> str:
    unit = parse_unit(f"int f(){{return {text};}}", "t.c")
    return shape(unit.functions[0].body.stmts[0].value)


BOUNDARIES = [
    (weak[0], strong[0])
    for weak, strong in zip(ast.BINARY_PRECEDENCE, ast.BINARY_PRECEDENCE[1:])
]


class TestPrecedence:
    @pytest.mark.parametrize("weak, strong", BOUNDARIES)
    def test_boundary(self, weak, strong):
        assert parse_expr_shape(f"a {weak} b {strong} c") == f"(a {weak} (b {strong} c))"
        assert parse_expr_shape(f"a {strong} b {weak} c") == f"((a {strong} b) {weak} c)"

    @pytest.mark.parametrize("op", [op for level in ast.BINARY_PRECEDENCE for op in level])
    def test_left_associative(self, op):
        assert parse_expr_shape(f"a {op} b {op} c") == f"((a {op} b) {op} c)"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a - b - c", "((a - b) - c)"),
            ("a || b && c", "(a || (b && c))"),
            ("a << b + c", "(a << (b + c))"),
            ("a == b < c", "(a == (b < c))"),
            ("a & b ^ c | d", "(((a & b) ^ c) | d)"),
            ("-a * !b + ~c", "((-a * !b) + ~c)"),
            ("a - (b - c)", "(a - (b - c))"),
            ("a * b + c * d == e", "(((a * b) + (c * d)) == e)"),
        ],
    )
    def test_shapes(self, text, expected):
        assert parse_expr_shape(text) == expected

    def test_binary_span_runs_from_left_to_right_operand(self):
        unit = parse_unit("int f(int a){return (a) + a * a;}", "t.c")
        e = unit.functions[0].body.stmts[0].value
        assert e.span == Span(1, 22, 21, 31)
        assert e.right.span == Span(1, 27, 26, 31)

    @pytest.mark.parametrize(
        "src, message, col",
        [
            ("int f(int a){return a + b / c;}", "division is not supported", 27),
            ("int f(int a){return a ? 1 : 0;}", "the conditional operator is not supported", 23),
            ("int f(int a){return (a % 2);}", "modulo is not supported", 24),
            ("int f(int a){return -a++;}", "increment is not supported; use `x = x + 1`", 23),
            ("int f(int a){a += 1; return a;}", "'+=' is outside the subset", 16),
            ("int f(int a){return a + &a;}", "the address-of operator is not supported", 25),
        ],
    )
    def test_unsupported_operator_position(self, src, message, col):
        with pytest.raises(UnsupportedConstructError) as exc:
            parse_unit(src, "t.c")
        (diag,) = exc.value.diagnostics
        assert (diag.message, diag.span.line, diag.span.col) == (message, 1, col)

    @pytest.mark.parametrize(
        "src, message, col",
        [
            ("bool g[2];", "only int arrays are supported", 6),
            ("int g[0];", "array length must be at least 1", 7),
            ("int g[2] = 1;", "array initializers are not supported", 12),
            ("int f(){bool a[2]; return 0;}", "only int arrays are supported", 16),
            ("int f(){int a[0]; return 0;}", "array length must be at least 1", 15),
            ("int f(){int a[2] = 1; return 0;}", "array initializers are not supported", 20),
            ("int g = x;", "global initializers must be literal constants", 9),
        ],
    )
    def test_declaration_errors(self, src, message, col):
        with pytest.raises(MiniCSyntaxError) as exc:
            parse_unit(src, "t.c")
        (diag,) = exc.value.diagnostics
        assert (diag.message, diag.span.line, diag.span.col) == (message, 1, col)

    def test_void_parameter_list(self):
        a = fn("int f(void){return 1;}")
        b = fn("int f(){return 1;}")
        assert a.params == [] and a == b

    def test_void_parameter_is_rejected(self):
        with pytest.raises(MiniCSyntaxError) as exc:
            parse_unit("int f(void x){return 1;}", "t.c")
        (diag,) = exc.value.diagnostics
        assert (diag.message, diag.span.col) == ("parameters cannot have void type", 12)


class TestTypeCheck:
    def test_call_type_mismatch(self):
        with pytest.raises(TypeCheckError):
            parse_ok("int f(int x){return x;} int g(){return f(true);}")

    def test_assert_requires_bool(self):
        with pytest.raises(TypeCheckError):
            parse_ok("void f(int x){assert(x);}")

    def test_condition_requires_bool(self):
        with pytest.raises(TypeCheckError):
            parse_ok("int f(int x){if (x) { return 1; } return 0;}")

    def test_well_typed_unit_passes(self):
        unit = parse_unit("bool f(int x){return x == 0;}", "t.c")
        type_check([unit])
        with pytest.raises(TypeCheckError) as exc:
            parse_ok("int f(int x){return x == 0;}")
        assert exc.value.diagnostics[0].message == "return type mismatch: bool, expected int"

    def test_undefined_symbol(self):
        with pytest.raises(TypeCheckError) as exc:
            parse_ok("int f(){return missing;}")
        assert "undefined" in exc.value.diagnostics[0].message

    def test_missing_return_detected(self):
        with pytest.raises(TypeCheckError):
            parse_ok("int f(int x){if (x > 0) { return 1; }}")

    def test_return_on_both_branches_accepted(self):
        parse_ok("int f(int x){if (x > 0) { return 1; } else { return 0; }}")

    def test_reads_writes_globals(self):
        unit = parse_ok(
            """
            int g = 1;
            int h;
            int arr[2];
            int reader(){return g;}
            void writer(int v){h = v;}
            void element(int v){arr[0] = v + g;}
            """
        )
        by_name = {f.name: f for f in unit.functions}
        assert by_name["reader"].reads_globals == {"g"}
        assert by_name["reader"].writes_globals == set()
        assert by_name["writer"].writes_globals == {"h"}
        assert by_name["element"].reads_globals == {"arr", "g"}
        assert by_name["element"].writes_globals == {"arr"}

    def test_callees(self):
        unit = parse_ok(
            """
            int id(int x){return x;}
            int pair(int a, int b){return id(a) + id(id(b));}
            void nested(){while (pair(1, 2) > 0) { if (true) { pair(id(0), 1); } }}
            int self(int n){if (n > 0) { return self(n - 1); } return 0;}
            """
        )
        by_name = {f.name: f for f in unit.functions}
        assert by_name["id"].callees == set()
        assert by_name["pair"].callees == {"id"}
        assert by_name["nested"].callees == {"pair", "id"}
        assert by_name["self"].callees == {"self"}

    def test_duplicate_names_rejected(self):
        with pytest.raises(TypeCheckError):
            parse_ok("int f(){return 1;} int f(){return 2;}")

    def test_void_value_use_rejected(self):
        with pytest.raises(TypeCheckError):
            parse_ok("void p(){return;} int f(){return p();}")

    def test_shadowing_in_nested_blocks(self):
        f = fn("int f(int x){int y = x; { int y = 2; x = y; } return y;}")
        assert f is not None

    @pytest.mark.parametrize(
        "case",
        [
            ("int f(){int x = 1; int x = 2; return x;}", "1:20: error: redefinition of 'x'"),
            ("int f(int x, int x){return x;}", "1:14: error: redefinition of 'x'"),
            ("int f(){int x = true; return x;}", "1:9: error: initializer of 'x' has type bool, expected int"),
            ("void f(){y = 1;}", "1:10: error: undefined variable 'y'"),
            ("int a[2]; void f(){a = 1;}", "1:20: error: arrays cannot be assigned as a whole"),
            ("void f(){int x = 0; x = true;}", "1:21: error: cannot assign bool to int"),
            ("int a[2]; void f(){a[0] = true;}", "1:20: error: cannot assign bool to array element int"),
            ("void f(){return 1;}", "1:10: error: void function 'f' returns a value"),
            ("int f(){return;}", "1:9: error: function 'f' must return int"),
            (
                "int f(){return b[y];}",
                "1:16: error: undefined variable 'b'",
                "1:18: error: undefined variable 'y'",
            ),
            ("int f(int x){return x[0];}", "1:21: error: 'x' is not an array"),
            ("int a[2]; int f(){return a[true];}", "1:28: error: array index must be int"),
            ("int g(){return 0;} int f(){return g;}", "1:35: error: 'g' is a function, not a variable"),
            (
                "int a[2]; bool f(){return a == a;}",
                "1:27: error: array 'a' used without an index",
                "1:32: error: array 'a' used without an index",
            ),
            ("int f(){return -true;}", "1:16: error: operator '-' needs an int operand"),
            ("int f(){return -y;}", "1:17: error: undefined variable 'y'"),
            ("bool f(){return !1;}", "1:17: error: operator '!' needs a bool operand"),
            ("bool f(){return 1 && true;}", "1:17: error: operator '&&' needs bool operands"),
            ("bool f(){return 1 == true;}", "1:17: error: cannot compare int with bool"),
            ("bool f(){return true < 1;}", "1:17: error: operator '<' needs int operands"),
            ("int f(){return true + 1;}", "1:16: error: operator '+' needs int operands"),
            ("int g(int x){return x;} int f(){return g(1, 2);}", "1:40: error: 'g' takes 1 argument(s), 2 given"),
            ("int g = true;", "1:1: error: initializer type does not match global 'g' (int)"),
            ("bool g = 1;", "1:1: error: initializer type does not match global 'g' (bool)"),
        ],
    )
    def test_every_diagnostic(self, case):
        src, *lines = case
        with pytest.raises(TypeCheckError) as exc:
            parse_ok(src)
        assert [str(d) for d in exc.value.diagnostics] == [f"t.c:{line}" for line in lines]


class TestNormalize:
    def test_canonical_renaming(self):
        a = fn("int f(int a){int b = a; return b;}")
        b = fn("int g(int zz){int q = zz; return q;}", name="g")
        assert alpha_key(a) == alpha_key(b)

    def test_idempotent(self):
        """Renaming to the canonical names leaves the key as it is."""
        f = fn("int f(int a){int b = a; while (b > 0) { b = b - 1; } return b;}")
        assert alpha_key(normalize_alpha(f)) == alpha_key(f)

    def test_operand_order_matters(self):
        a = fn("int f(int a, int b){return a + b;}")
        b = fn("int f(int a, int b){return b + a;}")
        assert alpha_key(a) != alpha_key(b)

    def test_self_call_is_anonymous(self):
        a = fn("int f(int n){if (n <= 0) { return 0; } return f(n - 1);}")
        b = fn("int g(int n){if (n <= 0) { return 0; } return g(n - 1);}", name="g")
        assert alpha_key(a) == alpha_key(b)

    def test_globals_keep_their_names(self):
        a = fn("int g; int f(){return g;}")
        b_unit = parse_ok("int h; int f(){return h;}")
        b = b_unit.functions[0]
        assert alpha_key(a) != alpha_key(b)

    def test_preserves_complexity(self):
        """The reference renaming used by the rename mutation changes
        neither the complexity nor the key."""
        f = fn("int f(int x){if (x > 0 && x < 9) { while (x > 1) { x = x - 1; } } return x;}")
        assert cyclomatic_complexity(f) == cyclomatic_complexity(normalize_alpha(f))
        assert alpha_key(f) == alpha_key(normalize_alpha(f))

    @pytest.mark.parametrize(
        "global_src, local_src",
        [
            ("int p0 = 5; int f(int a){return p0;}", "int f(int p0){return p0;}"),
            ("int v0 = 1; int f(){int t = 1; return v0;}", "int f(){int v0 = 1; return v0;}"),
        ],
        ids=["parameter", "local"],
    )
    def test_global_named_like_a_canonical_name(self, global_src, local_src):
        """The reference renaming confuses these pairs; the key does not."""
        a, b = fn(global_src), fn(local_src)
        assert normalize_alpha(a) == normalize_alpha(b)
        assert alpha_key(a) != alpha_key(b)

    def test_declaration_binds_after_its_initializer(self):
        a = fn("int f(int x){{ int x = x + 1; return x; }}")
        b = fn("int f(int x){{ int y = x + 1; return y; }}")
        assert alpha_key(a) == alpha_key(b)

    def test_scope_closes_with_its_block(self):
        a = fn("int f(int x){{ int x = 1; x = 2; } return x;}")
        b = fn("int f(int x){{ int y = 1; y = 2; } return x;}")
        c = fn("int f(int x){{ int y = 1; x = 2; } return x;}")
        assert alpha_key(a) == alpha_key(b)
        assert alpha_key(a) != alpha_key(c)

    def test_deep_nesting_needs_no_recursion(self):
        """Two trees of 5,000 nested `if`s, too deep for any recursive walk
        under the default recursion limit, built without the parser. Each
        reference carries the parameter's slot 0, as the type checker would
        resolve it."""
        def nested(name: str) -> ast.FunctionDef:
            int_type = ast.IntType()
            body = ast.Block(S, [ast.Return(S, ast.VarRef(S, name, 0))])
            for _ in range(5_000):
                cond = ast.Binary(S, ">", ast.VarRef(S, name, 0), ast.IntLit(S, 0))
                body = ast.Block(S, [ast.If(S, cond, body, None)])
            return ast.FunctionDef("f", [ast.Param(name, int_type)], int_type, body)

        assert sys.getrecursionlimit() <= 1_000
        a, b = alpha_key(nested("x")), alpha_key(nested("y"))
        assert a == b
        assert a.count(ast.If) == 5_000

    def test_agrees_with_the_reference_renaming(self):
        """Over generated functions and their mutations, which declare no
        global named like a canonical name, equal keys are exactly equal
        canonically renamed trees."""
        agree = 0
        for seed in range(250):
            rng = random.Random(seed)
            unit = FunctionGen(rng, width=8, with_global=rng.random() < 0.5).function()
            variants = []
            for _ in range(3):
                mutant = mutate_function(rng, unit, 8)
                type_check([mutant])
                variants.append(mutant.functions[0])
            for a in variants:
                for b in variants:
                    same = normalize_alpha(a) == normalize_alpha(b)
                    assert (alpha_key(a) == alpha_key(b)) == same
                    agree += same
        assert 0 < agree < 250 * 9


# One function holding every kind of expression and statement node.
ALL_KINDS = """
int g[4];
void h(int v) { g[0] = v; }
int f(int p) {
    int x = 0;
    bool b = nondet_bool();
    x = g[-p & 3] + nondet_int();
    if (b || !true) { h(x); } else { x = 1; }
    while (x > 2) { x = x - 1; }
    { assume(x >= 0); }
    assert(x < 3);
    return x;
}
"""


def nodes(body: ast.Block) -> list:
    return list(ast.preorder(body))


class TestMap:
    def test_fixture_holds_every_node_kind(self):
        kinds = {type(n) for n in nodes(fn(ALL_KINDS).body)}
        assert kinds == set(ast.Expr.__subclasses__()) | set(ast.Stmt.__subclasses__())

    def test_rebuild_is_equal_and_keeps_spans(self):
        body = fn(ALL_KINDS).body
        seen = []

        def visit(n):
            seen.append(n)
            return None

        copy = ast.map_stmt(body, visit, visit)
        assert copy == body
        assert [n.span for n in nodes(copy)] == [n.span for n in nodes(body)]
        # Every node was offered to a hook, and every composite was rebuilt.
        assert {id(n) for n in seen} == {id(n) for n in nodes(body)}
        leaves = (ast.IntLit, ast.BoolLit, ast.VarRef, ast.NondetInt, ast.NondetBool)
        assert not {id(n) for n in nodes(copy) if not isinstance(n, leaves)} & set(map(id, seen))

    def test_a_replacement_is_used_as_it_is(self):
        body = fn(ALL_KINDS).body
        zero = ast.IntLit(ast.DUMMY_SPAN, 0)

        def calls_to_zero(e):
            return zero if isinstance(e, ast.Call) else None

        copy = ast.map_stmt(body, calls_to_zero, lambda s: s if isinstance(s, ast.While) else None)
        exprs = [n for n in nodes(copy) if isinstance(n, ast.Expr)]
        assert not any(isinstance(e, ast.Call) for e in exprs)
        assert any(e is zero for e in exprs)
        assert any(s is body.stmts[4] for s in ast.preorder(copy))


class TestComplexity:
    def test_straight_line_is_one(self):
        assert cyclomatic_complexity(fn("int f(int x){return x + 1;}")) == 1

    def test_if_with_and(self):
        f = fn("int f(int x){if (x > 0 && x < 5) { return 1; } return 0;}")
        assert cyclomatic_complexity(f) == 3

    def test_if_while_and(self):
        f = fn(
            "int f(int x){if (x > 0 && x < 5) { while (x > 0) { x = x - 1; } } return x;}"
        )
        assert cyclomatic_complexity(f) == 4

    def test_for_counts_once(self):
        a = fn("int f(int n){int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } return s;}")
        assert cyclomatic_complexity(a) == 2


@given(st.integers(0, 10_000))
def test_roundtrip_print_parse(seed):
    """Printing and reparsing a generated unit reproduces the tree and its
    typing; the alpha key commutes with the round trip."""
    rng = random.Random(seed)
    unit = FunctionGen(rng, width=8, with_global=rng.random() < 0.5).function()
    text = format_unit(unit)
    reparsed = parse_unit(text, "gen.c")
    assert reparsed.declarations == unit.declarations
    type_check([reparsed])
    again = parse_unit(format_unit(reparsed), "gen.c")
    assert again.declarations == reparsed.declarations
    type_check([again])
    assert alpha_key(again.functions[0]) == alpha_key(reparsed.functions[0])
