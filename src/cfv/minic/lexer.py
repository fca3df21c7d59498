"""Lexer for MiniC: one compiled alternation matched at each position.

Whitespace is not a token of its own: it is the optional prefix of every
match, so each token, each comment and the end of the input cost one regex
match.

Tokens are ASCII: numbers are `[0-9]+` or hex `0x[0-9a-fA-F]+`, words are
`[A-Za-z_][A-Za-z0-9_]*`, and operators are matched longest first. Any other
character outside a comment, non-ASCII digits and letters included, is an
"unexpected character" diagnostic.

Comments are stripped from the token stream but kept (with spans) on the
side, since test section labels are taken from the comment directly above a
test function. Tokens carrying C operators that exist outside the subset
(`/`, `%`, `++`, `->`, ...) are emitted with kind UNSUPPORTED so the parser
can point at them with a precise diagnostic instead of a generic syntax
error. Preprocessor directives are rejected here, and so are decimal
literals with a leading zero, which C reads as octal.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from cfv.errors import Diagnostic, UnsupportedConstructError
from cfv.minic.ast import Comment, Span

KEYWORDS = frozenset(
    {
        "int",
        "bool",
        "void",
        "true",
        "false",
        "if",
        "else",
        "while",
        "for",
        "return",
        "assert",
        "assume",
        "nondet_int",
        "nondet_bool",
    }
)

# Operators of the subset.
OPERATORS = (
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "<",
    ">",
    "=",
    "!",
    "~",
    "&",
    "|",
    "^",
    "+",
    "-",
    "*",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
)

# Recognized so the parser can say "unsupported" rather than "syntax error".
UNSUPPORTED_OPERATORS = (
    "<<=",
    ">>=",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "->",
    "/",
    "%",
    "?",
    ":",
    ".",
)


# Token kind of each keyword and operator; any other word is an identifier.
_KINDS = (
    {word: "keyword" for word in KEYWORDS}
    | {op: "op" for op in OPERATORS}
    | {op: "unsupported" for op in UNSUPPORTED_OPERATORS}
)

# Each match skips a run of whitespace and then takes one token, so the
# whitespace needs no match of its own. At the end of the input `eof` matches
# the empty string, and any character no other group takes is `other`, so
# every match succeeds. The first group that matches wins, so a complete
# block comment comes before an unterminated one and comments come before
# the `/` operator. `int(text, 0)` reads a number token: it takes `0x1f`,
# `10` and `00` but not `010`.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(
        [
            r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
            r"(?P<line_comment>//[^\n]*)",
            r"(?P<block_comment>/\*.*?\*/)",
            r"(?P<unterminated>/\*)",
            r"(?P<bad_hex>0[xX](?![0-9a-fA-F]))",
            r"(?P<number>0[xX][0-9a-fA-F]+|[1-9][0-9]*|0+(?![0-9]))",
            r"(?P<octal>0[0-9]+)",
            "(?P<op>"
            + "|".join(map(re.escape, sorted(OPERATORS + UNSUPPORTED_OPERATORS, key=len, reverse=True)))
            + ")",
            r"(?P<eof>\Z)",
            r"(?P<other>.)",
        ]
    )
    + ")",
    re.DOTALL,
)

_ERRORS = {
    "unterminated": "unterminated block comment",
    "bad_hex": "malformed hex literal",
    "octal": "octal literals are not supported",
}


# The position is kept as plain ints: most tokens never need a Span.
class Token(NamedTuple):
    kind: str  # "ident", "number", "keyword", "op", "unsupported", "eof"
    text: str
    line: int
    col: int
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.start, self.end)


def tokenize(source: str, path: str) -> tuple[list[Token], list[Comment]]:
    tokens: list[Token] = []
    comments: list[Comment] = []
    append = tokens.append
    match = _TOKEN_RE.match
    new_token = tuple.__new__  # skips NamedTuple's Python-level __new__
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`

    while True:
        m = match(source, pos)
        group = m.lastgroup
        start, end = m.span(group)
        if start != pos:
            newline = source.rfind("\n", pos, start)
            if newline != -1:
                line += source.count("\n", pos, start)
                line_start = newline + 1
        col = start - line_start + 1
        if group == "word" or group == "op" or group == "number":
            text = source[start:end]
            kind = "number" if group == "number" else _KINDS.get(text, "ident")
            append(new_token(Token, (kind, text, line, col, start, end)))
        elif group == "line_comment":
            span = Span(line, col, start, end)
            comments.append(Comment(source[start + 2 : end].strip(), span, line))
        elif group == "block_comment":
            span = Span(line, col, start, end)
            newline = source.rfind("\n", start, end)
            if newline != -1:
                line += source.count("\n", start, end)
                line_start = newline + 1
            comments.append(Comment(source[start + 2 : end - 2].strip(), span, line))
        elif group == "eof":
            append(new_token(Token, ("eof", "", line, col, start, end)))
            return tokens, comments
        else:
            if group != "other":
                msg = _ERRORS[group]
            elif source[start] == "#" and not source[line_start:start].strip(" \t\r"):
                msg = "preprocessor directives are not supported"
            else:
                msg = f"unexpected character {source[start]!r}"
            span = Span(line, col, start, start + 1)
            raise UnsupportedConstructError([Diagnostic(path, span, "error", msg)])
        pos = end
