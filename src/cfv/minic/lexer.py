"""Lexer for MiniC: one `findall` over the file, positions on demand.

A single `re.findall` splits the whole source into (whitespace, token)
pairs: each match skips a run of whitespace and then takes one token, a
comment, a fault or the end of the input. The token offsets are running
sums of the pair lengths, and the kinds of keywords and operators come
from one dict lookup per text; both are done by C-level calls over the
whole file. Python visits only the tokens the kind table does not know:
identifiers, numbers, comments, faults and the eof. Line and column are
not tracked while lexing; a Span computes them from the line starts when
the parser asks for one.

Tokens are ASCII: numbers are `[0-9]+` or hex `0x[0-9a-fA-F]+`, words are
`[A-Za-z_][A-Za-z0-9_]*`, and operators are matched longest first. Any other
character outside a comment, non-ASCII digits and letters included, is an
"unexpected character" diagnostic. Whitespace is space, tab, carriage
return, newline, form feed and vertical tab; only a newline starts a line.

Comments are stripped from the token stream but kept (with spans) on the
side, since test section labels are taken from the comment directly above a
test function. Tokens carrying C operators or keywords that exist outside
the subset (`/`, `%`, `++`, `->`, `break`, `struct`, ...) get kind
UNSUPPORTED so the parser can point at them with a precise diagnostic
instead of a generic syntax error. Preprocessor directives are rejected
here, and so are decimal literals with a leading zero, which C reads as
octal.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain, compress, repeat
from operator import is_, ne
from typing import NamedTuple

from cfv.errors import Diagnostic, UnsupportedConstructError
from cfv.minic.ast import Comment, Span

KEYWORDS = frozenset(
    "int bool void true false if else while for return assert assume"
    " nondet_int nondet_bool".split()
)

# C11 keywords that the subset lacks; as names they would only mislead.
UNSUPPORTED_KEYWORDS = frozenset(
    "auto break case char const continue default do double enum extern float"
    " goto inline long register restrict short signed sizeof static struct"
    " switch typedef union unsigned volatile _Alignas _Alignof _Atomic _Bool"
    " _Complex _Generic _Imaginary _Noreturn _Static_assert _Thread_local".split()
)

# Operators of the subset.
OPERATORS = tuple(
    "<< >> <= >= == != && || < > = ! ~ & | ^ + - * ( ) { } [ ] ; ,".split()
)

# Recognized so the parser can say "unsupported" rather than "syntax error".
UNSUPPORTED_OPERATORS = tuple(
    "<<= >>= ++ -- += -= *= /= %= &= |= ^= -> / % ? : .".split()
)

WHITESPACE = " \t\r\n\f\v"

# Token kind of each keyword and operator; any other text is visited.
_KINDS = (
    dict.fromkeys(KEYWORDS, "keyword")
    | dict.fromkeys(OPERATORS, "op")
    | dict.fromkeys((*UNSUPPORTED_OPERATORS, *UNSUPPORTED_KEYWORDS), "unsupported")
)

# Each match is (whitespace, body). The body alternation is tried in order:
# a complete block comment comes before an unterminated one, and comments
# before the `/` operator. At the end of the input `\Z` matches the empty
# string, and any character nothing else takes matches alone, so every
# match succeeds. `int(text, 0)` reads a number token: it takes `0x1f`,
# `10` and `00` but not `010`.
_TOKEN_RE = re.compile(
    "([" + re.escape(WHITESPACE) + "]*)("
    + "|".join(
        [
            r"[A-Za-z_][A-Za-z0-9_]*",  # word
            r"//[^\n]*",  # line comment
            r"/\*.*?\*/",  # block comment
            r"/\*",  # unterminated block comment
            r"0[xX](?![0-9a-fA-F])",  # malformed hex literal
            r"0[xX][0-9a-fA-F]+|[1-9][0-9]*|0+(?![0-9])",  # number
            r"0[0-9]+",  # octal
            "|".join(map(re.escape, sorted(OPERATORS + UNSUPPORTED_OPERATORS, key=len, reverse=True))),
            r"\Z",  # eof
            r".",  # unexpected character
        ]
    )
    + ")",
    re.DOTALL,
)

_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# The digit runs that the body takes and that are not octal or bad hex.
_NUMBER = re.compile(r"0[xX][0-9a-fA-F]+|[1-9][0-9]*|0+").fullmatch


class Lexed(NamedTuple):
    """A file's tokens as columns, comments removed; the last token is eof."""

    texts: list[str]
    kinds: list[str]  # "ident", "number", "keyword", "op", "unsupported", "eof"
    starts: list[int]
    ends: list[int]
    line_starts: list[int]  # offset of the first character of each line
    comments: list[Comment]

    def span(self, tok: int, end: int | None = None) -> Span:
        """The span of token tok, or from its start to the offset `end`."""
        start = self.starts[tok]
        line_starts = self.line_starts
        line = bisect_right(line_starts, start)
        col = start - line_starts[line - 1] + 1
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        return tuple.__new__(Span, (line, col, start, self.ends[tok] if end is None else end))


def _fault(text: str, before: str) -> str:
    """The diagnostic of a visited token that is not a word, number or
    comment; `before` is the line's text up to the token."""
    if text[0] == "0":
        return "malformed hex literal" if text[1] in "xX" else "octal literals are not supported"
    if text == "/*":
        return "unterminated block comment"
    if text == "#" and not before.strip(WHITESPACE):
        return "preprocessor directives are not supported"
    return f"unexpected character {text!r}"


def lex(source: str, path: str) -> Lexed:
    """The tokens and comments of source; raises UnsupportedConstructError
    at the first fault in source order."""
    flat = list(chain.from_iterable(_TOKEN_RE.findall(source)))
    texts = flat[1::2]
    n = texts.index("") + 1  # an empty match may follow the one at \Z
    del texts[n:]
    # Where each whitespace run and each text ends: a text starts where the
    # whitespace before it ends.
    offsets = list(accumulate(map(len, flat)))
    starts = offsets[0 : 2 * n : 2]
    ends = offsets[1 : 2 * n : 2]
    kinds = list(map(_KINDS.get, texts))
    line_starts = [0, *map(re.Match.end, re.finditer("\n", source))]
    lexed = Lexed(texts, kinds, starts, ends, line_starts, [])
    for i in compress(range(n), map(is_, kinds, repeat(None))):
        text = texts[i]
        c = text[:1]
        if c in _WORD_START:
            kinds[i] = "ident"
        elif not c:
            kinds[i] = "eof"
        elif _NUMBER(text):
            kinds[i] = "number"
        elif c == "/" and text != "/*":
            kinds[i] = "comment"
            body = text[2:] if text[1] == "/" else text[2:-2]
            end_line = bisect_right(line_starts, ends[i] - 1)
            lexed.comments.append(Comment(body.strip(), lexed.span(i), end_line))
        else:
            span = lexed.span(i, starts[i] + 1)
            msg = _fault(text, source[span.start - span.col + 1 : span.start])
            raise UnsupportedConstructError([Diagnostic(path, span, msg)])
    if lexed.comments:
        keep = list(map(ne, kinds, repeat("comment")))
        for column in (texts, kinds, starts, ends):
            column[:] = compress(column, keep)
    return lexed
