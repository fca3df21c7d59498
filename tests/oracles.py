"""Brute-force ground truth shared by the oracle-backed tests.

Five independent oracles live here, and none touches the code it is used
to judge:

* Program oracles run functions and test bodies through the reference
  interpreter only (functions_equivalent_bruteforce, interpret_concrete).
* A numpy term enumerator (evaluate, bulk_evaluate, exhaustive_solve)
  evaluates a term DAG on every input valuation. It reads only the Term
  data structure and shares nothing with bitblast or dpll, so it can judge
  sat_solve's verdicts and least models.
* A tree evaluator (evaluate_tree) computes a plain expression tree, the
  one the test generators build beside each term, from the C operators'
  meaning at a width, over numpy arrays. It reads neither Terms nor
  cfv.terms, so it can judge the builder's folding, normalisation and
  hash-consing.
* A reference substitution (rebuild_everywhere) rebuilds every node above
  a replaced input bottom-up, with no short-circuit and no memo. It shares
  the builder's constructors with TermBuilder.substitute but not its walk,
  so it can judge whether, and to what, a substituted root folds.
* A reference lexer (reference_tokens) matches one token at a time and
  tracks lines as it goes. It shares only the keyword and operator tables
  with `cfv.minic.lexer`, so it can judge the bulk lexer's columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from cfv.errors import CfvError, Diagnostic, UnsupportedConstructError
from cfv.interp import DEFAULT_FUEL, InterpreterError, run_function, zero_globals
from cfv.minic import ast
from cfv.minic.ast import Comment, Span
from cfv.minic.lexer import KEYWORDS, OPERATORS, UNSUPPORTED_KEYWORDS, UNSUPPORTED_OPERATORS
from cfv.snapshot import Snapshot
from cfv.solver import Model, Sat, SolveResult, Unsat, _default_model
from cfv.terms import _CONSTRUCTOR, BOOL, Formula, Term, TermBuilder, mask, postorder

EXHAUSTIVE_BIT_CAP = 20
_CHUNK_BITS = 16

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"


def observable(outcome) -> tuple:
    """Collapse an interpreter outcome to comparable observables.

    A trapped or assert-failing run observes nothing beyond the violation
    itself, matching the miter's semantics.
    """
    if not outcome.ok:
        return ("violation",)
    frozen = tuple(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in sorted(outcome.globals.items())
    )
    return ("ok", outcome.ret, frozen)


def input_space(snap: Snapshot, fn: ast.FunctionDef) -> tuple[list[str], int]:
    """Scalar input slots: parameters then int globals then array elements."""
    slots = [f"p{i}" for i in range(len(fn.params))]
    for name in sorted(snap.globals):
        decl = snap.globals[name]
        if isinstance(decl.ty, ast.ArrayType):
            slots.extend(f"{name}[{i}]" for i in range(decl.ty.length))
        else:
            slots.append(name)
    return slots, len(slots)


def run_on(snap: Snapshot, fn: ast.FunctionDef, values: tuple[int, ...]):
    """Run fn with the flat valuation laid out as input_space describes."""
    nparams = len(fn.params)
    args = list(values[:nparams])
    globals_init = zero_globals(snap)
    pos = nparams
    for name in sorted(snap.globals):
        decl = snap.globals[name]
        if isinstance(decl.ty, ast.ArrayType):
            globals_init[name] = list(values[pos : pos + decl.ty.length])
            pos += decl.ty.length
        else:
            globals_init[name] = values[pos]
            pos += 1
    return run_function(snap, fn, args, globals_init)


def functions_equivalent_bruteforce(
    old: Snapshot, new: Snapshot, name: str, width: int
) -> tuple[bool, bool]:
    """Exhaustive shared-input comparison of two function versions.

    Returns (equal on every co-terminating input, every input terminated).
    Inputs where either side runs out of fuel carry no observables; bounded
    equivalence never claims anything about them.
    """
    fn_old, fn_new = old.functions[name], new.functions[name]
    _, n_old = input_space(old, fn_old)
    _, n_new = input_space(new, fn_new)
    assert n_old == n_new, "oracle assumes matching input layouts"
    equal = True
    all_terminated = True
    for values in product(range(1 << width), repeat=n_old):
        a = run_on(old, fn_old, values)
        b = run_on(new, fn_new, values)
        if a.status == "out_of_fuel" or b.status == "out_of_fuel":
            all_terminated = False
            continue
        if observable(a) != observable(b):
            equal = False
    return equal, all_terminated


def first_difference(old: Snapshot, new: Snapshot, name: str, width: int):
    fn_old, fn_new = old.functions[name], new.functions[name]
    _, n = input_space(old, fn_old)
    for values in product(range(1 << width), repeat=n):
        a = observable(run_on(old, fn_old, values))
        b = observable(run_on(new, fn_new, values))
        if a != b:
            return values, a, b
    return None


def called_names(fn: ast.FunctionDef) -> set[str]:
    """Every function name called anywhere in fn's body, found by walking
    the tree rather than read from the type checker's `callees`."""
    return {e.name for e in ast.preorder(fn.body) if isinstance(e, ast.Call)}


def closure_names(fn: ast.FunctionDef, snap: Snapshot) -> set[str]:
    """Names of fn and of every snap function it reaches by direct calls."""
    seen: set[str] = set()
    stack = [fn]
    while stack:
        f = stack.pop()
        if f.name not in seen:
            seen.add(f.name)
            stack.extend(snap.functions[n] for n in called_names(f) if n in snap.functions)
    return seen


# -- concrete runs of test bodies ----------------------------------------------


@dataclass
class PassResult:
    pass


@dataclass
class AssertFailResult:
    span: Span


@dataclass
class OutOfFuelResult:
    pass


InterpResult = PassResult | AssertFailResult | OutOfFuelResult


def interpret_concrete(test_body: ast.FunctionDef, snap: Snapshot, fuel: int = DEFAULT_FUEL) -> InterpResult:
    """Run a nondet-free test body from the snapshot's initial global state."""
    for e in ast.preorder(test_body.body):
        if isinstance(e, (ast.NondetInt, ast.NondetBool)):
            raise InterpreterError(
                f"test {test_body.name!r} contains nondet intrinsics"
            )
    outcome = run_function(snap, test_body, [], fuel=fuel)
    if outcome.status in ("ok", "assume_halt"):
        return PassResult()
    if outcome.status == "out_of_fuel":
        return OutOfFuelResult()
    return AssertFailResult(outcome.span)


# -- the term enumerator -------------------------------------------------------


class DomainTooLargeError(CfvError):
    """Exhaustive enumeration was asked for more input bits than the cap."""


def evaluate(root: Term, env: dict[str, int | bool]) -> int | bool:
    """Concrete evaluation; env maps input names to unsigned residues/bools.

    One valuation is bulk_evaluate over arrays of length 1. Each input is
    read at its term's width: a bool input is truthiness, a bitvector is
    masked.
    """
    lanes = {
        t.name: np.array([bool(env[t.name])])
        if t.width == BOOL
        else np.array([int(env[t.name]) & mask(t.width)], dtype=np.uint64)
        for t in postorder(root)
        if t.op == "input"
    }
    result = np.broadcast_to(bulk_evaluate(root, lanes), (1,))[0]
    return bool(result) if root.width == BOOL else int(result)


def bulk_evaluate(root: Term, env: dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized evaluation over many valuations at once.

    Bitvector arrays are uint64 residues, bool terms become bool arrays.
    Used by the exhaustive enumeration oracle.
    """
    values: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore"):
        for t in postorder(root):
            values[t.uid] = _bulk_node(t, values, env)
    return values[root.uid]


def _signed64(v: np.ndarray, w: int) -> np.ndarray:
    half = np.uint64(1 << (w - 1))
    return v.astype(np.int64) - ((v & half).astype(np.int64) << np.int64(1))


def _bulk_node(t: Term, values, env):
    op = t.op
    if op == "const":
        if t.width == BOOL:
            return np.bool_(bool(t.value))
        return np.uint64(t.value)
    if op == "input":
        return env[t.name]
    a = values[t.args[0].uid] if t.args else None
    b = values[t.args[1].uid] if len(t.args) > 1 else None
    w = t.args[0].width if t.args else t.width
    m = np.uint64(mask(w)) if w != BOOL else None
    if op == "not":
        return ~a
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "eq":
        return a == b
    if op == "slt":
        return _signed64(a, w) < _signed64(b, w)
    if op == "ite":
        return np.where(a, values[t.args[1].uid], values[t.args[2].uid])
    if op == "add":
        return (a + b) & m
    if op == "sub":
        return (a - b) & m
    if op == "mul":
        return (a * b) & m
    if op == "band":
        return a & b
    if op == "bor":
        return a | b
    if op == "bxor":
        return a ^ b
    if op == "bnot":
        return (~a) & m
    if op == "shl":
        return (a << (b & np.uint64(w - 1))) & m
    if op == "ashr":
        amt = (b & np.uint64(w - 1)).astype(np.int64)
        return (_signed64(a, w) >> amt).astype(np.uint64) & m
    raise AssertionError(f"unknown op {op}")  # pragma: no cover


def evaluate_tree(tree: tuple, env: dict[str, np.ndarray], width: int) -> np.ndarray:
    """The value of a generator's expression tree under each valuation.

    env maps input names to int64 arrays of unsigned values below
    2**width, or bool arrays for bool inputs. Words come back as int64
    residues modulo 2**width, conditions as bool arrays. Comparisons and
    >> read words as signed two's complement, so >> is arithmetic, and a
    shift amount is masked with width - 1. A subtree shared by identity is
    evaluated once.
    """
    memo: dict[int, np.ndarray] = {}

    def value(node):
        done = memo.get(id(node))
        if done is not None:
            return done
        op, *operands = node
        if op == "const":
            result = np.int64(operands[0])
        elif op == "var":
            result = env[operands[0]]
        else:
            result = _TREE_OPS[op](width, *[value(x) for x in operands])
            if result.dtype != bool:
                result = result % (1 << width)
        memo[id(node)] = result
        return result

    return value(tree)


def _signed(v, width):
    return np.where(v >= 1 << (width - 1), v - (1 << width), v)


def _amount(v, width):
    return v & (width - 1)


_TREE_OPS = {
    "+": lambda w, a, b: a + b,
    "-": lambda w, a, b: a - b,
    "*": lambda w, a, b: a * b,
    "&": lambda w, a, b: a & b,
    "|": lambda w, a, b: a | b,
    "^": lambda w, a, b: a ^ b,
    "<<": lambda w, a, b: a << _amount(b, w),
    ">>": lambda w, a, b: _signed(a, w) >> _amount(b, w),
    "~": lambda w, a: ~a,
    "neg": lambda w, a: -a,
    "ite": lambda w, c, a, b: np.where(c, a, b),
    "<": lambda w, a, b: _signed(a, w) < _signed(b, w),
    "<=": lambda w, a, b: _signed(a, w) <= _signed(b, w),
    ">": lambda w, a, b: _signed(a, w) > _signed(b, w),
    ">=": lambda w, a, b: _signed(a, w) >= _signed(b, w),
    "==": lambda w, a, b: a == b,
    "!=": lambda w, a, b: a != b,
    "and": lambda w, a, b: a & b,
    "or": lambda w, a, b: a | b,
    "xor": lambda w, a, b: a ^ b,
    "not": lambda w, a: ~a,
}


def input_bits(formula: Formula) -> int:
    """Total bits of the formula's inputs; a bool input counts as one."""
    return sum(max(t.width, 1) for t in formula.inputs)


def exhaustive_solve(formula: Formula, cap_bits: int = EXHAUSTIVE_BIT_CAP) -> SolveResult:
    """Enumerate every valuation, first satisfying model in counting order.

    Raises DomainTooLargeError beyond cap_bits total input bits.
    """
    total_bits = input_bits(formula)
    if total_bits > cap_bits:
        raise DomainTooLargeError(
            f"{total_bits} input bits exceed the exhaustive cap of {cap_bits}"
        )
    if formula.root.is_const:
        return Sat(_default_model(formula)) if formula.root.value else Unsat()

    # Input i occupies the bits above all later inputs, so increasing index
    # walks valuations in lexicographic (slot-order counting) order.
    shifts: list[int] = []
    acc = 0
    for term in reversed(formula.inputs):
        shifts.append(acc)
        acc += max(term.width, 1)
    shifts.reverse()

    total = 1 << total_bits
    step = 1 << min(_CHUNK_BITS, total_bits)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint64)
        env: dict[str, np.ndarray] = {}
        for term, shift in zip(formula.inputs, shifts):
            width = max(term.width, 1)
            chunk = (idx >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            env[term.name] = chunk.astype(bool) if term.width == BOOL else chunk
        result = bulk_evaluate(formula.root, env)
        result = np.broadcast_to(result, idx.shape)
        if result.any():
            first = int(np.argmax(result))
            model: Model = {}
            for term, shift in zip(formula.inputs, shifts):
                width = max(term.width, 1)
                value = (int(idx[first]) >> shift) & ((1 << width) - 1)
                model[term.name] = bool(value) if term.width == BOOL else value
            return Sat(model)
    return Unsat()


def check_model(formula: Formula, model: Model) -> bool:
    """True when the model satisfies the formula under concrete evaluation."""
    return bool(evaluate(formula.root, model))


def rebuild_everywhere(builder: TermBuilder, root: Term, mapping: dict[Term, Term]) -> Term:
    """root with each input of mapping replaced by its term, every node
    above a replaced input rebuilt bottom-up through builder's constructors:
    the reference for TermBuilder.substitute, which rebuilds only the
    operands that decide a node."""
    new: dict[int, Term] = {t.uid: v for t, v in mapping.items()}
    for term in postorder(root):
        if term.uid in new:
            continue
        args = tuple([new[a.uid] for a in term.args])
        if args == term.args:
            new[term.uid] = term
        else:
            new[term.uid] = getattr(builder, _CONSTRUCTOR.get(term.op, term.op))(*args)
    return new[root.uid]


_REFERENCE_KINDS = (
    {word: "keyword" for word in KEYWORDS}
    | {op: "op" for op in OPERATORS}
    | {text: "unsupported" for text in UNSUPPORTED_OPERATORS + tuple(UNSUPPORTED_KEYWORDS)}
)

# Each match skips a run of whitespace and then takes one token. At the end
# of the input `eof` matches the empty string, and any character no other
# group takes is `other`, so every match succeeds. The first group that
# matches wins.
_REFERENCE_TOKEN_RE = re.compile(
    r"[ \t\r\n\f\v]*(?:"
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

_REFERENCE_ERRORS = {
    "unterminated": "unterminated block comment",
    "bad_hex": "malformed hex literal",
    "octal": "octal literals are not supported",
}


def reference_tokens(source: str, path: str) -> tuple[list[tuple], list[Comment]]:
    """Tokens as (kind, text, line, col, start, end), the last one eof, and
    the comments; one regex match per token, lines counted as it goes.
    Raises UnsupportedConstructError at the first fault."""
    tokens: list[tuple] = []
    comments: list[Comment] = []
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    while True:
        m = _REFERENCE_TOKEN_RE.match(source, pos)
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
            kind = "number" if group == "number" else _REFERENCE_KINDS.get(text, "ident")
            tokens.append((kind, text, line, col, start, end))
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
            tokens.append(("eof", "", line, col, start, end))
            return tokens, comments
        else:
            if group != "other":
                msg = _REFERENCE_ERRORS[group]
            elif source[start] == "#" and not source[line_start:start].strip(" \t\r\f\v"):
                msg = "preprocessor directives are not supported"
            else:
                msg = f"unexpected character {source[start]!r}"
            span = Span(line, col, start, start + 1)
            raise UnsupportedConstructError([Diagnostic(path, span, msg)])
        pos = end
