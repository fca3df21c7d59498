"""Regression test modeling, selection and generalization.

Tests are MiniC functions named `test_*` (void, no parameters, at least one
assert) in a designated directory. Test files may define helper functions
but no globals. They are type-checked against the snapshot under test plus
themselves, giving a combined view that the verifier and call graph operate
on; the check takes the snapshot's globals and functions as its base, so
the declarations checked when the snapshot was loaded are not checked again.
The section label of a test is the comment sitting directly above it, or
the function name when there is none.

Selection is call-graph reachability: a test is selected exactly when it
can reach a changed function whose equivalence verdict is anything other
than Equivalent, or a newly added function.

Generalization replaces integer and boolean literals passed directly to
targeted functions with fresh nondet symbols, one per call-site argument,
and records the substitution. Assertions and control structure are left
untouched: every behavior of the original test stays a behavior of the
generalized one (substitute the original literals back to recover it). A
test that already contains nondet intrinsics is tagged as manually
generalized so spurious counterexamples can be triaged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from cfv.errors import Diagnostic, InputError
from cfv.minic import ast
from cfv.minic.parser import parse_unit
from cfv.minic.typecheck import type_check
from cfv.snapshot import Snapshot, read_sources, under


@dataclass
class TestCase:
    name: str
    section: str
    body: ast.FunctionDef
    path: str = ""


@dataclass
class CallGraph:
    """Direct calls between a snapshot's functions, read from the `callees`
    the type checker recorded on each; a test view's graph holds its tests."""

    snap: Snapshot

    def reachable(self, root: str) -> set[str]:
        """root and every function it reaches through direct calls."""
        functions = self.snap.functions
        seen: set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(functions[name].callees)
        return seen


def load_tests(tests_dir: str | Path, snap: Snapshot) -> tuple[list[TestCase], Snapshot]:
    """Parse and check a test directory against a snapshot.

    Returns the tests plus a combined view snapshot (snapshot units plus
    test units) that test verification runs against. Diagnostics name each
    file under tests_dir as given, so they tell test errors from snapshot
    ones.
    """
    tests_dir = Path(tests_dir)
    if not tests_dir.is_dir():
        raise InputError([Diagnostic(str(tests_dir), ast.DUMMY_SPAN, "not a directory")])
    sources = read_sources(tests_dir)
    try:
        return _check_tests(sources, snap)
    except InputError as err:
        raise under(tests_dir, err) from None


def _check_tests(
    sources: dict[str, str], snap: Snapshot
) -> tuple[list[TestCase], Snapshot]:
    diagnostics: list[Diagnostic] = []
    test_units = []
    for rel, source in sources.items():
        try:
            test_units.append(parse_unit(source, rel))
        except InputError as err:
            diagnostics.extend(err.diagnostics)
    if diagnostics:
        raise InputError(diagnostics)

    for unit in test_units:
        for g in unit.globals:
            message = "test files must not declare globals; state belongs to the snapshot"
            diagnostics.append(Diagnostic(unit.path, g.span, message))
    if diagnostics:
        raise InputError(diagnostics)

    units = snap.units + test_units
    checked = type_check(units, (snap.globals, snap.functions))
    view = Snapshot(f"{snap.label}+tests", units, *checked, snap.width)

    tests: list[TestCase] = []
    for unit in test_units:
        for fn in unit.functions:
            if not fn.name.startswith("test_"):
                continue
            if not isinstance(fn.return_type, ast.VoidType) or fn.params:
                message = f"test {fn.name!r} must be void and take no parameters"
                diagnostics.append(Diagnostic(unit.path, fn.span, message))
                continue
            if not any(isinstance(n, ast.Assert) for n in ast.preorder(fn.body)):
                message = f"test {fn.name!r} contains no assert"
                diagnostics.append(Diagnostic(unit.path, fn.span, message))
                continue
            tests.append(TestCase(fn.name, _section_label(unit, fn), fn, unit.path))
    if diagnostics:
        raise InputError(diagnostics)
    tests.sort(key=lambda t: (t.path, t.body.span.start))
    return tests, view


def _section_label(unit: ast.SourceUnit, fn: ast.FunctionDef) -> str:
    for comment in unit.comments:
        if comment.end_line == fn.span.line - 1 and comment.text:
            return comment.text
    return fn.name


def build_call_graph(snap: Snapshot) -> CallGraph:
    """snap's call graph; selection passes the test view, which holds every
    test."""
    return CallGraph(snap)


def select_tests(
    tests: list[TestCase], triggers: set[str], cg: CallGraph
) -> list[TestCase]:
    """Tests whose reachable set meets the trigger functions, input order."""
    return [t for t in tests if cg.reachable(t.name) & triggers]


# ---------------------------------------------------------------------------
# Generalization


@dataclass
class Substitution:
    arg_position: int
    original: int | bool


@dataclass
class GeneralizedTest:
    origin: str
    body: ast.FunctionDef
    substitutions: list[Substitution]
    manual: bool  # origin already contained nondet intrinsics

    @property
    def mode(self) -> str:
        if self.manual:
            return "manual"
        return "auto" if self.substitutions else "none"


class _Generalizer:
    def __init__(self, targets: set[str]):
        self.targets = targets
        self.substitutions: list[Substitution] = []

    def expr(self, e: ast.Expr) -> ast.Expr | None:
        if not (isinstance(e, ast.Call) and e.name in self.targets):
            return None
        args: list[ast.Expr] = []
        for pos, arg in enumerate(e.args):
            value = ast.literal_value(arg)
            if value is None:
                args.append(ast.map_expr(arg, self.expr))
                continue
            self.substitutions.append(Substitution(pos, value))
            nondet = ast.NondetBool if isinstance(value, bool) else ast.NondetInt
            args.append(nondet(arg.span))
        return ast.Call(e.span, e.name, args)

    @staticmethod
    def stmt(s: ast.Stmt) -> ast.Stmt | None:
        # Assertions and assumptions are the checked properties; keep them
        # verbatim.
        return s if isinstance(s, (ast.Assert, ast.Assume)) else None


def generalize(t: TestCase, targets: set[str]) -> GeneralizedTest:
    """Replace literal arguments of calls to target functions with nondets.

    With no substitutable site the original body is returned unchanged with
    an empty substitution list.
    """
    if not targets:
        raise ValueError("targets must be nonempty")
    manual = any(
        isinstance(e, (ast.NondetInt, ast.NondetBool)) for e in ast.preorder(t.body.body)
    )
    gen = _Generalizer(targets)
    body = ast.map_stmt(t.body.body, gen.expr, gen.stmt)
    if not gen.substitutions:
        return GeneralizedTest(t.name, t.body, [], manual)
    return GeneralizedTest(t.name, replace(t.body, body=body), gen.substitutions, manual)
