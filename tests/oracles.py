"""Brute-force ground truth shared by the oracle-backed tests.

Everything here goes through the reference interpreter only; none of it
touches the encoder or the solver it is used to judge.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

from cfv.interp import run_function, zero_globals
from cfv.minic import ast
from cfv.snapshot import Snapshot

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
    return {e.name for e in ast.all_exprs(fn) if isinstance(e, ast.Call)}


def call_graph_edges(snap: Snapshot, bodies: list[ast.FunctionDef]) -> dict[str, tuple[str, ...]]:
    """Direct-call edges over snap's functions plus bodies, by walking."""
    functions = dict(snap.functions)
    for fn in bodies:
        functions.setdefault(fn.name, fn)
    return {
        name: tuple(sorted(called_names(functions[name]) & functions.keys()))
        for name in sorted(functions)
    }


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
