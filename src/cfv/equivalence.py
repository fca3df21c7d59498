"""Two-stage equivalence checking of function versions.

Stage 1 compares canonically renamed ASTs and costs no solver time. Stage 2
encodes both versions over shared inputs (positional parameters, globals by
name, nondet occurrences paired in order) and asks the solver for an input
that makes their observables differ. Observables are the return value, the
final value of every written global, and the assertion outcome; value
differences only count on inputs where both sides stay assertion-clean,
since a trapped run observes nothing beyond the trap itself.

Every behavioral verdict is replayed through the reference interpreter
before being reported: a NotEquivalent witness that does not reproduce a
concrete difference is a bug, not a result.

A time limit covers encoding, bit-blasting and solving; on expiry the
verdict is Unknown and the caller treats the pair as changed. A pair whose
relevant globals changed their declared initial value is also Unknown: the
input-relational encoding compares functions over shared arbitrary states
and cannot see initial-state divergence, so such pairs go straight to
testing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from cfv.changes import changed_globals, structural_equiv
from cfv.errors import SignatureMismatchError
from cfv.interp import DEFAULT_FUEL, Outcome, run_function
from cfv.minic import ast
from cfv.snapshot import Snapshot
from cfv.solver import Sat, SolverStats, Timeout, Unknown, Unsat, sat_solve
from cfv.ssa import (
    GLOBAL_PREFIX,
    NONDET_PREFIX,
    PARAM_PREFIX,
    EncodeTimeout,
    SsaProgram,
    UnrollConfig,
    encode_ssa,
)
from cfv.terms import Formula, Term, TermBuilder


@dataclass
class Equivalent:
    mode: str  # "structural" or "formal"
    bound: int
    complete: bool


@dataclass
class Witness:
    """Shared input valuation; integers are unsigned residues."""

    params: list[int | bool]
    globals: dict[str, int | bool | list[int]]
    nondets: dict[str, int | bool]


@dataclass
class Observables:
    ok: bool
    status: str
    ret: int | bool | None
    globals: dict


@dataclass
class NotEquivalent:
    reason: str  # "behavior" or "signature_mismatch"
    witness: Witness | None = None
    old_observables: Observables | None = None
    new_observables: Observables | None = None


EquivalenceVerdict = Equivalent | NotEquivalent | Unknown


def closure_functions(fn: ast.FunctionDef, snap: Snapshot) -> list[ast.FunctionDef]:
    """fn plus everything it can reach through direct calls."""
    seen: dict[str, ast.FunctionDef] = {}
    stack = [fn]
    while stack:
        f = stack.pop()
        if f.name in seen:
            continue
        seen[f.name] = f
        for e in ast.all_exprs(f):
            if isinstance(e, ast.Call) and e.name in snap.functions:
                if e.name not in seen:
                    stack.append(snap.functions[e.name])
    return list(seen.values())


def transitive_reads(fn: ast.FunctionDef, snap: Snapshot) -> set[str]:
    out: set[str] = set()
    for f in closure_functions(fn, snap):
        out |= f.reads_globals
    return out


def transitive_writes(fn: ast.FunctionDef, snap: Snapshot) -> set[str]:
    out: set[str] = set()
    for f in closure_functions(fn, snap):
        out |= f.writes_globals
    return out


def _signatures_match(a: ast.FunctionDef, b: ast.FunctionDef) -> bool:
    return (
        len(a.params) == len(b.params)
        and all(pa.ty == pb.ty for pa, pb in zip(a.params, b.params))
        and a.return_type == b.return_type
    )


def build_miter(old: SsaProgram, new: SsaProgram) -> Formula:
    """Satisfiable iff some shared input separates the two encodings."""
    if old.builder is not new.builder:
        raise ValueError("miter sides must share one term builder")
    b = old.builder

    old_params = [s for s in old.slots if s.kind == "param"]
    new_params = [s for s in new.slots if s.kind == "param"]
    if len(old_params) != len(new_params):
        raise SignatureMismatchError("parameter counts differ")
    for so, sn in zip(old_params, new_params):
        if so.terms[0].width != sn.terms[0].width:
            raise SignatureMismatchError(f"parameter {so.name!r} type differs")
    if (old.ret is None) != (new.ret is None):
        raise SignatureMismatchError("return kinds differ")
    if old.ret is not None and old.ret.width != new.ret.width:
        raise SignatureMismatchError("return types differ")

    diffs: list[Term] = []
    if old.ret is not None:
        diffs.append(b.ne(old.ret, new.ret))

    baselines: list[Term] = []

    def final_value(side: SsaProgram, name: str, shape):
        value = side.globals_final.get(name)
        if value is not None:
            return value
        # Untouched on this side: its final value is the shared initial one.
        if isinstance(shape, tuple):
            terms = tuple(
                b.input(f"{GLOBAL_PREFIX}{name}!{i}", shape[0].width)
                for i in range(len(shape))
            )
            baselines.extend(terms)
            return terms
        term = b.input(f"{GLOBAL_PREFIX}{name}", shape.width)
        baselines.append(term)
        return term

    for name in sorted(old.globals_written | new.globals_written):
        shape = old.globals_final.get(name) or new.globals_final.get(name)
        vo = final_value(old, name, shape)
        vn = final_value(new, name, shape)
        if isinstance(vo, tuple) != isinstance(vn, tuple) or (
            isinstance(vo, tuple) and len(vo) != len(vn)
        ):
            raise SignatureMismatchError(f"global {name!r} shape differs")
        if isinstance(vo, tuple):
            diffs.extend(b.ne(x, y) for x, y in zip(vo, vn))
        else:
            if vo.width != vn.width:
                raise SignatureMismatchError(f"global {name!r} type differs")
            diffs.append(b.ne(vo, vn))

    ok_diff = b.xor(old.assertion_ok, new.assertion_ok)
    both_ok = b.and_(old.assertion_ok, new.assertion_ok)
    value_diff = b.and_(both_ok, b.any_(diffs))
    constraint = b.all_(
        [
            old.assume_ok,
            new.assume_ok,
            old.unwinding_complete,
            new.unwinding_complete,
        ]
    )
    root = b.and_(constraint, b.or_(ok_diff, value_diff))

    inputs: list[Term] = []
    seen: set[int] = set()
    for term in old.input_terms() + new.input_terms() + baselines:
        if term.uid not in seen:
            seen.add(term.uid)
            inputs.append(term)
    return Formula(b, root, tuple(inputs))


def completeness_formula(old: SsaProgram, new: SsaProgram, miter: Formula) -> Formula | None:
    """Satisfiable iff some allowed input escapes the unwinding bound."""
    b = old.builder
    uc = b.and_(old.unwinding_complete, new.unwinding_complete)
    if uc.is_const and uc.value:
        return None
    root = b.all_([old.assume_ok, new.assume_ok, b.not_(uc)])
    return Formula(b, root, miter.inputs)


def decode_witness(
    model: dict[str, int | bool],
    param_count: int,
    snaps: tuple[Snapshot, Snapshot],
) -> Witness:
    params = [model.get(f"{PARAM_PREFIX}{i}", 0) for i in range(param_count)]
    globals_vals: dict[str, int | bool | list[int]] = {}
    nondets: dict[str, int | bool] = {}
    arrays: dict[str, dict[int, int]] = {}
    for name, value in model.items():
        if name.startswith(GLOBAL_PREFIX):
            rest = name[len(GLOBAL_PREFIX) :]
            if "!" in rest:
                gname, idx = rest.rsplit("!", 1)
                arrays.setdefault(gname, {})[int(idx)] = int(value)
            else:
                globals_vals[rest] = value
        elif name.startswith(NONDET_PREFIX) and name[len(NONDET_PREFIX) :].isdigit():
            nondets[name] = value
    old_snap, new_snap = snaps
    for gname, elems in arrays.items():
        decl = new_snap.globals.get(gname) or old_snap.globals.get(gname)
        length = decl.ty.length if decl is not None else max(elems) + 1
        globals_vals[gname] = [elems.get(i, 0) for i in range(length)]
    return Witness(params, globals_vals, nondets)


def replay(
    snap: Snapshot,
    fn: ast.FunctionDef,
    prog: SsaProgram,
    witness: Witness,
    fuel: int = DEFAULT_FUEL,
) -> Observables:
    """Run fn concretely on the witness and package its observables."""
    globals_init: dict = {}
    for name, decl in snap.globals.items():
        if isinstance(decl.ty, ast.ArrayType):
            globals_init[name] = [0] * decl.ty.length
        elif isinstance(decl.ty, ast.BoolType):
            globals_init[name] = False
        else:
            globals_init[name] = 0
    for name, value in witness.globals.items():
        if name in globals_init:
            globals_init[name] = list(value) if isinstance(value, list) else value
    nondet_values = {
        (rec.span.start, rec.site_occurrence): witness.nondets[rec.name]
        for rec in prog.nondet_records
        if rec.name in witness.nondets
    }
    outcome: Outcome = run_function(
        snap, fn, list(witness.params), globals_init, nondet_values, fuel
    )
    return Observables(outcome.ok, outcome.status, outcome.ret, outcome.globals)


def observables_differ(a: Observables, b: Observables) -> bool:
    if a.ok != b.ok:
        return True
    if not a.ok:
        return False  # both trapped; nothing further is observable
    return a.ret != b.ret or a.globals != b.globals


def check_equivalence(
    old_fn: ast.FunctionDef,
    new_fn: ast.FunctionDef,
    snaps: tuple[Snapshot, Snapshot],
    cfg: UnrollConfig,
    stats: SolverStats | None = None,
    solve_fn=None,
) -> EquivalenceVerdict:
    solve = solve_fn if solve_fn is not None else sat_solve
    old_snap, new_snap = snaps

    if not _signatures_match(old_fn, new_fn):
        return NotEquivalent("signature_mismatch")

    reads = transitive_reads(old_fn, old_snap) | transitive_reads(new_fn, new_snap)
    writes = transitive_writes(old_fn, old_snap) | transitive_writes(new_fn, new_snap)
    for name in sorted(reads | writes):
        d_old = old_snap.globals.get(name)
        d_new = new_snap.globals.get(name)
        if d_old is not None and d_new is not None and d_old.ty != d_new.ty:
            return NotEquivalent("signature_mismatch")

    # Initial-state divergence is invisible to the shared-input encoding;
    # hand such pairs to the test stage instead of certifying them.
    if changed_globals(old_snap, new_snap) & reads:
        return Unknown("unsupported")

    if structural_equiv(old_fn, new_fn):
        return Equivalent("structural", 0, True)

    deadline = time.monotonic() + cfg.timeout_s
    builder = TermBuilder()
    try:
        old_ssa = encode_ssa(old_fn, old_snap, cfg, builder, True, deadline)
        new_ssa = encode_ssa(new_fn, new_snap, cfg, builder, True, deadline)
    except EncodeTimeout:
        return Unknown("timeout")
    try:
        miter = build_miter(old_ssa, new_ssa)
    except SignatureMismatchError:
        return NotEquivalent("signature_mismatch")

    result = solve(miter, deadline=deadline, stats=stats)
    if isinstance(result, Timeout):
        return Unknown("timeout")
    if isinstance(result, Unsat):
        comp = completeness_formula(old_ssa, new_ssa, miter)
        if comp is None:
            return Equivalent("formal", cfg.loop_bound, True)
        comp_result = solve(comp, deadline=deadline, stats=stats)
        complete = isinstance(comp_result, Unsat)
        return Equivalent("formal", cfg.loop_bound, complete)

    witness = decode_witness(result.model, len(old_fn.params), snaps)
    obs_old = replay(old_snap, old_fn, old_ssa, witness)
    obs_new = replay(new_snap, new_fn, new_ssa, witness)
    if not observables_differ(obs_old, obs_new):
        raise RuntimeError(
            f"internal error: witness for {old_fn.name!r}/{new_fn.name!r} "
            "does not replay to a difference"
        )
    return NotEquivalent("behavior", witness, obs_old, obs_new)
