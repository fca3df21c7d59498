"""Two-stage equivalence checking of function versions.

Stage 1 compares alpha keys and costs no solver time. Stage 2 encodes both
versions over shared inputs (positional parameters, globals by name, nondet
occurrences paired in order) and asks the solver for an input that makes
their observables differ. Observables are the return value, the final value
of every written global, and the assertion outcome; value differences only
count on inputs where both sides stay assertion-clean, since a trapped run
observes nothing beyond the trap itself. The miter compares each observable
through TermBuilder.eq, which compares two guarded update chains by the
leaves each side can select. Where both sides select the shared initial
value, that leaf comparison is true before any solving.

A NotEquivalent witness is the model read at the inputs both encodings
recorded, replayed through the reference interpreter before being reported:
one that does not reproduce a concrete difference is a bug, not a result,
and raises errors.InternalError.

A time limit, the deadline of the check's one TermBuilder, covers encoding,
building the miter, the case split, bit-blasting and solving. Each of those
stages raises errors.Timeout at the poll that finds it expired;
check_equivalence catches it in one place, the verdict is Unknown("timeout"),
and the caller treats the pair as changed. A pair whose relevant globals
changed their declared initial value is also Unknown: the input-relational
encoding compares functions over shared arbitrary states and cannot see
initial-state divergence, so such pairs go straight to testing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from cfv.changes import changed_globals, structural_equiv
from cfv.errors import InternalError, Timeout
from cfv.harness import CallGraph
from cfv.interp import Outcome, run_function, zero_globals
from cfv.minic import ast
from cfv.snapshot import Snapshot
from cfv.solver import Model, SolverStats, Unknown, sat_solve, solve_bounded
from cfv.ssa import SsaProgram, UnrollConfig, encode_ssa
from cfv.terms import Formula, Term, TermBuilder, collector_paused


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
class NotEquivalent:
    reason: str  # "behavior" or "signature_mismatch"
    witness: Witness | None = None
    # The two replays of the witness; their ok, status, ret and globals
    # are the observables.
    old_observables: Outcome | None = None
    new_observables: Outcome | None = None


EquivalenceVerdict = Equivalent | NotEquivalent | Unknown


def closure_functions(fn: ast.FunctionDef, snap: Snapshot) -> list[ast.FunctionDef]:
    """fn, one of snap's functions, plus everything it can reach through
    direct calls."""
    return [snap.functions[name] for name in sorted(CallGraph(snap).reachable(fn.name))]


def transitive_globals(fn: ast.FunctionDef, snap: Snapshot) -> tuple[set[str], set[str]]:
    """The globals fn and its callee closure read, and those they write."""
    reads: set[str] = set()
    writes: set[str] = set()
    for f in closure_functions(fn, snap):
        reads |= f.reads_globals
        writes |= f.writes_globals
    return reads, writes


def build_miter(old: SsaProgram, new: SsaProgram) -> Formula:
    """The separation of the two encodings, whose signatures and shared
    globals' types check_equivalence has compared: true on a shared input
    where exactly one side fails a check, or where both pass and an
    observable differs. solve_bounded restricts it to the inputs both sides
    assume and unwind within the bound."""
    if old.builder is not new.builder:
        raise ValueError("miter sides must share one term builder")
    b = old.builder
    b.check_deadline()

    diffs: list[Term] = []
    if old.ret is not None:
        diffs.append(b.ne(old.ret, new.ret))

    # A side that leaves a global untouched ends with its shared input,
    # which the writing side read before its guarded update.
    initial = old.global_inputs | new.global_inputs
    for name in sorted(old.globals_written.keys() | new.globals_written.keys()):
        vo = old.globals_written.get(name, initial[name])
        vn = new.globals_written.get(name, initial[name])
        if isinstance(vo, tuple):
            # Both hold the elements an index can reach (Encoder.indexable).
            diffs.extend(b.ne(x, y) for x, y in zip(vo, vn))
        else:
            diffs.append(b.ne(vo, vn))

    ok_diff = b.xor(old.assertion_ok, new.assertion_ok)
    both_ok = b.and_(old.assertion_ok, new.assertion_ok)
    value_diff = b.and_(both_ok, b.any_(diffs))
    root = b.or_(ok_diff, value_diff)
    return Formula(b, root, tuple(dict.fromkeys(old.inputs + new.inputs)))


def decode_witness(
    model: Model, old: SsaProgram, new: SsaProgram, snaps: tuple[Snapshot, Snapshot]
) -> Witness:
    """The model read at the inputs the two encodings recorded, each array
    padded to its declared length with 0: its elements past those an index
    can reach are not inputs, and 0 is what a least model gives an input
    the formula does not read."""
    declared = snaps[1].globals | snaps[0].globals

    def value(name, term):
        if isinstance(term, tuple):
            padding = [0] * (declared[name].ty.length - len(term))
            return [model[t.name] for t in term] + padding
        return model[term.name]

    return Witness(
        [model[t.name] for t in old.params],
        {name: value(name, t) for name, t in (old.global_inputs | new.global_inputs).items()},
        {rec.name: model[rec.name] for rec in old.nondet_records + new.nondet_records},
    )


def replay(
    snap: Snapshot,
    fn: ast.FunctionDef,
    prog: SsaProgram,
    witness: Witness,
) -> Outcome:
    """Run fn concretely on the witness."""
    globals_init = zero_globals(snap)
    for name, value in witness.globals.items():
        if name in globals_init:
            globals_init[name] = list(value) if isinstance(value, list) else value
    return run_function(
        snap, fn, list(witness.params), globals_init,
        prog.nondet_values(witness.nondets),
    )


def observables_differ(a: Outcome, b: Outcome) -> bool:
    if a.ok != b.ok:
        return True
    if not a.ok:
        return False  # both trapped; nothing further is observable
    return a.ret != b.ret or a.globals != b.globals


@collector_paused()
def check_equivalence(
    old_fn: ast.FunctionDef,
    new_fn: ast.FunctionDef,
    snaps: tuple[Snapshot, Snapshot],
    cfg: UnrollConfig,
    stats: SolverStats | None = None,
) -> EquivalenceVerdict:
    old_snap, new_snap = snaps

    if not ast.same_signature(old_fn, new_fn):
        return NotEquivalent("signature_mismatch")

    reads_old, writes_old = transitive_globals(old_fn, old_snap)
    reads_new, writes_new = transitive_globals(new_fn, new_snap)
    reads = reads_old | reads_new
    for name in sorted(reads | writes_old | writes_new):
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

    builder = TermBuilder(time.monotonic() + cfg.timeout_s)
    try:
        old_ssa = encode_ssa(old_fn, old_snap, cfg, builder)
        new_ssa = encode_ssa(new_fn, new_snap, cfg, builder)
        miter = build_miter(old_ssa, new_ssa)
        assume_ok = builder.and_(old_ssa.assume_ok, new_ssa.assume_ok)
        unwound = builder.and_(old_ssa.unwinding_complete, new_ssa.unwinding_complete)
        result = solve_bounded(sat_solve, miter, assume_ok, unwound, stats)
    except Timeout:
        return Unknown("timeout")
    except RecursionError:  # inlining stacks bodies each as deep as the parser allows
        return Unknown("unsupported")
    if isinstance(result, bool):
        return Equivalent("formal", cfg.loop_bound, result)

    witness = decode_witness(result.model, old_ssa, new_ssa, snaps)
    obs_old = replay(old_snap, old_fn, old_ssa, witness)
    obs_new = replay(new_snap, new_fn, new_ssa, witness)
    if not observables_differ(obs_old, obs_new):
        raise InternalError(
            f"witness for {old_fn.name!r}/{new_fn.name!r} does not replay to a difference"
        )
    return NotEquivalent("behavior", witness, obs_old, obs_new)
