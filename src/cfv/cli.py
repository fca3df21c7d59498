"""Command line interface.

Subcommands:
  analyze     full pipeline over two snapshots and a test directory
  diff        change classification only
  equiv       equivalence verdict for one function across two files
  complexity  cyclomatic complexity per function of a directory
  verify      bounded model checking of every test against one snapshot

Diagnostics print as path:line:col: error: message on stderr. Exit
codes: 0 clean, 1 failing test (or non-equivalent for `equiv`), 2 unknown
results, 3 bad configuration (usage errors included) or unparseable input,
4 an internal error in cfv (a result that does not replay), printed as one
`error: internal: ...` line.

`main` owns the stack: the parser, the type checker, the encoder and the
interpreter recurse once per nesting level, and inlining a call stacks one
body on another, so each command runs on a worker thread with a deep stack
and a raised recursion limit.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

import cfv
from cfv.changes import compute_changeset
from cfv.equivalence import Equivalent, NotEquivalent, check_equivalence
from cfv.errors import ConfigError, InputError, InternalError
from cfv.harness import GeneralizedTest, load_tests
from cfv.interp import MAX_CALL_DEPTH
from cfv.minic.metrics import cyclomatic_complexity
from cfv.pipeline import RunConfig, run_pipeline
from cfv.report import exit_code, witness_json
from cfv.snapshot import (
    VALID_WIDTHS,
    load_snapshot,
    load_snapshot_from_diff,
    read_source,
    snapshot_from_sources,
    under,
)
from cfv.ssa import UnrollConfig
from cfv.verify import Fail, Pass, verify_test

# The worker's stack and recursion limit. A tree at the parser's bound needs
# about 4,000 frames; the rest is for inlining, and a check whose calls
# still run past the limit is decided unknown (unsupported). Recursing to
# the limit through C calls, as `==` on the syntax tree does, takes about
# 110 MB of the 1 GiB stack, and a stack costs only the memory it touches.
STACK_SIZE = 1 << 30
RECURSION_LIMIT = 200_000


def _unroll_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bound", type=int, default=8, metavar="K", help=f"unwinding bound: loops unroll at most K times, and calls inline at most min(K, {MAX_CALL_DEPTH - 1}) deep (default 8)")
    parser.add_argument("--width", type=int, default=32, metavar="W", choices=VALID_WIDTHS, help="integer width in bits (default 32)")
    parser.add_argument("--timeout", type=float, default=60.0, metavar="S", help="time limit in seconds for each equivalence pair and each test (default 60)")


def _new_or_diff(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--new", metavar="DIR")
    group.add_argument("--diff", metavar="FILE", help="unified diff applied to --old instead of --new")


def _unroll_from(args) -> UnrollConfig:
    try:
        return UnrollConfig(
            loop_bound=args.bound,
            timeout_s=args.timeout,
            width=args.width,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error, as on any other bad configuration."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfv",
        description="Change-focused bounded verification for a small C subset.",
    )
    parser.add_argument("--version", action="version", version=f"cfv {cfv.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline", description="Run the full pipeline. Every query is decided in-process: by cases when its own bounds confine an input to a few values, by simulating the bit-blasted circuit when it has few input bits, and otherwise by cfv's own SAT core; no external solver is started.")
    p.add_argument("--old", required=True, metavar="DIR")
    _new_or_diff(p)
    p.add_argument("--tests", required=True, metavar="DIR")
    p.add_argument("--budget", type=float, default=300.0, metavar="S", help="wall-clock budget of the whole run in seconds; equivalence checks stop at half of it, and an item left with under 0.05 s is reported unknown (default 300)")
    p.add_argument("--out", required=True, metavar="FILE")
    _unroll_args(p)

    p = sub.add_parser("diff", help="classify function-level changes")
    p.add_argument("--old", required=True, metavar="DIR")
    _new_or_diff(p)

    p = sub.add_parser("equiv", help="check one function across two files")
    p.add_argument("old_file", metavar="OLDFILE")
    p.add_argument("new_file", metavar="NEWFILE")
    p.add_argument("function", metavar="FUNC")
    _unroll_args(p)

    p = sub.add_parser("complexity", help="cyclomatic complexity per function")
    p.add_argument("directory", metavar="DIR")

    p = sub.add_parser("verify", help="model-check every test against a snapshot")
    p.add_argument("--tests", required=True, metavar="DIR")
    p.add_argument("--src", required=True, metavar="DIR")
    _unroll_args(p)
    return parser


def cmd_analyze(args) -> int:
    cfg = RunConfig(
        old_dir=args.old,
        new_dir=args.new,
        tests_dir=args.tests,
        out_path=args.out,
        budget_s=args.budget,
        unroll=_unroll_from(args),
        diff_path=args.diff,
    )
    report = run_pipeline(cfg)
    counts = report["changes"]["counts"]
    print(
        "changes: "
        + ", ".join(f"{counts[k]} {k}" for k in ("modified", "renamed", "added", "removed", "unchanged"))
    )
    for entry in report["equivalence"]:
        verdict = entry["verdict"]
        detail = verdict.get("mode") or verdict.get("reason") or ""
        print(f"equivalence: {entry['function']}: {verdict['kind']} {detail}".rstrip())
    for entry in report["selection"]["selected"]:
        print(f"selected: {entry['test']} (triggers: {', '.join(entry['triggers'])})")
    for entry in report["verification"]:
        print(f"verify: {entry['test']}: {entry['result']['kind']}")
    totals = report["totals"]
    print(
        f"totals: {totals['equivalent']} equivalent, {totals['not_equivalent']} not_equivalent, "
        f"{totals['unknown']} unknown, {totals['pass']} pass, {totals['fail']} fail"
    )
    if report["budget"]["exceeded"]:
        print("budget exceeded", file=sys.stderr)
    print(f"report written to {args.out}")
    return exit_code(report)


def cmd_diff(args) -> int:
    old_snap = load_snapshot(args.old)
    if args.diff is not None:
        new_snap = load_snapshot_from_diff(old_snap, args.diff)
    else:
        new_snap = load_snapshot(args.new, base=old_snap)
    cs = compute_changeset(old_snap, new_snap)
    for name in cs.unchanged:
        print(f"unchanged: {name}")
    for old, new in cs.renamed:
        print(f"renamed: {old} -> {new}")
    for name in sorted(cs.modified_names):
        tag = " (initial state)" if name in cs.state_affected else ""
        print(f"modified: {name}{tag}")
    for name in cs.added:
        print(f"added: {name}")
    for name in cs.removed:
        print(f"removed: {name}")
    return 0


def _file_snapshot(path: Path, width: int, base=None):
    """One file as a snapshot, loaded against base when given; diagnostics
    carry the path as given."""
    source = read_source(path)
    try:
        return snapshot_from_sources({path.name: source}, path.name, width, base)
    except InputError as err:
        raise under(path.parent, err) from None


def cmd_equiv(args) -> int:
    width = args.width
    old_path, new_path = Path(args.old_file), Path(args.new_file)
    old_snap = _file_snapshot(old_path, width)
    new_snap = _file_snapshot(new_path, width, old_snap)
    name = args.function
    for snap, path in ((old_snap, old_path), (new_snap, new_path)):
        if name not in snap.functions:
            print(f"{path}:1:1: error: no function {name!r}", file=sys.stderr)
            return 3
    verdict = check_equivalence(
        old_snap.functions[name],
        new_snap.functions[name],
        (old_snap, new_snap),
        _unroll_from(args),
    )
    if isinstance(verdict, Equivalent):
        extra = "" if verdict.complete else " (within bound only)"
        print(f"equivalent ({verdict.mode}){extra}")
        return 0
    if isinstance(verdict, NotEquivalent):
        print(f"not equivalent ({verdict.reason})")
        if verdict.witness is not None:
            print(f"witness: {witness_json(verdict.witness, width)}")
        return 1
    print(f"unknown ({verdict.reason})")
    return 2


def cmd_complexity(args) -> int:
    snap = load_snapshot(args.directory)
    total = 0
    rows = []
    for unit in snap.units:
        for fn in unit.functions:
            value = cyclomatic_complexity(fn)
            total += value
            rows.append((unit.path, fn.name, value))
    for path, name, value in sorted(rows):
        print(f"{path}:{name}: {value}")
    print(f"total: {total}")
    return 0


def cmd_verify(args) -> int:
    snap = load_snapshot(args.src, args.width)
    tests, view = load_tests(args.tests, snap)
    cfg = _unroll_from(args)
    # Where each function of the view was read from; names are unique.
    files = {fn.name: Path(args.tests) / u.path for u in view.units for fn in u.functions}
    files.update({fn.name: Path(args.src) / u.path for u in snap.units for fn in u.functions})
    any_fail = False
    any_unknown = False
    for t in tests:
        gt = GeneralizedTest(t.name, t.body, [], manual=False)
        result = verify_test(gt, view, cfg)
        if isinstance(result, Pass):
            extra = "" if result.complete else " (within bound only)"
            print(f"{t.name}: pass{extra}")
        elif isinstance(result, Fail):
            any_fail = True
            cx = result.counterexample
            span = cx.failing_assert
            print(f"{t.name}: fail at {files[cx.function]}:{span.line}:{span.col}")
        else:
            any_unknown = True
            print(f"{t.name}: unknown ({result.reason})")
    return 1 if any_fail else (2 if any_unknown else 0)


def _run(args) -> int:
    handlers = {
        "analyze": cmd_analyze,
        "diff": cmd_diff,
        "equiv": cmd_equiv,
        "complexity": cmd_complexity,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InputError as err:
        for diag in err.diagnostics:
            print(diag, file=sys.stderr)
        return 3
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except InternalError as err:
        print(f"error: internal: {err}", file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    """Run one cfv command line and return its exit code.

    The arguments are parsed on the calling thread, so a usage error exits
    from there. The command runs on one worker thread with a STACK_SIZE
    stack under a recursion limit of RECURSION_LIMIT; both settings are
    restored before `main` returns, and an exception the command raises is
    raised again here.
    """
    args = build_parser().parse_args(argv)
    outcome: list = []

    def run() -> None:
        try:
            outcome.append(_run(args))
        except BaseException as err:  # raised again on the calling thread
            outcome.append(err)

    # A daemon, so that an interrupt on the calling thread ends the process.
    worker = threading.Thread(target=run, daemon=True)
    limit = sys.getrecursionlimit()
    size = threading.stack_size(STACK_SIZE)
    sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        worker.start()
        worker.join()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


if __name__ == "__main__":
    sys.exit(main())
