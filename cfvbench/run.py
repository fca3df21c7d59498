"""cfv benchmark: one workload, measured end to end or traced per layer.

Usage, from the repository root:

    python3 cfvbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The run sets up its inputs several times (timing each set-up), then repeats
passes over every job of the workload until `--seconds` have gone by, with
at least two passes. Every item is held to its known answer, and every pass
must give the same stripped reports. A fixed reference task is timed
between measured blocks, and end-to-end times are scaled by it to a host of
nominal speed (see calibrate.py). With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes and prints the per-layer metrics. The last line of standard output
is the result object; the line before it records the machine and the
configuration, which are also written to cfvbench/_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 7
MIN_PASSES = 2  # untraced passes with --trace 0


def fail(message: str) -> None:
    print(f"cfvbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_cfv():
    """Import cfv from this checkout's sources, and nowhere else."""
    if not (SRC / "cfv" / "__init__.py").is_file():
        fail(f"no cfv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfv

    if SRC not in Path(cfv.__file__).resolve().parents:
        fail(f"imported cfv from {cfv.__file__}, not from {SRC}")
    return cfv


IMPORT_PROBE = "import time; t = time.perf_counter(); import cfv.cli; print(time.perf_counter() - t)"


def time_import() -> float:
    """Seconds a fresh interpreter spends importing the CLI and all it pulls in."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout)


def set_up(prepare, seed: int, dest: Path) -> tuple[list, float]:
    """One set-up round: import cfv afresh, then write the inputs to dest."""
    import_s = time_import()
    t0 = time.perf_counter()
    jobs = prepare(ROOT, dest, seed)
    return jobs, import_s + time.perf_counter() - t0


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    import cfv

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cfv": cfv.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def host_scaled(wall_s: float, waited_s: float, scale: float) -> float:
    """A block's time on a host of nominal speed.

    `waited_s` is the part spent running into per-check limits: a deadline
    is wall-clock time, which no host speed shortens, so only the rest is
    scaled.
    """
    return waited_s + (wall_s - waited_s) * scale


def waited(item) -> float:
    return item.limit_s if item.timed_out else 0.0


def pass_wall_s(p) -> float:
    return host_scaled(p.wall_s, sum(map(waited, p.items)), p.host_scale)


def end_to_end(setup_s: list[float], passes: list) -> dict:
    # Every verdict of every pass is one sample. Each time is scaled by the
    # host's speed around its own pass, which takes out the host's drift.
    verdicts = [host_scaled(i.wall_s, waited(i), p.host_scale) for p in passes for i in p.items]
    items = [i for p in passes for i in p.items]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(map(pass_wall_s, passes)), "s"),
        "verdict_s.p50": (statistics.median(verdicts), "s"),
        "verdict_s.p90": (statistics.quantiles(verdicts, n=10, method="inclusive")[8], "s"),
        "decided_ratio": (sum(i.decided for i in items) / len(items), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> layer whose summed self time it reports
SELF_TIMES = {
    "minic.parse_s": "minic.parse",
    "minic.typecheck_s": "minic.typecheck",
    "snapshot.load_s": "snapshot.load",
    "changes.changeset_s": "changes.changeset",
    "harness.load_tests_s": "harness.load_tests",
    "harness.select_s": "harness.select",
    "harness.generalize_s": "harness.generalize",
    "equivalence.check_s": "equivalence.check",
    "equivalence.miter_s": "equivalence.miter",
    "ssa.encode_s": "ssa.encode",
    "bitblast.blast_s": "bitblast.blast",
    "dpll.solve_s": "dpll.solve",
    "interp.replay_s": "interp.replay",
    "verify.verify_s": "verify.verify",
    "verify.concretize_s": "verify.concretize",
    "pipeline.self_s": "pipeline",
    "report.write_s": "report.write",
}
# per-layer metric -> unit; each is a tracer counter summed over a pass
COUNTERS = {
    "minic.source_bytes": "B",
    "changes.modified": "count",
    "changes.renamed": "count",
    "changes.unchanged": "count",
    "harness.tests_selected": "count",
    "harness.tests_total": "count",
    "terms.dag_nodes": "count",
    "bitblast.cnf_vars": "count",
    "bitblast.cnf_clauses": "count",
    "dpll.calls": "count",
    "dpll.sat": "count",
    "dpll.unsat": "count",
    "dpll.timeouts": "count",
    "solver.calls": "count",
    "solver.const_skips": "count",
    "interp.replays": "count",
    "pipeline.cpu_s": "s",
}


def per_layer(untraced: list, traced: list, traces: list) -> dict:
    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for name, layer in SELF_TIMES.items():
        metrics[name] = (med(t.self_s.get(layer, 0.0) for t in traces), "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (med(t.counters.get(name, 0) for t in traces), unit)

    def solver_free(t):
        pairs = t.counters["changes.renamed"] + t.counters["equivalence.checks"]
        free = t.counters["changes.renamed"] + t.counters["equivalence.solver_free_checks"]
        return free / pairs if pairs else 0.0

    metrics["equivalence.solver_free_ratio"] = (med(map(solver_free, traces)), "1")
    metrics["pipeline.timeout_overshoot_s"] = (med(
        sum(i.wall_s - i.limit_s for i in p.items if i.timed_out) for p in untraced
    ), "s")
    metrics["trace.overhead_s"] = (
        med(map(pass_wall_s, traced)) - med(map(pass_wall_s, untraced)), "s"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cfv benchmark")
    parser.add_argument("--workload", required=True, choices=("corpus", "proofs", "scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_cfv()
    import calibrate
    import tracing
    import workloads
    from workloads import PassResult, run_pass

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH_DIR / "_work" / f"{tag}-{os.getpid()}"
    results = BENCH_DIR / "_results"
    shutil.rmtree(work, ignore_errors=True)
    prepare = workloads.WORKLOADS[args.workload]
    setup_rounds = 1 if args.trace else SETUP_ROUNDS
    try:
        inputs = work / "inputs"
        out_dir = work / "reports"
        host = calibrate.HostSpeed()
        setups = []  # (seconds, start, end) of each set-up round

        def timed_set_up(dest: Path) -> list:
            start = time.perf_counter()
            jobs, seconds = set_up(prepare, args.seed, dest)
            setups.append((seconds, start, time.perf_counter()))
            host.sample(seconds)
            return jobs

        def timed_pass(passes: list) -> None:
            start = time.perf_counter()
            passes.append(run_pass(jobs, inputs, out_dir))
            passes[-1].span = (start, time.perf_counter())
            host.sample(passes[-1].wall_s)

        jobs = timed_set_up(inputs)
        out_dir.mkdir(parents=True)

        tracer = tracing.Tracer() if args.trace else None
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        traces = []
        start = time.perf_counter()
        while True:
            timed_pass(untraced)
            if tracer is not None:
                tracer.install()
                try:
                    tracer.begin_pass()
                    timed_pass(traced)
                finally:
                    tracer.uninstall()
                traces.append(tracer.finish_pass())
            rounds = len(untraced)
            elapsed = time.perf_counter() - start
            # The machine's speed drifts over seconds, so the remaining
            # set-up rounds are spread over the run instead of taken at once.
            due = 1 + int(elapsed / args.seconds * (setup_rounds - 1))
            while len(setups) < min(due, setup_rounds):
                timed_set_up(work / f"setup{len(setups)}")
            # At least MIN_PASSES, unless passes alone outlast --seconds.
            enough = tracer or rounds >= MIN_PASSES or elapsed >= args.seconds
            if enough and elapsed * (rounds + 1) / rounds > args.seconds:
                break
        while len(setups) < setup_rounds:
            timed_set_up(work / f"setup{len(setups)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    passes = untraced + traced
    for p in passes:
        p.host_scale = host.scale(*p.span)
    raw_setup_s = [seconds for seconds, _, _ in setups]
    setup_s = [seconds * host.scale(start, end) for seconds, start, end in setups]
    problems = sorted({p for r in passes for p in r.problems})
    first = passes[0].fingerprints
    nondeterministic = sorted({
        name for r in passes[1:] for name, fp in r.fingerprints.items() if fp != first.get(name)
    })
    if nondeterministic:
        problems.append("stripped reports differ between passes: " + ", ".join(nondeterministic))
    for problem in problems:
        print(f"cfvbench: {problem}", file=sys.stderr)
    items = [i for r in passes for i in r.items]
    failed = sum(i.failed for i in items)

    metrics = per_layer(untraced, traced, traces) if tracer else end_to_end(setup_s, untraced)
    record = {
        "machine": machine(),
        "config": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_rounds": setup_rounds,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "jobs": {job.name: job.config() for job in jobs},
        },
        "pass_wall_s": {"untraced": [p.wall_s for p in untraced],
                        "traced": [p.wall_s for p in traced]},
        "pass_host_scale": {"untraced": [p.host_scale for p in untraced],
                            "traced": [p.host_scale for p in traced]},
        "reference_s": [s for _, _, s in host.samples],
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "item_wall_s": [{i.name: i.wall_s for i in p.items} for p in untraced],
        "problems": problems,
    }
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {**record, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=2) + "\n")
    if tracer:
        tracing.write_spans(results / f"{tag}-spans.jsonl", traces)

    unscaled = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "setup_s": statistics.median(raw_setup_s),
        "reference_s": statistics.median(s for _, _, s in host.samples),
        "nominal_reference_s": calibrate.NOMINAL_S,
    }
    print(json.dumps({"machine": record["machine"], "config": record["config"],
                      "unscaled": unscaled}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
