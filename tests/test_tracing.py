"""The benchmark's outside-in tracer still finds every site it wraps.

cfvbench/tracing.py wraps functions by module attribute, so renaming or
moving one of them, or changing what a counter reads from its arguments or
result, only shows up in a traced benchmark run. This test installs the
tracer and runs one equivalence check and one test verification under it.
"""

import sys
from pathlib import Path

from cfv import equivalence, verify
from cfv.harness import GeneralizedTest, load_tests
from cfv.snapshot import snapshot_from_sources
from cfv.ssa import UnrollConfig

sys.path.append(str(Path(__file__).resolve().parents[1] / "cfvbench"))
import tracing  # noqa: E402

W4 = UnrollConfig(loop_bound=4, timeout_s=20, width=4)


def test_traced_checks_count_every_layer_and_close_every_span(tmp_path):
    old = snapshot_from_sources({"t.c": "int f(int a, int b){return a - b;}"}, "old", 4)
    new = snapshot_from_sources({"t.c": "int f(int a, int b){return b - a;}"}, "new", 4)
    (tmp_path / "t.c").write_text("void test_a(){int x = nondet_int(); assert(x == 0);}")
    tests, view = load_tests(tmp_path, new)
    gt = GeneralizedTest(tests[0].name, tests[0].body, [], manual=False)

    tracer = tracing.Tracer()
    tracer.install()  # raises TraceSiteMissing if a wrapped site is gone
    try:
        verdict = equivalence.check_equivalence(
            old.functions["f"], new.functions["f"], (old, new), W4
        )
        result = verify.verify_test(gt, view, W4)
    finally:
        tracer.uninstall()
    trace = tracer.finish_pass()  # raises if a span was left open

    assert isinstance(verdict, equivalence.NotEquivalent)
    assert isinstance(result, verify.Fail)
    counters = trace.counters
    assert counters["dpll.calls"] == counters["dpll.sat"] == 2
    assert counters["bitblast.cnf_vars"] > 0
    assert counters["solver.calls"] == 2 and counters["interp.replays"] == 3
    layers = {span.layer for span in trace.spans}
    assert {"equivalence.check", "verify.verify", "ssa.encode", "dpll.solve"} <= layers
