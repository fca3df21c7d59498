"""The entry points pause the cyclic garbage collector, and that is safe.

run_pipeline, check_equivalence and verify_test run under
terms.collector_paused(). That rests on query data being acyclic, so that
reference counting frees all of it: after each entry point runs with
collection disabled, a full collection must find nothing unreachable. Each
entry point must also hand the collector back in the state it found it,
whether it returns normally, returns early, or raises.
"""

import gc

import pytest

from cfv.changes import compute_changeset
from cfv.equivalence import NotEquivalent, Unknown, check_equivalence
from cfv.errors import InputError
from cfv.harness import GeneralizedTest, load_tests
from cfv.pipeline import RunConfig, run_pipeline
from cfv.snapshot import load_snapshot, snapshot_from_sources
from cfv.solver import sat_solve
from cfv.ssa import UnrollConfig
from cfv.terms import collector_paused
from cfv.verify import verify_test

from oracles import CORPUS

# Scenario directory, width and per-item limit. The 0.2 s limit makes the
# timeout scenario's pair end Unknown(timeout).
CASES = {
    "minivec": (CORPUS / "minivec", 32, 60.0),
    "negindex": (CORPUS / "scenarios" / "negindex", 8, 60.0),
    "timeout": (CORPUS / "scenarios" / "timeout", 32, 0.2),
}


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test, whatever it did."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def entry_point_runs(case):
    """(label, thunk) for run_pipeline, each modified pair's
    check_equivalence and each test's verify_test on one scenario."""
    root, width, limit = CASES[case]
    unroll = UnrollConfig(timeout_s=limit, width=width)
    runs = [(
        "run_pipeline",
        lambda: run_pipeline(
            RunConfig(str(root / "old"), str(root / "new"), str(root / "tests"), unroll=unroll)
        ),
    )]
    old, new = load_snapshot(root / "old", width), load_snapshot(root / "new", width)
    for fn_old, fn_new in compute_changeset(old, new).modified:
        runs.append((
            f"check_equivalence {fn_new.name}",
            lambda pair=(fn_old, fn_new): check_equivalence(*pair, (old, new), unroll),
        ))
    tests, view = load_tests(root / "tests", new)
    for t in tests:
        gt = GeneralizedTest(t.name, t.body, [], manual=False)
        runs.append((f"verify_test {t.name}", lambda gt=gt: verify_test(gt, view, unroll)))
    return runs


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_points_leave_no_cyclic_garbage(case, collector_state):
    runs = entry_point_runs(case)
    gc.disable()
    gc.collect()
    results = {}
    for label, run in runs:
        results[label] = run()
        assert gc.collect() == 0, label
    if case == "timeout":
        assert results["check_equivalence mulv"] == Unknown("timeout")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["negindex", "timeout"])
def test_entry_points_restore_the_collector(case, enabled, collector_state):
    for label, run in entry_point_runs(case):
        gc.enable() if enabled else gc.disable()
        run()
        assert gc.isenabled() is enabled, label


def test_collector_is_paused_while_solving(collector_state, monkeypatch):
    seen = []

    def solve(formula, **kwargs):
        seen.append(gc.isenabled())
        return sat_solve(formula, **kwargs)

    monkeypatch.setattr("cfv.equivalence.sat_solve", solve)
    gc.enable()
    old = snapshot_from_sources({"t.c": "int f(int a){return a + 1;}"}, "old", 8)
    new = snapshot_from_sources({"t.c": "int f(int a){return a + 2;}"}, "new", 8)
    verdict = check_equivalence(
        old.functions["f"], new.functions["f"], (old, new), UnrollConfig(width=8)
    )
    assert isinstance(verdict, NotEquivalent)
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_early_exits_restore_the_collector(tmp_path, enabled, collector_state):
    gc.enable() if enabled else gc.disable()
    with pytest.raises(InputError):
        run_pipeline(RunConfig(str(tmp_path / "missing"), str(tmp_path), str(tmp_path)))
    assert gc.isenabled() is enabled

    old = snapshot_from_sources({"t.c": "int f(int a){return a;}"}, "old", 8)
    new = snapshot_from_sources({"t.c": "int f(int a, int b){return a;}"}, "new", 8)
    verdict = check_equivalence(
        old.functions["f"], new.functions["f"], (old, new), UnrollConfig(width=8)
    )
    assert verdict == NotEquivalent("signature_mismatch")
    assert gc.isenabled() is enabled

    with pytest.raises(ZeroDivisionError):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                pass
            assert not gc.isenabled()
            1 / 0
    assert gc.isenabled() is enabled
