import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cfv
from cfv import cli, pipeline
from cfv.cli import build_parser, main
from cfv.errors import ConfigError
from cfv.interp import Outcome
from cfv.minic.lexer import UNSUPPORTED_OPERATORS
from cfv.pipeline import EQUIVALENCE_BUDGET_FRACTION, MIN_ITEM_S, RunConfig, run_pipeline
from cfv.report import exit_code, render_report, strip_timings
from cfv.ssa import UnrollConfig
from generators import minivec_sources
from oracles import CORPUS

LIB_OLD = """
int total = 0;

int add(int a, int b) { return a + b; }

void accumulate(int x) { total = total + x; }

int triple(int x) { return x + x + x; }
"""

LIB_NEW_EQUIV = LIB_OLD.replace("x + x + x", "x * 3")

LIB_NEW_BROKEN = LIB_OLD.replace("total + x", "total + x + 1")

# Four equivalent rewrites that no width-32 check proves within a second, so
# each one spends whatever limit it is given.
HARD_KS = (3, 5, 7, 9)
HARD_OLD = "".join(f"int m{k}(int a, int b) {{ return (a + {k}) * b; }}\n" for k in HARD_KS)
HARD_NEW = "".join(f"int m{k}(int a, int b) {{ return a * b + {k} * b; }}\n" for k in HARD_KS)
HARD_TESTS = "".join(
    f"void test_m{k}() {{ assert(m{k}(2, 3) == {(2 + k) * 3}); }}\n" for k in HARD_KS
)

# f(n) nests n + 1 calls.
RECURSE = "int f(int n){ if (n <= 0) { return 0; } return f(n - 1) + 1; }\n"

TESTS = """
// addition basics
void test_add() {
    assert(add(2, 3) == 5);
}

// accumulate updates the total
void test_accumulate() {
    accumulate(4);
    accumulate(1);
    assert(total == 5);
}

// tripling
void test_triple() {
    int x = 3;
    assert(triple(x) == 9);
}
"""


def write_tree(tmp_path: Path, old_src: str, new_src: str, tests_src: str):
    for name, src in (("old", old_src), ("new", new_src)):
        d = tmp_path / name
        d.mkdir(exist_ok=True)
        (d / "lib.c").write_text(src)
    tests = tmp_path / "tests"
    tests.mkdir(exist_ok=True)
    (tests / "t.c").write_text(tests_src)
    return tmp_path


def python_dash_m(*argv: str) -> subprocess.CompletedProcess:
    """`python -m cfv *argv` in a fresh interpreter that imports this cfv."""
    src = str(Path(cfv.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "cfv", *argv], env=env, capture_output=True, text=True, timeout=60
    )


def base_config(tmp_path: Path, **kw) -> RunConfig:
    defaults = dict(
        old_dir=str(tmp_path / "old"),
        new_dir=str(tmp_path / "new"),
        tests_dir=str(tmp_path / "tests"),
        out_path=str(tmp_path / "report.json"),
        unroll=UnrollConfig(loop_bound=4, timeout_s=20, width=8),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestPipeline:
    def test_identical_snapshots_run_nothing(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        report = run_pipeline(base_config(tmp_path))
        assert report["changes"]["counts"]["unchanged"] == 3
        assert report["equivalence"] == []
        assert report["selection"]["selected"] == []
        assert report["totals"]["solver_calls"] == 0
        assert exit_code(report) == 0

    @pytest.mark.parametrize("bound, depth", [(130, 99), (8, 8)])
    def test_inline_depth_is_the_depth_calls_inline_to(self, tmp_path, bound, depth):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        unroll = UnrollConfig(loop_bound=bound, timeout_s=20, width=8)
        report = run_pipeline(base_config(tmp_path, unroll=unroll))
        assert report["config"]["inline_depth"] == depth

    def test_equivalent_rewrite_selects_no_tests(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_EQUIV, TESTS)
        report = run_pipeline(base_config(tmp_path))
        assert report["changes"]["modified"] == ["triple"]
        (entry,) = report["equivalence"]
        assert entry["verdict"]["kind"] == "equivalent"
        assert entry["verdict"]["mode"] == "formal"
        assert report["selection"]["selected"] == []
        assert exit_code(report) == 0

    def test_behavior_change_selects_and_fails(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        report = run_pipeline(base_config(tmp_path))
        (entry,) = report["equivalence"]
        assert entry["verdict"]["kind"] == "not_equivalent"
        assert report["selection"]["triggers"] == ["accumulate"]
        assert [s["test"] for s in report["selection"]["selected"]] == [
            "test_accumulate"
        ]
        (ver,) = report["verification"]
        assert ver["result"]["kind"] == "fail"
        cx = ver["result"]["counterexample"]
        assert cx["concretized_source"] is not None
        assert exit_code(report) == 1

    def test_a_concretized_test_that_passes_is_not_reported(self, tmp_path):
        # The nondet site in the loop fails at its second occurrence only;
        # given its first value, the plain test passes on the new snapshot.
        write_tree(
            tmp_path,
            "int step(int x) { return x + 1; }\n",
            "int step(int x) { if (x == 3) { return 0; } return x + 1; }\n",
            "void test_loop() { int i = 0; while (i < 2) { int v = nondet_int();"
            " assume(v >= 0 && v < 5); if (i == 1) { assert(step(v) == v + 1); }"
            " i = i + 1; } }\n",
        )
        report = run_pipeline(base_config(tmp_path))
        (ver,) = report["verification"]
        assert ver["result"]["kind"] == "fail"
        cx = ver["result"]["counterexample"]
        assert cx["valuation"] == {"n0": 0, "n1": 3}
        assert cx["concretized_source"] is None
        assert exit_code(report) == 1

    def test_tiny_budget_marks_everything_unknown(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        report = run_pipeline(base_config(tmp_path, budget_s=0.001))
        (entry,) = report["equivalence"]
        assert entry["verdict"] == {"kind": "unknown", "reason": "timeout"}
        assert report["budget"]["exceeded"] is True
        # unknown equivalence still triggers selection, then the budget is
        # already gone, so the test lands as unknown too
        assert [s["test"] for s in report["selection"]["selected"]] == [
            "test_accumulate"
        ]
        (ver,) = report["verification"]
        assert ver["result"] == {"kind": "unknown", "reason": "timeout"}
        assert exit_code(report) == 2

    def test_a_renamed_pair_is_an_item_like_a_modified_one(self, tmp_path):
        """The structural stage decides it without a solver call, and with
        less than MIN_ITEM_S left it is not run."""
        new = LIB_OLD.replace("triple", "thrice")
        write_tree(tmp_path, LIB_OLD, new, "void test_add(){ assert(add(2, 3) == 5); }\n")
        report = run_pipeline(base_config(tmp_path))
        (entry,) = report["equivalence"]
        assert (entry["old_name"], entry["new_name"]) == ("triple", "thrice")
        assert entry["verdict"] == {
            "kind": "equivalent", "mode": "structural", "bound": 0, "complete": True
        }
        assert entry["solver_calls"] == 0
        report = run_pipeline(base_config(tmp_path, budget_s=0.8 * MIN_ITEM_S))
        (entry,) = report["equivalence"]
        assert entry["verdict"] == {"kind": "unknown", "reason": "timeout"}
        assert report["budget"]["exceeded"] is True

    def test_no_item_starts_with_less_than_the_floor_left(self, tmp_path):
        # This budget never leaves MIN_ITEM_S to either phase, however fast
        # the files load, so no item may start with its limit raised to it.
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        report = run_pipeline(base_config(tmp_path, budget_s=0.8 * MIN_ITEM_S))
        unknown = {"kind": "unknown", "reason": "timeout"}
        assert [e["verdict"] for e in report["equivalence"]] == [unknown]
        assert [v["result"] for v in report["verification"]] == [unknown]
        assert report["totals"]["solver_calls"] == 0

    def test_budget_bounds_a_run_of_hard_pairs(self, tmp_path):
        write_tree(tmp_path, HARD_OLD, HARD_NEW, HARD_TESTS)
        cfg = base_config(
            tmp_path, budget_s=2.0, unroll=UnrollConfig(timeout_s=1.5, width=32)
        )
        t0 = time.monotonic()
        report = run_pipeline(cfg)
        assert time.monotonic() - t0 <= cfg.budget_s + 0.5
        assert report["budget"]["exceeded"] is True

    def test_budget_bounds_a_run_with_a_large_miter(self, tmp_path):
        # vec_insert's miter over a 32-element buffer unrolled 32 times
        # takes longer to build than this budget.
        for side, src in minivec_sources(32).items():
            (tmp_path / side).mkdir()
            (tmp_path / side / "vec.c").write_text(src)
        tests = CORPUS / "minivec" / "tests"
        t0 = time.monotonic()
        main([
            "analyze", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new"),
            "--tests", str(tests), "--out", str(tmp_path / "r.json"),
            "--width", "8", "--bound", "32", "--budget", "0.5",
        ])
        assert time.monotonic() - t0 <= 0.5 + 0.15
        report = json.loads((tmp_path / "r.json").read_text())
        verdicts = {e["function"]: e["verdict"] for e in report["equivalence"]}
        assert verdicts["vec_insert"] == {"kind": "unknown", "reason": "timeout"}

    @pytest.mark.parametrize(
        "sources, budget_s",
        [((HARD_OLD, HARD_NEW, HARD_TESTS), 2.0), ((LIB_OLD, LIB_NEW_BROKEN, TESTS), 60.0)],
        ids=["hard-pairs", "large-budget"],
    )
    def test_no_item_gets_more_than_its_timeout_or_its_phase_left(
        self, tmp_path, monkeypatch, sources, budget_s
    ):
        write_tree(tmp_path, *sources)
        cfg = base_config(
            tmp_path, budget_s=budget_s, unroll=UnrollConfig(timeout_s=1.5, width=32)
        )
        # The run starts before its first load, and each item reads its
        # deadline after the previous item has returned.
        marks: dict[str, float] = {}
        limits = []

        def stamp(phase, real):
            def wrapper(*args, **kwargs):
                if phase is None:
                    marks.setdefault("start", time.monotonic())
                else:
                    unroll = next(a for a in args if isinstance(a, UnrollConfig))
                    limits.append((phase, unroll.timeout_s, marks["last"]))
                try:
                    return real(*args, **kwargs)
                finally:
                    marks["last"] = time.monotonic()

            return wrapper

        monkeypatch.setattr(pipeline, "load_snapshot", stamp(None, pipeline.load_snapshot))
        for phase, name in (("equivalence", "check_equivalence"), ("verification", "verify_test")):
            monkeypatch.setattr(pipeline, name, stamp(phase, getattr(pipeline, name)))
        run_pipeline(cfg)
        deadlines = {
            "equivalence": marks["start"] + budget_s * EQUIVALENCE_BUDGET_FRACTION,
            "verification": marks["start"] + budget_s,
        }
        for phase, limit, not_before in limits:
            assert limit <= cfg.unroll.timeout_s
            assert limit <= deadlines[phase] - not_before
        assert {phase for phase, _, _ in limits} == set(deadlines)

    def test_report_totals_match_entries(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        report = run_pipeline(base_config(tmp_path))
        eq_kinds = [e["verdict"]["kind"] for e in report["equivalence"]]
        v_kinds = [e["result"]["kind"] for e in report["verification"]]
        totals = report["totals"]
        assert totals["equivalent"] == eq_kinds.count("equivalent")
        assert totals["not_equivalent"] == eq_kinds.count("not_equivalent")
        assert totals["pass"] == v_kinds.count("pass")
        assert totals["fail"] == v_kinds.count("fail")
        assert totals["unknown"] == eq_kinds.count("unknown") + v_kinds.count("unknown")

    def test_report_written_atomically(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.out_path)
        assert out.exists()
        assert not out.with_name(out.name + ".tmp").exists()
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1

    def test_deterministic_outside_timings(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        r1 = run_pipeline(base_config(tmp_path))
        r2 = run_pipeline(base_config(tmp_path))
        assert json.dumps(strip_timings(r1)) == json.dumps(strip_timings(r2))
        assert r1 != strip_timings(r1)  # timings are actually present

    def test_diff_based_new_snapshot(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        diff = tmp_path / "change.diff"
        diff.write_text(
            "--- a/lib.c\n"
            "+++ b/lib.c\n"
            "@@ -6,1 +6,1 @@\n"
            "-void accumulate(int x) { total = total + x; }\n"
            "+void accumulate(int x) { total = total + x + 1; }\n"
        )
        cfg = base_config(tmp_path, new_dir=None, diff_path=str(diff))
        report = run_pipeline(cfg)
        assert report["changes"]["modified"] == ["accumulate"]
        assert exit_code(report) == 1

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            base_config(tmp_path, budget_s=0)
        with pytest.raises(ConfigError):
            base_config(tmp_path, budget_s=float("nan"))
        with pytest.raises(ConfigError):
            base_config(tmp_path, budget_s=math.inf)
        with pytest.raises(ConfigError):
            RunConfig(old_dir="x", new_dir=None, tests_dir="y")
        with pytest.raises(ConfigError):  # the diff would silently win
            base_config(tmp_path, diff_path=str(tmp_path / "change.diff"))

    def test_a_non_finite_value_is_not_rendered(self):
        # JSON has no literal for infinity or NaN.
        assert render_report({"budget_s": 1.5}) == '{\n  "budget_s": 1.5\n}\n'
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError):
                render_report({"budget_s": value})


class TestCli:
    def test_analyze_and_exit_codes(self, tmp_path, capsys):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--old", str(tmp_path / "old"),
                "--new", str(tmp_path / "new"),
                "--tests", str(tmp_path / "tests"),
                "--width", "8",
                "--out", str(out),
            ]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "not_equivalent" in printed
        assert out.exists()

    def test_analyze_clean_exit_zero(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        code = main(
            [
                "analyze",
                "--old", str(tmp_path / "old"),
                "--new", str(tmp_path / "new"),
                "--tests", str(tmp_path / "tests"),
                "--width", "8",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0

    def test_a_report_that_cannot_replace_its_target_leaves_no_file(self, tmp_path):
        # os.replace cannot put a file over a directory: the run fails and
        # the complete report written beside it is removed.
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        out = tmp_path / "taken"
        out.mkdir()
        code = main(
            [
                "analyze",
                "--old", str(tmp_path / "old"),
                "--new", str(tmp_path / "new"),
                "--tests", str(tmp_path / "tests"),
                "--width", "8",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "old", "taken", "tests"]
        assert not any(out.iterdir())

    def test_diff_subcommand(self, tmp_path, capsys):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_EQUIV, TESTS)
        code = main(
            ["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modified: triple" in out
        assert "unchanged: add" in out

    def test_equiv_subcommand(self, tmp_path, capsys):
        (tmp_path / "a.c").write_text("int f(int x){return x + x;}")
        (tmp_path / "b.c").write_text("int f(int x){return x * 2;}")
        (tmp_path / "c.c").write_text("int f(int x){return x * 3;}")
        assert main(["equiv", str(tmp_path / "a.c"), str(tmp_path / "b.c"), "f", "--width", "8"]) == 0
        assert "equivalent" in capsys.readouterr().out
        assert main(["equiv", str(tmp_path / "a.c"), str(tmp_path / "c.c"), "f", "--width", "8"]) == 1
        assert "witness" in capsys.readouterr().out
        assert main(["equiv", str(tmp_path / "a.c"), str(tmp_path / "b.c"), "nope"]) == 3

    @pytest.mark.parametrize(
        "old_src, new_src",
        [
            ("int p0 = 5; int f(int a) { return p0; }", "int f(int p0) { return p0; }"),
            ("int v0 = 1; int f() { int t = 1; return v0; }", "int f() { int v0 = 1; return v0; }"),
        ],
        ids=["global-p0", "global-v0"],
    )
    def test_equiv_tells_a_global_from_a_renamed_local(self, tmp_path, capsys, old_src, new_src):
        (tmp_path / "a.c").write_text(old_src)
        (tmp_path / "b.c").write_text(new_src)
        assert main(["equiv", str(tmp_path / "a.c"), str(tmp_path / "b.c"), "f"]) == 1
        assert "not equivalent (behavior)" in capsys.readouterr().out

    def test_diff_tells_a_global_from_a_renamed_parameter(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            "int p0 = 5; int g(int a) { return p0; }\n",
            "int p0 = 5; int h(int p0) { return p0; }\n",
            TESTS,
        )
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "removed: g" in out and "added: h" in out
        assert not any(line.startswith("renamed") for line in out)

    def test_inlining_past_the_stack_is_unsupported(self, tmp_path, capsys, monkeypatch):
        """Each body is within the parser's bound, but inlining a recursive
        call stacks several of them, and past the recursion limit the check
        is unsupported. The CLI's limit decides this pair, so it is lowered
        to Python's default, which the parser and the type checker stay under
        at this nesting."""
        monkeypatch.setattr(cli, "RECURSION_LIMIT", 1_000)
        nest = 100
        body = f"{'if (n > 0) { ' * nest}r = f(n - 1) + 1;{' }' * nest}"
        old = f"int f(int n) {{ int r = 0; {body} return r; }}\n"
        new = old.replace("int r = 0;", "int r = 0; if (n == 3) { r = 9; }")
        write_tree(tmp_path, old, new, "void test_f() { assert(f(3) == 3); }\n")
        a, b = str(tmp_path / "old" / "lib.c"), str(tmp_path / "new" / "lib.c")
        assert main(["equiv", a, b, "f"]) == 2
        assert "unknown (unsupported)" in capsys.readouterr().out
        argv = ["verify", "--tests", str(tmp_path / "tests"), "--src", str(tmp_path / "old")]
        assert main(argv) == 2
        assert "test_f: unknown (unsupported)" in capsys.readouterr().out

    def test_equiv_decides_recursion_at_bound_99(self, tmp_path, capsys):
        """99 inlined calls of a recursive body need far more than Python's
        default of 1,000 frames; the CLI's stack takes them."""
        old = "int f(int x){ if (x > 0) { if (x > 0) { return f(x - 1) + 1; } } return 0; }\n"
        write_tree(tmp_path, old, old.replace("return 0;", "return 1;"), TESTS)
        a, b = str(tmp_path / "old" / "lib.c"), str(tmp_path / "new" / "lib.c")
        assert main(["equiv", a, b, "f", "--bound", "99", "--width", "8"]) == 1
        assert capsys.readouterr().out.startswith("not equivalent (behavior)\n")

    def test_verify_decides_recursion_at_bound_99(self, tmp_path, capsys):
        lib = (
            "int f(int x){ if (x > 0) { return ((((f(x - 1) + 1) + 1) + 1) - 3) + 1; }"
            " return 0; }\n"
        )
        test = (
            "void test_a(){ int v = nondet_int(); assume(v > 90); assume(v < 100);"
            " assert(f(v) < 95); }\n"
        )
        write_tree(tmp_path, lib, lib, test)
        argv = ["verify", "--tests", str(tmp_path / "tests"), "--src", str(tmp_path / "old")]
        assert main(argv + ["--bound", "99", "--width", "16"]) == 1
        assert "test_a: fail at" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "check, printed, code",
        [
            ("f(98) == 99", "fail at", 1),
            ("f(99) == 100", "pass (within bound only)", 0),
            ("f(120) == 121", "pass (within bound only)", 0),
        ],
    )
    def test_calls_inline_no_deeper_than_the_interpreter_replays(
        self, tmp_path, capsys, check, printed, code
    ):
        """The interpreter counts the test as one call and follows at most
        99 nested ones, so a bound past that still inlines 99 deep: f(98)
        nests 99 calls, f(99) one more."""
        write_tree(tmp_path, RECURSE, RECURSE, f"void test_x(){{ assert({check}); }}\n")
        argv = ["verify", "--tests", str(tmp_path / "tests"), "--src", str(tmp_path / "old")]
        assert main(argv + ["--bound", "130", "--width", "8"]) == code
        assert f"test_x: {printed}" in capsys.readouterr().out

    def test_equiv_inlines_no_deeper_than_the_interpreter_replays(self, tmp_path, capsys):
        new = RECURSE.replace("{ if", "{ if (n == 120) { return 7; } if")
        write_tree(tmp_path, RECURSE, new, TESTS)
        a, b = str(tmp_path / "old" / "lib.c"), str(tmp_path / "new" / "lib.c")
        assert main(["equiv", a, b, "f", "--bound", "130", "--width", "8"]) == 0
        assert capsys.readouterr().out == "equivalent (formal) (within bound only)\n"

    @pytest.mark.parametrize("command", ["verify", "equiv", "analyze"])
    def test_a_result_that_does_not_replay_exits_four(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """A model or witness the interpreter does not reproduce is a bug in
        cfv: one `error: internal:` line and exit 4, never a traceback."""
        def replay_agrees(*args, **kwargs):
            return Outcome("ok")

        monkeypatch.setattr("cfv.verify.run_function", replay_agrees)
        monkeypatch.setattr("cfv.equivalence.run_function", replay_agrees)
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        old, new, tests = (str(tmp_path / name) for name in ("old", "new", "tests"))
        argv = {
            "verify": ["verify", "--tests", tests, "--src", new],
            "equiv": ["equiv", f"{old}/lib.c", f"{new}/lib.c", "accumulate"],
            "analyze": ["analyze", "--old", old, "--new", new, "--tests", tests,
                        "--out", str(tmp_path / "r.json")],
        }[command]
        assert main(argv + ["--width", "8"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: internal: ") and err.count("\n") == 1

    def test_diff_rejects_a_c_keyword_outside_the_subset(self, tmp_path, capsys):
        broken = LIB_OLD.replace("return a + b;", "while (true) { break; } return a + b;")
        write_tree(tmp_path, LIB_OLD, broken, TESTS)
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 3
        err = capsys.readouterr().err
        assert err == f"{tmp_path / 'new' / 'lib.c'}:4:40: error: 'break' is outside the subset\n"

    def test_complexity_subcommand(self, tmp_path, capsys):
        d = tmp_path / "src"
        d.mkdir()
        (d / "a.c").write_text(
            "int f(int x){return x;}\n"
            "int g(int x){if (x > 0 && x < 4) { while (x > 1) { x = x - 1; } } return x;}\n"
        )
        assert main(["complexity", str(d)]) == 0
        out = capsys.readouterr().out
        assert "a.c:f: 1" in out
        assert "a.c:g: 4" in out
        assert "total: 5" in out

    def test_verify_subcommand(self, tmp_path, capsys):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        code = main(
            [
                "verify",
                "--tests", str(tmp_path / "tests"),
                "--src", str(tmp_path / "old"),
                "--width", "8",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.count("pass") == 3

    def test_verify_subcommand_catches_failures(self, tmp_path, capsys):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_BROKEN, TESTS)
        code = main(
            [
                "verify",
                "--tests", str(tmp_path / "tests"),
                "--src", str(tmp_path / "new"),
                "--width", "8",
            ]
        )
        assert code == 1
        assert "fail at" in capsys.readouterr().out

    def test_a_rename_does_not_hide_a_changed_initializer(self, tmp_path, capsys):
        """A renamed pair goes through check_equivalence, whose gate hands a
        pair reading a global with a new initial value to the tests."""
        write_tree(
            tmp_path,
            "int lim = 3;\nint f(int x){ return x + lim; }\n",
            "int lim = 4;\nint f2(int x){ return x + lim; }\n",
            "void test_f2(){ assert(f2(1) == 4); }\n",
        )
        code = main([
            "analyze", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new"),
            "--tests", str(tmp_path / "tests"), "--width", "8",
            "--out", str(tmp_path / "r.json"),
        ])
        out = capsys.readouterr().out.splitlines()
        assert "equivalence: f2: unknown unsupported" in out
        assert "selected: test_f2 (triggers: f2)" in out
        assert "verify: test_f2: fail" in out
        assert code == 1

    @pytest.mark.parametrize("length", [128, 200])
    def test_equiv_indexes_an_array_past_the_signed_range(self, tmp_path, capsys, length):
        """At width 8 no index reaches element 128, and the length itself
        wraps as a constant; every index from 0 to 127 is in bounds."""
        old = f"int a[{length}];\nint get(int i){{ return a[i]; }}\n"
        (tmp_path / "a.c").write_text(old)
        (tmp_path / "b.c").write_text(old.replace("a[i];", "a[i] + 1;"))
        argv = ["equiv", str(tmp_path / "a.c"), str(tmp_path / "b.c"), "get", "--width", "8"]
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith("not equivalent (behavior)\n")

    @pytest.mark.parametrize("length", [128, 200, 300])
    def test_verify_indexes_an_array_past_the_signed_range(self, tmp_path, capsys, length):
        lib = f"int a[{length}];\nint get(int i){{ return a[i]; }}\n"
        write_tree(tmp_path, lib, lib, "void test_a(){ assert(get(100) == 0); }\n")
        argv = ["verify", "--tests", str(tmp_path / "tests"), "--src", str(tmp_path / "old")]
        assert main([*argv, "--width", "8"]) == 0
        assert capsys.readouterr().out == "test_a: pass\n"

    STORE_CALL = "int a[4];\nint f(){ a[1] = 5; return 7; }\nvoid g(){ a[0] = f(); }\n"

    def test_verify_keeps_what_the_stored_value_wrote(self, tmp_path, capsys):
        """In a[0] = f(), f writes a[1] before the store; the store keeps it."""
        write_tree(
            tmp_path, self.STORE_CALL, self.STORE_CALL,
            "void test_g(){ g(); assert(a[1] == 0); }\n",
        )
        argv = ["verify", "--tests", str(tmp_path / "tests"), "--src", str(tmp_path / "old")]
        assert main([*argv, "--width", "8"]) == 1
        assert capsys.readouterr().out == f"test_g: fail at {tmp_path / 'tests' / 't.c'}:1:21\n"

    def test_equiv_keeps_what_the_stored_value_wrote(self, tmp_path, capsys):
        (tmp_path / "a.c").write_text(self.STORE_CALL)
        (tmp_path / "b.c").write_text(self.STORE_CALL.replace("a[0] = f();", "int t = f(); a[0] = t;"))
        argv = ["equiv", str(tmp_path / "a.c"), str(tmp_path / "b.c"), "g", "--width", "8"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "equivalent (formal)\n"

    def test_verify_names_the_file_of_the_failing_function(self, tmp_path, capsys):
        """A failure inside a snapshot function is reported in its file under
        --src, one inside the test in the test's file under --tests."""
        lib = "int data[4];\nint get(int i){ return data[i]; }\n"
        write_tree(
            tmp_path, lib, lib,
            "void test_get(){ assert(get(7) == 0); }\nvoid test_own(){ assert(get(1) == 1); }\n",
        )
        argv = ["verify", "--tests", str(tmp_path / "tests"), "--src", str(tmp_path / "old")]
        assert main([*argv, "--width", "8"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"test_get: fail at {tmp_path / 'old' / 'lib.c'}:2:24",
            f"test_own: fail at {tmp_path / 'tests' / 't.c'}:2:18",
        ]

    def test_input_errors_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "x.c").write_text("int f(int x){return x / 2;}")
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "tests" / "t.c").write_text("void test_a(){assert(true);}")
        code = main(
            [
                "analyze",
                "--old", str(bad),
                "--new", str(bad),
                "--tests", str(tmp_path / "tests"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "division" in err
        assert "x.c:1:" in err

    def test_non_utf8_source_exits_three(self, tmp_path, capsys):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        bad = tmp_path / "new" / "lib.c"
        bad.write_bytes(LIB_OLD.encode() + b"// \xff\n")
        line = LIB_OLD.count("\n") + 1
        expected = f"{bad}:{line}:4: error: byte 0xff is not valid UTF-8"
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 3
        assert expected in capsys.readouterr().err
        assert main(["equiv", str(tmp_path / "old" / "lib.c"), str(bad), "add"]) == 3
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", "--old", "o", "--new", "n", "--tests", "t", "--out", "r", "--jobs", "2"], 3),
            (["equiv", "a.c", "b.c", "f", "--width", "7"], 3),
            (["analyze", "--old", "o", "--new", "n", "--out", "r"], 3),
            (["--help"], 0),
            (["--version"], 0),
        ],
        ids=["removed-jobs-flag", "bad-width", "missing-tests", "help", "version"],
    )
    def test_usage_errors_exit_three(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert ("error:" in capsys.readouterr().err) == (code == 3)

    def test_the_settings_are_pinned(self):
        """Every flag of each subcommand and every field of the two
        configurations, so that a new setting shows up as a diff here."""
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        unroll = ["--bound", "--timeout", "--width"]
        assert flags == {
            "analyze": sorted(["--old", "--new", "--diff", "--tests", "--budget", "--out", *unroll]),
            "diff": ["--diff", "--new", "--old"],
            "equiv": unroll,
            "complexity": [],
            "verify": sorted(["--tests", "--src", *unroll]),
        }
        assert sum(map(len, flags.values())) == 20
        assert [f.name for f in dataclasses.fields(UnrollConfig)] == ["loop_bound", "timeout_s", "width"]
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "old_dir", "new_dir", "tests_dir", "out_path", "budget_s", "unroll", "diff_path",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--old", "o", "--new", "n", "--tests", "t", "--out", "r", "--depth", "3"],
            ["equiv", "a.c", "b.c", "f", "--depth", "3"],
            ["verify", "--tests", "t", "--src", "s", "--depth", "3"],
            ["diff", "--old", "o", "--new", "n", "--width", "8"],
            ["complexity", "d", "--width", "8"],
        ],
        ids=["analyze-depth", "equiv-depth", "verify-depth", "diff-width", "complexity-width"],
    )
    def test_removed_settings_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [["--timeout", "0"], ["--timeout", "nan"], ["--timeout", "inf"], ["--bound", "0"]],
        ids=["zero-timeout", "nan-timeout", "inf-timeout", "zero-bound"],
    )
    def test_bad_limits_exit_three(self, tmp_path, capsys, option):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        lib = str(tmp_path / "old" / "lib.c")
        assert main(["equiv", lib, lib, "add", *option]) == 3
        assert "error: " in capsys.readouterr().err

    def test_infinite_budget_exits_three(self, tmp_path, capsys):
        # An infinite budget would be written to the report as Infinity,
        # which is not JSON.
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        out = tmp_path / "r.json"
        code = main(
            [
                "analyze",
                "--old", str(tmp_path / "old"),
                "--new", str(tmp_path / "new"),
                "--tests", str(tmp_path / "tests"),
                "--out", str(out),
                "--budget", "inf",
            ]
        )
        assert code == 3 and not out.exists()
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diff", "analyze"])
    def test_new_and_diff_together_are_a_usage_error(self, tmp_path, capsys, command):
        # --diff used to win and --new was ignored, even when it named no
        # directory.
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        patch = tmp_path / "change.diff"
        patch.write_text(
            "--- a/lib.c\n+++ b/lib.c\n@@ -4,1 +4,1 @@\n"
            "-int add(int a, int b) { return a + b; }\n"
            "+int add(int a, int b) { return b + a; }\n"
        )
        argv = [command, "--old", str(tmp_path / "old"), "--diff", str(patch)]
        if command == "analyze":
            argv += ["--tests", str(tmp_path / "tests"), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--new", str(tmp_path / "nonexistent")])
        assert exc.value.code == 3
        assert "not allowed with argument" in capsys.readouterr().err

    def test_missing_directory_exits_three(self, tmp_path):
        code = main(
            [
                "analyze",
                "--old", str(tmp_path / "nope"),
                "--new", str(tmp_path / "nope"),
                "--tests", str(tmp_path / "nope"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "expr, message, col",
        [
            ("x + \u00b2", "unexpected character '\u00b2'", 36),
            ("x + 1\u0663", "unexpected character '\u0663'", 37),
            ("\u00e9", "unexpected character '\u00e9'", 32),
            ("x + 010", "octal literals are not supported", 36),
        ],
        ids=["superscript-two", "arabic-indic-three", "e-acute", "octal"],
    )
    def test_bad_characters_and_literals_exit_three(self, tmp_path, capsys, expr, message, col):
        write_tree(tmp_path, LIB_OLD, LIB_OLD.replace("a + b", expr), TESTS)
        line = LIB_OLD[: LIB_OLD.index("a + b")].count("\n") + 1
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 3
        assert f"lib.c:{line}:{col}: error: {message}" in capsys.readouterr().err

    def test_non_ascii_inside_comments_is_accepted(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_OLD + "// x\u00b2 \u0663 \u00e9\n/* \u00e9 */\n", TESTS)
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 0

    def test_python_dash_m_runs_the_cli(self):
        minivec = CORPUS / "minivec"
        done = python_dash_m("diff", "--old", str(minivec / "old"), "--new", str(minivec / "new"))
        assert done.returncode == 0, done.stderr
        assert "modified: vec_insert" in done.stdout


# Functions that nest one construct n times, with the deepest n the parser
# accepts for each: MAX_NESTING less the function body's block, over the
# levels of one repetition, as `cfv.minic.parser` counts them. The innermost
# operand is `leaf`. With `y`, a copy of `x`, as the leaf the two versions
# are equivalent but not structurally equal, so `equiv` compares both trees
# to the leaf and then encodes both. Loops run once, so the encoding stays
# small.
DEEP_FORMS = {
    "parentheses": (999, lambda n, leaf: f"return {'(' * n}{leaf}{')' * n};"),
    "unary": (999, lambda n, leaf: f"return {'- ' * n}{leaf};"),
    "flat-chain": (999, lambda n, leaf: f"return {' + '.join([leaf] + ['x'] * n)};"),
    "right-chain": (
        999,
        lambda n, leaf: f"return {'x - (' * (n // 2)}{'- ' * (n % 2)}{leaf}{')' * (n // 2)};",
    ),
    "calls": (999, lambda n, leaf: f"return {'g(' * n}{leaf}{')' * n};"),
    "indices": (499, lambda n, leaf: f"return {'a[' * n}{leaf} & 3{' & 3]' * n};"),
    "blocks": (999, lambda n, leaf: f"{'{ ' * n}x = {leaf};{' }' * n} return x;"),
    "if-blocks": (499, lambda n, leaf: f"{'if (x > 0) { ' * n}x = {leaf};{' }' * n} return x;"),
    "bare-ifs": (499, lambda n, leaf: f"{'if (x > 0) ' * n}x = {leaf}; return x;"),
    # Every arm returns, so the type checker's return analysis walks the
    # whole chain.
    "if-else-returns": (
        499,
        lambda n, leaf: f"{'if (x > 0) { return 1; } else { ' * n}x = {leaf}; return x;{' }' * n}",
    ),
    "else-ifs": (
        499,
        lambda n, leaf: " else ".join(f"if (x == {i}) {{ x = x; }}" for i in range(n - 1))
        + f" else if (x == {n}) {{ x = {leaf}; }} return x;",
    ),
    "while-loops": (
        499,
        lambda n, leaf: f"{'while (true) { ' * n}x = {leaf}; return x;{' }' * n} return x;",
    ),
    "for-loops": (
        332,
        lambda n, leaf: f"{'for (int i = 0; i < 1; i = i + 1) { ' * n}x = {leaf};{' }' * n} return x;",
    ),
    "for-loops-without-init": (
        499,
        lambda n, leaf: f"{'for (; true; x = x) { ' * n}x = {leaf}; return x;{' }' * n} return x;",
    ),
}


def write_deep(tmp_path: Path, form: str, n: int) -> tuple[Path, Path]:
    dirs = []
    for name, leaf in (("old", "x"), ("new", "y")):
        d = tmp_path / name
        d.mkdir(exist_ok=True)
        body = DEEP_FORMS[form][1](n, leaf)
        (d / "m.c").write_text(
            f"int a[4];\nint g(int a){{return a + 1;}}\nint f(int x){{int y = x; {body}}}\n"
        )
        dirs.append(d)
    return dirs[0], dirs[1]


class TestNestingBound:
    @pytest.mark.parametrize("form", sorted(DEEP_FORMS))
    def test_at_the_bound(self, tmp_path, capsys, form):
        old, new = write_deep(tmp_path, form, DEEP_FORMS[form][0])
        assert main(["diff", "--old", str(old), "--new", str(new)]) == 0
        assert "modified: f" in capsys.readouterr().out
        assert main(["equiv", str(old / "m.c"), str(new / "m.c"), "f", "--width", "8"]) == 0
        assert "equivalent (formal)" in capsys.readouterr().out

    @pytest.mark.parametrize("form", sorted(DEEP_FORMS))
    def test_past_the_bound(self, tmp_path, capsys, form):
        old, new = write_deep(tmp_path, form, DEEP_FORMS[form][0] + 1)
        assert main(["diff", "--old", str(old), "--new", str(new)]) == 3
        diagnostic = capsys.readouterr().err
        assert diagnostic.startswith(f"{old / 'm.c'}:3:")
        assert "error: nesting is too deep to analyze" in diagnostic
        tests = tmp_path / "tests"
        tests.mkdir()
        for argv in (
            ["equiv", str(old / "m.c"), str(new / "m.c"), "f"],
            ["analyze", "--old", str(old), "--new", str(new), "--tests", str(tests),
             "--out", str(tmp_path / "r.json")],
            ["verify", "--tests", str(tests), "--src", str(old)],
        ):
            assert main(argv + ["--width", "8"]) == 3
            assert capsys.readouterr().err == diagnostic

    @pytest.mark.parametrize("past, code", [(0, 0), (1, 3)])
    def test_python_dash_m_at_and_past_the_bound(self, tmp_path, past, code):
        """A fresh process gets the deep stack from the same entry point."""
        old, new = write_deep(tmp_path, "parentheses", DEEP_FORMS["parentheses"][0] + past)
        done = python_dash_m("diff", "--old", str(old), "--new", str(new))
        assert done.returncode == code, done.stderr
        if code:
            assert done.stderr.startswith(f"{old / 'm.c'}:3:")
            assert "error: nesting is too deep to analyze" in done.stderr
        else:
            assert "modified: f" in done.stdout.splitlines()

    def test_main_restores_the_stack_settings(self, tmp_path, monkeypatch):
        """The worker's stack size and recursion limit do not outlive `main`,
        whether the command returns or raises."""
        limit, size = sys.getrecursionlimit(), threading.stack_size()
        old, new = write_deep(tmp_path, "blocks", 3)
        assert main(["diff", "--old", str(old), "--new", str(new)]) == 0
        assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, size)

        def broken(args):
            raise RuntimeError("broken command")

        monkeypatch.setattr(cli, "cmd_diff", broken)
        with pytest.raises(RuntimeError, match="broken command"):
            main(["diff", "--old", str(old), "--new", str(new)])
        assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, size)

    @pytest.mark.parametrize(
        "body",
        [
            "return " + "(" * 30_000 + "x" + ")" * 30_000 + ";",
            "return " + " + ".join(["x"] * 30_000) + ";",
            "bool b = " + "!" * 30_000 + "(x == 0); return 0;",
            "if (x > 0) { " * 30_000 + "x = 1;" + " }" * 30_000 + " return x;",
            " else ".join(f"if (x == {i}) {{ x = 1; }}" for i in range(30_000)) + " return x;",
        ],
        ids=["parentheses", "flat-chain", "negations", "if-blocks", "else-ifs"],
    )
    def test_far_past_the_bound(self, tmp_path, capsys, body):
        write_tree(tmp_path, LIB_OLD, LIB_OLD + f"int deep(int x){{{body}}}\n", TESTS)
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 3
        assert "error: nesting is too deep to analyze" in capsys.readouterr().err


def test_tests_at_the_bound_are_generalized_verified_and_concretized(tmp_path):
    """Test bodies as deep as the parser takes them go through generalize,
    verify and concretize: a call under 998 parentheses, and one under 499
    nested `if` blocks."""
    parens = 998
    ifs = 499
    tests = (
        f"void test_parens() {{ int x = {'(' * parens}add(1, 2){')' * parens}; assert(x == 3); }}\n"
        f"void test_ifs() {{ int y = 0; {'if (y == 0) { ' * ifs}y = add(2, 2);{' }' * ifs}"
        " assert(y == 4); }\n"
    )
    lib = "int add(int a, int b) { return a + b; }\n"
    write_tree(tmp_path, lib, lib.replace("a + b", "a - b"), tests)
    out = tmp_path / "r.json"
    argv = ["analyze", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new"),
            "--tests", str(tmp_path / "tests"), "--out", str(out), "--width", "8"]
    assert main(argv) == 1
    entries = {e["test"]: e["result"] for e in json.loads(out.read_text())["verification"]}
    assert sorted(entries) == ["test_ifs", "test_parens"]
    for result in entries.values():
        assert result["kind"] == "fail"
        assert result["counterexample"]["concretized_source"]


def test_diagnostics_name_the_broken_side(tmp_path, capsys):
    """The same syntax error in old/lib.c, new/lib.c and tests/t.c gives
    three different first lines, each naming its file as given."""
    broken_lib = LIB_OLD.replace("return a + b;", "return a + ;")
    broken_tests = TESTS.replace("add(2, 3) == 5", "add(2, 3) == ")
    first_lines = []
    for old_src, new_src, tests_src in (
        (broken_lib, LIB_OLD, TESTS),
        (LIB_OLD, broken_lib, TESTS),
        (LIB_OLD, LIB_OLD, broken_tests),
    ):
        write_tree(tmp_path, old_src, new_src, tests_src)
        argv = ["analyze", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new"),
                "--tests", str(tmp_path / "tests"), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 3
        first_lines.append(capsys.readouterr().err.splitlines()[0])
    assert [line.split(":")[0] for line in first_lines] == [
        str(tmp_path / "old" / "lib.c"),
        str(tmp_path / "new" / "lib.c"),
        str(tmp_path / "tests" / "t.c"),
    ]
    assert first_lines[0].removeprefix(str(tmp_path / "old")) == first_lines[1].removeprefix(
        str(tmp_path / "new")
    )


def test_diagnostics_in_patched_text_name_the_diff(tmp_path, capsys):
    write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
    patch = tmp_path / "p.diff"
    patch.write_text(
        "--- a/lib.c\n+++ b/lib.c\n@@ -4,1 +4,1 @@\n"
        "-int add(int a, int b) { return a + b; }\n"
        "+int add(int a, int b) { return a + ; }\n"
    )
    assert main(["diff", "--old", str(tmp_path / "old"), "--diff", str(patch)]) == 3
    assert capsys.readouterr().err.startswith(f"{patch / 'lib.c'}:4:")


# Text to splice into sources, in groups that are drawn from evenly:
# characters the lexer rejects or treats specially, runs of parentheses that
# cross the nesting bound, the unsupported operators, and punctuation.
MUTATION_TEXTS = [
    ["#", "\u00b2", "\u0663", "\u00e9", "\r", "\t", "09", "0x"],
    ["(" * 3, "(" * 500, "(" * 1000],
    list(UNSUPPORTED_OPERATORS),
    ["\n", ")", ";", "{", "}", "/*", "*/", "//", " + x", "!", "-"],
]


def mutate(source: str, rng) -> str:
    """Insert, delete or overwrite text at a random offset, or overwrite a
    digit, so that the text lands where the parser expects a number."""
    at = rng.randrange(len(source) + 1)
    kind = rng.choice(["insert", "delete", "replace", "replace-digit"])
    text = rng.choice(rng.choice(MUTATION_TEXTS))
    if kind == "insert":
        return source[:at] + text + source[at:]
    if kind == "delete":
        return source[:at] + source[at + rng.randint(1, 8) :]
    if kind == "replace-digit":
        digits = [i for i, c in enumerate(source) if c.isdigit()]
        at = rng.choice(digits) if digits else at
        return source[:at] + text + source[at + 1 :]
    return source[:at] + text + source[at + len(text) :]


# Subcommand: (examples, its possible exit codes, the minivec files it reads
# that are mutated, its arguments over the copy at root). The limits keep a
# run that gets past parsing under a second; the slower subcommands get fewer
# examples.
ALL_CODES = (0, 1, 2, 3)
FUZZED_COMMANDS = {
    "diff": (100, (0, 3), ["old/vec.c", "new/vec.c"], lambda root: [
        "diff", "--old", f"{root}/old", "--new", f"{root}/new",
    ]),
    "analyze": (25, ALL_CODES, ["old/vec.c", "new/vec.c", "tests/vec_tests.c"], lambda root: [
        "analyze", "--old", f"{root}/old", "--new", f"{root}/new", "--tests", f"{root}/tests",
        "--out", f"{root}/report.json", "--width", "8", "--budget", "0.5",
    ]),
    "equiv": (20, ALL_CODES, ["old/vec.c", "new/vec.c"], lambda root: [
        "equiv", f"{root}/old/vec.c", f"{root}/new/vec.c", "vec_insert",
        "--width", "8", "--timeout", "0.5",
    ]),
    "verify": (50, ALL_CODES, ["new/vec.c", "tests/vec_tests.c"], lambda root: [
        "verify", "--tests", f"{root}/tests", "--src", f"{root}/new",
        "--width", "8", "--timeout", "0.5",
    ]),
}


@pytest.mark.parametrize("command", sorted(FUZZED_COMMANDS))
def test_cli_on_mutated_sources_exits_zero_to_three(command):
    """Each subcommand on mangled copies of minivec reports, never raises,
    and prints diagnostics exactly when it exits 3."""
    examples, codes, targets, argv = FUZZED_COMMANDS[command]

    @settings(max_examples=examples, deadline=None)
    @given(st.randoms(use_true_random=False))
    def run(rng):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copytree(CORPUS / "minivec", root, dirs_exist_ok=True)
            for _ in range(rng.randint(1, 2)):
                path = root / rng.choice(targets)
                path.write_text(mutate(path.read_text(), rng))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv(root))
            diagnostics = err.getvalue().replace("budget exceeded\n", "")
            assert code in codes, diagnostics
            assert (code == 3) == bool(diagnostics), diagnostics

    run()
