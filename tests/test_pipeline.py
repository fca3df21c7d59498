import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cfv
from cfv import pipeline
from cfv.cli import main
from cfv.errors import ConfigError
from cfv.minic.lexer import UNSUPPORTED_OPERATORS
from cfv.pipeline import EQUIVALENCE_BUDGET_FRACTION, MIN_ITEM_S, RunConfig, run_pipeline
from cfv.report import exit_code, strip_timings
from cfv.ssa import UnrollConfig
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
            RunConfig(old_dir="x", new_dir=None, tests_dir="y")


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

    def test_diff_subcommand(self, tmp_path, capsys):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_EQUIV, TESTS)
        code = main(
            ["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new"), "--width", "8"]
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
            (["diff", "--old", "o", "--new", "n", "--width", "7"], 3),
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

    @pytest.mark.parametrize(
        "option",
        [["--timeout", "0"], ["--timeout", "nan"], ["--bound", "0"]],
        ids=["zero-timeout", "nan-timeout", "zero-bound"],
    )
    def test_bad_limits_exit_three(self, tmp_path, capsys, option):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        lib = str(tmp_path / "old" / "lib.c")
        assert main(["equiv", lib, lib, "add", *option]) == 3
        assert "error: " in capsys.readouterr().err

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

    def test_external_backend_stub(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_NEW_EQUIV, TESTS)
        stub = tmp_path / "stub.py"
        # Claims unsat for everything: fine for an equivalent-only change.
        stub.write_text("print('unsat')\n")
        report = run_pipeline(
            base_config(tmp_path, backend=f"external:python3 {stub} {{file}}")
        )
        (entry,) = report["equivalence"]
        assert entry["verdict"]["kind"] == "equivalent"
        assert exit_code(report) == 0

    def test_unknown_backend_rejected(self, tmp_path):
        write_tree(tmp_path, LIB_OLD, LIB_OLD, TESTS)
        with pytest.raises(ConfigError):
            run_pipeline(base_config(tmp_path, backend="quantum"))

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
        src = str(Path(cfv.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "cfv", "diff", "--old", str(minivec / "old"), "--new", str(minivec / "new")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "modified: vec_insert" in done.stdout


# Functions that nest one construct n times, with the deepest n the parser
# accepts for each: (MAX_DEPTH - the function body's block) over the FRAMES
# of one level, as `cfv.minic.parser` counts them. The innermost operand is
# `leaf`. With `y`, a copy of `x`, as the leaf the two versions are
# equivalent but not structurally equal, so `equiv` compares both trees to
# the leaf and then encodes both. Loops run once, so the encoding stays small.
DEEP_FORMS = {
    "parentheses": (224, lambda n, leaf: f"return {'(' * n}{leaf}{')' * n};"),
    "unary": (298, lambda n, leaf: f"return {'- ' * n}{leaf};"),
    "flat-chain": (298, lambda n, leaf: f"return {' + '.join([leaf] + ['x'] * n)};"),
    "right-chain": (
        256,
        lambda n, leaf: f"return {'x - (' * (n // 2)}{'- ' * (n % 2)}{leaf}{')' * (n // 2)};",
    ),
    "calls": (224, lambda n, leaf: f"return {'g(' * n}{leaf}{')' * n};"),
    "indices": (127, lambda n, leaf: f"return {'a[' * n}{leaf} & 3{' & 3]' * n};"),
    "blocks": (224, lambda n, leaf: f"{'{ ' * n}x = {leaf};{' }' * n} return x;"),
    "if-blocks": (128, lambda n, leaf: f"{'if (x > 0) { ' * n}x = {leaf};{' }' * n} return x;"),
    "bare-ifs": (128, lambda n, leaf: f"{'if (x > 0) ' * n}x = {leaf}; return x;"),
    "else-ifs": (
        128,
        lambda n, leaf: " else ".join(f"if (x == {i}) {{ x = x; }}" for i in range(n - 1))
        + f" else if (x == {n}) {{ x = {leaf}; }} return x;",
    ),
    "while-loops": (
        128,
        lambda n, leaf: f"{'while (true) { ' * n}x = {leaf}; return x;{' }' * n} return x;",
    ),
    "for-loops": (
        81,
        lambda n, leaf: f"{'for (int i = 0; i < 1; i = i + 1) { ' * n}x = {leaf};{' }' * n} return x;",
    ),
    "for-loops-without-init": (
        128,
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
        assert diagnostic.startswith("m.c:3:")
        assert "error: nesting is too deep to analyze" in diagnostic
        assert main(["equiv", str(old / "m.c"), str(new / "m.c"), "f", "--width", "8"]) == 3
        assert capsys.readouterr().err == diagnostic

    @pytest.mark.parametrize(
        "body",
        [
            "return " + "(" * 3000 + "x" + ")" * 3000 + ";",
            "return " + " + ".join(["x"] * 400) + ";",
            "bool b = " + "!" * 3000 + "(x == 0); return 0;",
            "if (x > 0) { " * 3000 + "x = 1;" + " }" * 3000 + " return x;",
            " else ".join(f"if (x == {i}) {{ x = 1; }}" for i in range(3000)) + " return x;",
        ],
        ids=["parentheses", "flat-chain", "negations", "if-blocks", "else-ifs"],
    )
    def test_far_past_the_bound(self, tmp_path, capsys, body):
        write_tree(tmp_path, LIB_OLD, LIB_OLD + f"int deep(int x){{{body}}}\n", TESTS)
        assert main(["diff", "--old", str(tmp_path / "old"), "--new", str(tmp_path / "new")]) == 3
        assert "error: nesting is too deep to analyze" in capsys.readouterr().err


# Text to splice into sources, in groups that are drawn from evenly:
# characters the lexer rejects or treats specially, runs of parentheses that
# cross the nesting bound, the unsupported operators, and punctuation.
MUTATION_TEXTS = [
    ["#", "\u00b2", "\u0663", "\u00e9", "\r", "\t", "09", "0x"],
    ["(" * 3, "(" * 120, "(" * 240],
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
