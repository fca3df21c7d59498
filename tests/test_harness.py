import sys
from pathlib import Path

import pytest

from cfv.equivalence import closure_functions
from cfv.errors import InputError
from cfv.harness import (
    build_call_graph,
    generalize,
    load_tests,
    select_tests,
)
from cfv.minic import ast, typecheck
from cfv.minic.normalize import alpha_key
from cfv.minic.parser import parse_unit
from cfv.pipeline import RunConfig, run_pipeline
from cfv.snapshot import VALID_WIDTHS, load_snapshot, snapshot_from_sources

from oracles import CORPUS, REPO_ROOT, called_names, closure_names

LIB = """
int counter = 0;

int add(int a, int b) { return a + b; }
int twice(int x) { return add(x, x); }
void tick() { counter = counter + 1; }
int idle() { return 0; }
"""


@pytest.fixture()
def tests_and_view(tmp_path):
    snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
    (tmp_path / "t.c").write_text(
        """
// doubling
void test_twice() {
    assert(twice(2) == 4);
}

void test_tick() {
    tick();
    tick();
    assert(counter == 2);
}

int helper_three() { return add(1, 2); }

void test_helper() {
    assert(helper_three() == 3);
}
"""
    )
    return load_tests(tmp_path, snap)


class TestLoading:
    def test_tests_discovered_in_order(self, tests_and_view):
        tests, _ = tests_and_view
        assert [t.name for t in tests] == ["test_twice", "test_tick", "test_helper"]

    def test_section_from_leading_comment(self, tests_and_view):
        tests, _ = tests_and_view
        assert tests[0].section == "doubling"
        assert tests[1].section == "test_tick"

    def test_helpers_are_not_tests(self, tests_and_view):
        tests, view = tests_and_view
        assert "helper_three" in view.functions
        assert all(t.name != "helper_three" for t in tests)

    def test_test_must_assert(self, tmp_path):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        (tmp_path / "t.c").write_text("void test_nothing() { tick(); }")
        with pytest.raises(InputError) as exc:
            load_tests(tmp_path, snap)
        assert "no assert" in str(exc.value)

    def test_test_must_be_void_nullary(self, tmp_path):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        (tmp_path / "t.c").write_text("int test_bad(int x) { assert(x == x); return x; }")
        with pytest.raises(InputError):
            load_tests(tmp_path, snap)

    def test_globals_in_test_files_rejected(self, tmp_path):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        (tmp_path / "t.c").write_text("int stray; void test_a(){assert(true);}")
        with pytest.raises(InputError) as exc:
            load_tests(tmp_path, snap)
        assert "must not declare globals" in str(exc.value)


class TestWidth:
    """The syntax has no width: building a snapshot from text validates
    one, and a test view keeps its snapshot's."""

    @pytest.mark.parametrize("width", [5, 64])
    def test_a_width_outside_the_valid_ones_is_rejected(self, tmp_path, width):
        with pytest.raises(ValueError, match="width must be one of"):
            snapshot_from_sources({"lib.c": LIB}, "lib", width)
        (tmp_path / "lib.c").write_text(LIB)
        with pytest.raises(ValueError, match="width must be one of"):
            load_snapshot(tmp_path, width)

    @pytest.mark.parametrize("width", VALID_WIDTHS)
    def test_a_test_view_keeps_its_snapshots_width(self, tmp_path, width):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", width)
        (tmp_path / "t.c").write_text("void test_a() { assert(twice(1) == 2); }")
        _, view = load_tests(tmp_path, snap)
        assert view.width == width


class TestCallGraphAndSelection:
    def test_direct_and_transitive_reachability(self, tests_and_view):
        tests, view = tests_and_view
        cg = build_call_graph(view)
        assert cg.reachable("test_twice") == {"test_twice", "twice", "add"}

    def test_empty_test_suite_graph(self):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        cg = build_call_graph(snap)
        assert cg.reachable("twice") == {"twice", "add"}
        assert cg.reachable("add") == {"add"}

    def test_selection_is_reachability_intersection(self, tests_and_view):
        tests, view = tests_and_view
        cg = build_call_graph(view)
        assert [t.name for t in select_tests(tests, {"add"}, cg)] == [
            "test_twice",
            "test_helper",
        ]
        assert [t.name for t in select_tests(tests, {"tick"}, cg)] == ["test_tick"]
        assert select_tests(tests, set(), cg) == []

    def test_no_triggers_selects_nothing(self, tests_and_view):
        tests, view = tests_and_view
        cg = build_call_graph(view)
        assert select_tests(tests, {"idle"}, cg) == []


class TestGeneralize:
    def make_test(self, body_src: str, tmp_path):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        (tmp_path / "t.c").write_text(body_src)
        tests, view = load_tests(tmp_path, snap)
        return tests[0], view

    def test_literal_argument_becomes_nondet(self, tmp_path):
        t, _ = self.make_test(
            "void test_a(){int r = twice(5); assert(r == 10);}", tmp_path
        )
        gt = generalize(t, {"twice"})
        assert len(gt.substitutions) == 1
        sub = gt.substitutions[0]
        assert sub.original == 5 and sub.arg_position == 0
        decl = gt.body.body.stmts[0]
        assert isinstance(decl.init.args[0], ast.NondetInt)
        assert gt.mode == "auto"

    def test_negative_literal_counts(self, tmp_path):
        t, _ = self.make_test(
            "void test_a(){int r = twice(-3); assert(r == r);}", tmp_path
        )
        gt = generalize(t, {"twice"})
        assert gt.substitutions[0].original == -3

    def test_non_literal_arguments_untouched(self, tmp_path):
        t, _ = self.make_test(
            "void test_a(){int x = 5; int r = twice(x); assert(r == 10);}", tmp_path
        )
        gt = generalize(t, {"twice"})
        assert gt.substitutions == []
        assert gt.body is t.body
        assert gt.mode == "none"

    def test_no_target_calls_is_identity(self, tmp_path):
        t, _ = self.make_test("void test_a(){tick(); assert(counter == 1);}", tmp_path)
        gt = generalize(t, {"add"})
        assert gt.substitutions == [] and gt.body is t.body

    def test_asserts_preserved_verbatim(self, tmp_path):
        t, _ = self.make_test(
            "void test_a(){int r = twice(1); assert(twice(2) == 4);}", tmp_path
        )
        gt = generalize(t, {"twice"})
        # only the non-assert call site was substituted
        assert len(gt.substitutions) == 1
        assert gt.body.body.stmts[1] == t.body.body.stmts[1]

    def test_existing_nondets_mark_manual(self, tmp_path):
        t, _ = self.make_test(
            "void test_a(){int x = nondet_int(); int r = twice(x); assert(r == x + x);}",
            tmp_path,
        )
        gt = generalize(t, {"twice"})
        assert gt.mode == "manual"

    def test_statement_skeleton_is_preserved(self, tmp_path):
        t, _ = self.make_test(
            """
void test_a(){
    int r = 0;
    int i = 0;
    while (i < 2) { r = add(r, 3); i = i + 1; }
    if (r > 5) { assert(r == 6); }
    assert(r == 6);
}
""",
            tmp_path,
        )
        gt = generalize(t, {"add"})
        kinds_before = [type(s).__name__ for s in ast.preorder(t.body.body) if isinstance(s, ast.Stmt)]
        kinds_after = [type(s).__name__ for s in ast.preorder(gt.body.body) if isinstance(s, ast.Stmt)]
        assert kinds_before == kinds_after
        assert len(gt.substitutions) == 1  # the literal 3 in add(r, 3)

    def test_substituting_originals_back_restores_the_test(self, tmp_path):
        from cfv.verify import Counterexample, concretize
        from cfv.minic.ast import DUMMY_SPAN

        t, _ = self.make_test(
            "void test_a(){int r = twice(5); int q = add(2, 3); assert(r + q == 15);}",
            tmp_path,
        )
        gt = generalize(t, {"twice", "add"})
        assert len(gt.substitutions) == 3
        # Build the counterexample whose values are the original literals.
        valuation, values = {}, {}
        for i, sub in enumerate(gt.substitutions):
            sym = f"n{i}"
            valuation[sym] = sub.original % 256
            nondet_span = None
            # the nondet node carries the replaced literal's span
            count = 0
            for e in ast.preorder(gt.body.body):
                if isinstance(e, (ast.NondetInt, ast.NondetBool)):
                    if count == i:
                        nondet_span = e.span
                        break
                    count += 1
            values[(nondet_span.start, 0)] = valuation[sym]
        cx = Counterexample(valuation, values, DUMMY_SPAN, [])
        restored = concretize(gt, cx, 8)
        assert alpha_key(restored) == alpha_key(t.body)

    def test_targets_must_be_nonempty(self, tmp_path):
        t, _ = self.make_test("void test_a(){assert(true);}", tmp_path)
        with pytest.raises(ValueError):
            generalize(t, set())


def write_scale_corpus(out: Path, seed: int) -> Path:
    """Write the benchmark's seeded many-module corpus under out."""
    bench = str(REPO_ROOT / "cfvbench")
    sys.path.insert(0, bench)
    try:
        import scale
    finally:
        sys.path.remove(bench)
    files, _ = scale.generate(seed)
    scale.write_corpus(out, files)
    return out


@pytest.fixture(scope="module")
def scale_seed7(tmp_path_factory):
    return write_scale_corpus(tmp_path_factory.mktemp("scale"), 7)


def slots(fn: ast.FunctionDef, globals_: set[str]) -> list[int]:
    """The slots of fn's declarations and variable references in preorder,
    checked for consistency: parameters hold 0..n-1 and declarations the
    next slots in order; a reference holds ast.GLOBAL for a global, or the
    slot of a parameter or declaration of its name."""
    named = [n for n in ast.preorder(fn.body) if isinstance(n, (ast.VarDecl, ast.VarRef, ast.ArrayIndex))]
    declared = [p.name for p in fn.params] + [n.name for n in named if isinstance(n, ast.VarDecl)]
    decls = iter(range(len(fn.params), len(declared)))
    for node in named:
        if isinstance(node, ast.VarDecl):
            assert node.slot == next(decls), (fn.name, node.name)
        elif node.slot == ast.GLOBAL:
            assert node.name in globals_, (fn.name, node.name)
        else:
            assert declared[node.slot] == node.name, (fn.name, node.name)
    return [n.slot for n in named]


@pytest.mark.parametrize(
    "case, width",
    [
        ("minivec", 32),
        ("scenarios/rename", 32),
        ("scenarios/negindex", 8),
        ("scenarios/timeout", 8),
        ("scale7", 8),
    ],
)
class TestCalleesFromTheChecker:
    """What the type checker records on every corpus and on scale seed 7:
    `callees` against a walk of each body, and the slot of every name."""

    def test_call_graph_and_closures_match_a_walk(self, case, width, scale_seed7):
        root = scale_seed7 if case == "scale7" else CORPUS / case
        old = load_snapshot(root / "old", width)
        new = load_snapshot(root / "new", width)
        tests, view = load_tests(root / "tests", new)
        assert {t.name for t in tests} <= view.functions.keys()
        for snap in (old, new, view):
            cg = build_call_graph(snap)
            for fn in snap.functions.values():
                assert fn.callees == called_names(fn), fn.name
                closure = closure_names(fn, snap)
                assert cg.reachable(fn.name) == closure, fn.name
                assert {f.name for f in closure_functions(fn, snap)} == closure

        # generalize rebuilds a body with dataclasses.replace, which must
        # carry `callees` over.
        generalized = [generalize(t, set(view.functions)) for t in tests]
        for t, gt in zip(tests, generalized):
            assert gt.body.callees == t.body.callees == called_names(gt.body)
        if case in ("minivec", "scale7"):
            assert any(gt.body is not t.body for t, gt in zip(tests, generalized))

    def test_every_name_carries_its_slot(self, case, width, scale_seed7):
        from cfv.verify import Counterexample, concretize

        root = scale_seed7 if case == "scale7" else CORPUS / case
        new = load_snapshot(root / "new", width)
        tests, view = load_tests(root / "tests", new)
        for snap in (load_snapshot(root / "old", width), new, view):
            for fn in snap.functions.values():
                slots(fn, set(snap.globals))
        # generalize and concretize rebuild bodies through map_stmt, which
        # carries the slots over.
        no_values = Counterexample({}, {}, ast.DUMMY_SPAN, [])
        for t in tests:
            before = slots(t.body, set(view.globals))
            gt = generalize(t, set(view.functions))
            assert slots(gt.body, set(view.globals)) == before
            assert slots(concretize(gt, no_values, width), set(view.globals)) == before


class TestCheckedOnce:
    def test_each_body_is_type_checked_once_per_run(self, tmp_path, monkeypatch):
        # A new function that starts where the old one did, with the same
        # text, is the old one's checked object and is not checked again.
        root = CORPUS / "minivec"

        def placed(part: str) -> set[tuple]:
            out = set()
            for path in (root / part).glob("*.c"):
                text = path.read_text()
                for fn in parse_unit(text, path.name).functions:
                    out.add((path.name, fn.span, text[fn.span.start : fn.span.end]))
            return out

        shared = placed("old") & placed("new")
        expected = sum(
            len(parse_unit(path.read_text(), path.name).functions)
            for part in ("old", "new", "tests")
            for path in (root / part).glob("*.c")
        ) - len(shared)
        assert shared
        checked: list[str] = []
        original = typecheck._Checker.check_function

        def counting(self, fn):
            checked.append(fn.name)
            return original(self, fn)

        monkeypatch.setattr(typecheck._Checker, "check_function", counting)
        cfg = RunConfig(
            old_dir=str(root / "old"),
            new_dir=str(root / "new"),
            tests_dir=str(root / "tests"),
            out_path=str(tmp_path / "report.json"),
        )
        run_pipeline(cfg)
        assert len(checked) == expected

    @pytest.mark.parametrize(
        "src, diagnostic",
        [
            (
                "int add(int a, int b) { return a - b; }\n"
                "void test_a() { assert(add(1, 2) == 3); }\n",
                (1, 1, "'add' already defined in lib.c"),
            ),
            (
                "void test_a() {\n    int r = missing(2);\n    assert(r == 2);\n}\n",
                (2, 13, "call to undefined function 'missing'"),
            ),
        ],
    )
    def test_view_diagnostics(self, tmp_path, src, diagnostic):
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        (tmp_path / "t.c").write_text(src)
        with pytest.raises(InputError) as exc:
            load_tests(tmp_path, snap)
        (d,) = exc.value.diagnostics
        assert (d.path, d.span.line, d.span.col, d.message) == (str(tmp_path / "t.c"), *diagnostic)


class TestBodyText:
    def test_each_definition_carries_its_body_text(self, tests_and_view):
        tests, view = tests_and_view
        snap = snapshot_from_sources({"lib.c": LIB}, "lib", 8)
        assert snap.functions["twice"].body_text == "{ return add(x, x); }"
        assert view.functions["twice"].body_text == "{ return add(x, x); }"
        assert view.functions["helper_three"].body_text == "{ return add(1, 2); }"
        assert tests[0].body.body_text == "{\n    assert(twice(2) == 4);\n}"
