"""Loading a snapshot against a base gives what a fresh load gives.

A new snapshot loaded next to an old one shares every unit and declaration
whose text and position did not change. Each case here loads one new
version both ways and compares everything the load produced: declarations,
spans, slots, body texts, read, write and callee sets, comments and
diagnostics. The old snapshot must come out of it untouched.
"""

import dataclasses
import difflib

import pytest

from cfv.cli import main
from cfv.errors import InputError
from cfv.minic import parser, typecheck
from cfv.minic.parser import parse_unit
from cfv.snapshot import load_snapshot_from_diff, read_sources, snapshot_from_sources

from oracles import CORPUS
from test_harness import write_scale_corpus

WIDTH = 8

A_C = """\
/* globals */
int g = 1; int k = 2;
    int h = 3;

int helper(int x) {
    return x + g;
}

// reads the flag
int reader(int i) {
    if (flag) { return buf[i]; }
    return helper(i) + h;
}

void writer(int v) {
    g = v;
    buf[0] = v;
}
"""

B_C = """\
int twice(int x) {
    return helper(x) + helper(x);
}

int last(int y) {
    int z = y;
    return z + reader(z);
}
"""

C_C = """\
bool flag;
int buf[4];
"""

BASE = {"a.c": A_C, "b.c": B_C, "c.c": C_C}


def edited(path: str, old: str, new: str) -> dict[str, str]:
    """BASE with the one occurrence of old in path replaced by new."""
    assert BASE[path].count(old) == 1, (path, old)
    return {**BASE, path: BASE[path].replace(old, new)}


HAND_EDITS = {
    "same-length edit": edited("a.c", "x + g", "x - g"),
    "columns move, offsets stay": edited("a.c", "2;\n    int h", "2;    \nint h"),
    "columns move within one line": edited("a.c", "int g = 1;", "int g = 10;"),
    "lines move, offsets stay": edited("a.c", "/* globals */", "/*\nglobals */"),
    "lines move": edited("a.c", "/* globals */", "/* globals */\n\n"),
    "declaration inserted": edited("a.c", "void writer", "int extra(int q) { return q; }\n\nvoid writer"),
    "read global retyped": edited("c.c", "bool flag;", "int  flag;"),
    "read array resized": edited("c.c", "int buf[4];", "int buf[5];"),
    "callee signature changed": edited("a.c", "int helper(int x)", "int helper(bool x)"),
    "callee return type changed": edited("a.c", "int helper(int x)", "bool helper(int x)"),
    "callee removed": edited("a.c", "int helper(int x) {\n    return x + g;\n}\n", ""),
    "callee renamed": {**BASE, "a.c": A_C.replace("helper", "helpme")},
    "duplicate in another file": {**BASE, "d.c": "int twice(int x) { return x; }\n"},
    "duplicate global in an earlier file": {**BASE, "0.c": "int g;\n"},
    "syntax error before reused declarations": edited("a.c", "/* globals */", "int = ;"),
    "syntax error after reused declarations": edited("a.c", "buf[0] = v;\n}\n", "buf[0] = v;\n}\nint = ;\n"),
    "lexer fault in an otherwise identical file": edited("b.c", "\n\nint last", "\n@\nint last"),
    "file removed": {"a.c": A_C, "c.c": C_C},
    "file added": {**BASE, "e.c": "// more\nint more(int x) { return twice(x); }\n"},
    "unchanged": dict(BASE),
}


def scale_sides(tmp_path, seed: int) -> tuple[dict[str, str], dict[str, str]]:
    """The old and new sources of the benchmark's `scale` corpus."""
    root = write_scale_corpus(tmp_path, seed)
    return read_sources(root / "old"), read_sources(root / "new")


def dump(obj):
    """obj with every dataclass field, compared ones or not, as nested
    tuples: the spans and slots of a tree, its body texts and its read,
    write and callee sets."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, dump(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (list, tuple)):
        return tuple(dump(x) for x in obj)
    if isinstance(obj, frozenset):
        return tuple(sorted(obj))
    return obj


def load(sources: dict[str, str], base=None):
    """The snapshot's dump, or the lines of the diagnostics it raised."""
    try:
        snap = snapshot_from_sources(sources, "new", WIDTH, base)
    except InputError as err:
        return [str(d) for d in err.diagnostics]
    names = (list(snap.globals), list(snap.functions))
    return dump(snap.units), names, snap.width, snap.label


def assert_loads_alike(old_sources: dict[str, str], new_sources: dict[str, str], monkeypatch):
    old = snapshot_from_sources(old_sources, "old", WIDTH)
    before = dump(old)
    old_functions = {id(fn) for fn in old.functions.values()}
    checked = []
    check_function = typecheck._Checker.check_function

    def recording(self, fn):
        checked.append(id(fn))
        return check_function(self, fn)

    monkeypatch.setattr(typecheck._Checker, "check_function", recording)
    against_base = load(new_sources, old)
    assert not old_functions & set(checked), "a function of the base was checked again"
    assert dump(old) == before
    assert against_base == load(new_sources)
    return against_base


@pytest.mark.parametrize("case", list(HAND_EDITS))
def test_a_hand_edit_loads_as_a_fresh_load(case, monkeypatch):
    assert_loads_alike(BASE, HAND_EDITS[case], monkeypatch)


def test_the_hand_edits_take_every_path():
    # Errors and clean loads, shared and stale units are all exercised.
    results = {case: load(sources) for case, sources in HAND_EDITS.items()}
    failing = {case for case, result in results.items() if isinstance(result, list)}
    assert failing == {
        "read global retyped",
        "callee signature changed",
        "callee return type changed",
        "callee removed",
        "callee renamed",
        "duplicate in another file",
        "duplicate global in an earlier file",
        "syntax error before reused declarations",
        "syntax error after reused declarations",
        "lexer fault in an otherwise identical file",
    }
    assert results["lexer fault in an otherwise identical file"] == [
        "b.c:4:1: error: unexpected character '@'"
    ]


@pytest.mark.parametrize("seed", range(1, 6))
def test_a_scale_corpus_loads_as_a_fresh_load(seed, tmp_path, monkeypatch):
    assert_loads_alike(*scale_sides(tmp_path, seed), monkeypatch)


@pytest.mark.parametrize("case", ["same-length edit", "read global retyped", "file added"])
def test_a_diff_loads_as_a_fresh_load_of_the_patched_files(case, tmp_path):
    new_sources = HAND_EDITS[case]
    lines = []
    for path in sorted(BASE.keys() | new_sources.keys()):
        before, after = BASE.get(path, ""), new_sources.get(path, "")
        lines += difflib.unified_diff(
            before.splitlines(keepends=True),
            after.splitlines(keepends=True),
            f"a/{path}" if path in BASE else "/dev/null",
            f"b/{path}",
        )
    diff = tmp_path / "change.diff"
    diff.write_text("".join(lines))
    base = snapshot_from_sources(BASE, "base", WIDTH)
    try:
        snap = load_snapshot_from_diff(base, diff)
    except InputError as err:
        fresh = load(new_sources)
        assert [str(d) for d in err.diagnostics] == [f"{diff}/{line}" for line in fresh]
    else:
        assert snap.label == "base+change.diff"
        assert dump(snap.units) == load(new_sources)[0]


def test_scale_shares_every_declaration_the_edits_left_alone(tmp_path, monkeypatch):
    old_sources, new_sources = scale_sides(tmp_path, 7)
    old = snapshot_from_sources(old_sources, "old", WIDTH)
    lexed = []
    lex = parser.lex
    monkeypatch.setattr(parser, "lex", lambda source, path: lexed.append(path) or lex(source, path))
    new = snapshot_from_sources(new_sources, "new", WIDTH, old)

    old_decls = {id(d) for u in old.units for d in u.declarations}
    new_decls = [d for u in new.units for d in u.declarations]
    assert len(new_decls) == 760
    assert sum(id(d) in old_decls for d in new_decls) == 664
    unedited = {path for path, text in new_sources.items() if old_sources[path] == text}
    assert len(unedited) == 10
    assert {u.path for u, o in zip(new.units, old.units) if u is o} == unedited
    assert sorted(lexed) == sorted(new_sources.keys() - unedited)


@pytest.mark.parametrize(
    "command", ["analyze --new", "analyze --diff", "diff --new", "diff --diff", "equiv"]
)
def test_every_command_loads_the_new_side_against_the_old(command, tmp_path, monkeypatch):
    # A function the new side shares is checked once, on the old side.
    old_c, new_c = (CORPUS / "minivec" / side / "vec.c" for side in ("old", "new"))
    diff = tmp_path / "vec.diff"
    diff.write_text("".join(difflib.unified_diff(
        old_c.read_text().splitlines(keepends=True),
        new_c.read_text().splitlines(keepends=True),
        "a/vec.c",
        "b/vec.c",
    )))
    name, new_side = command.split(" ") if " " in command else (command, None)
    new_arg = ["--new", str(new_c.parent)] if new_side == "--new" else ["--diff", str(diff)]
    argv = {
        "analyze": ["analyze", "--old", str(old_c.parent), *new_arg, "--tests",
                    str(CORPUS / "minivec" / "tests"), "--out", str(tmp_path / "r.json")],
        "diff": ["diff", "--old", str(old_c.parent), *new_arg],
        "equiv": ["equiv", str(old_c), str(new_c), "vec_insert"],
    }[name]
    checked = []
    check_function = typecheck._Checker.check_function
    monkeypatch.setattr(
        typecheck._Checker,
        "check_function",
        lambda self, fn: checked.append(fn.name) or check_function(self, fn),
    )
    main(argv)

    def placed(path):
        text = path.read_text()
        return {(fn.name, fn.span, text[fn.span.start : fn.span.end])
                for fn in parse_unit(text, "vec.c").functions}

    old, new = placed(old_c), placed(new_c)
    old_names, new_names = ({fn for fn, _, _ in side} for side in (old, new))
    shared = {fn for fn, _, _ in old & new}
    assert shared
    for fn in old_names | new_names:
        assert checked.count(fn) == (fn in old_names) + (fn in new_names) - (fn in shared), fn
