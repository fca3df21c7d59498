"""C block scoping, pinned by hand-written values.

The type checker is the one pass that resolves names: it writes a slot onto
every declaration and variable reference, and the interpreter, the encoder
and the alpha key read it. Each scoping case runs through the interpreter
(`run_function`), the encoder under a test that asserts the value
(`verify_test`), and the miter against a hand-inlined version that declares
no local (`check_equivalence`). A tree the checker never saw has no slots,
and all three users raise on it. `tests/test_harness.py` checks the slots
of every corpus tree.
"""

from __future__ import annotations

import pytest

from cfv.equivalence import Equivalent, check_equivalence
from cfv.harness import GeneralizedTest, load_tests
from cfv.interp import run_function
from cfv.minic import alpha_key
from cfv.minic.parser import parse_unit
from cfv.snapshot import snapshot_from_sources
from cfv.ssa import UnrollConfig, encode_ssa
from cfv.terms import TermBuilder
from cfv.verify import Pass, verify_test

WIDTH = 8
CFG = UnrollConfig(width=WIDTH)

# name: (source defining f, hand-inlined f, argument, return value, globals after)
CASES = {
    "block-shadows-local": (
        "int f(int x){int y = x + 1; { int y = 10; x = x + y; } return x + y;}",
        "int f(int x){return x + 10 + x + 1;}",
        3, 17, {},
    ),
    "initializer-reads-shadowed-parameter": (
        "int f(int x){int r = 0; { int x = x + 1; r = x * 2; } return r + x;}",
        "int f(int x){return (x + 1) * 2 + x;}",
        5, 17, {},
    ),
    "initializer-reads-shadowed-global": (
        "int x = 7; int f(int a){int x = x + a; x = x * 2; return x;}",
        "int x = 7; int f(int a){return (x + a) * 2;}",
        1, 16, {"x": 7},
    ),
    "loop-local-starts-fresh": (
        "int f(int n){int s = 0; int i = 0;"
        " while (i < 3) { int t; t = t + i; s = s + t; i = i + 1; } return s + n;}",
        "int f(int n){return n + 3;}",
        4, 7, {},
    ),
    "block-array-shadows-global-array": (
        "int a[2]; int f(int v){{ int a[2]; a[0] = v; a[1] = a[0] + 1; v = a[1]; }"
        " a[0] = v; return a[0] + a[1];}",
        "int a[2]; int f(int v){a[0] = v + 1; return a[0] + a[1];}",
        4, 5, {"a": [5, 0]},
    ),
    "recursive-frames-share-names": (
        "int f(int n){int r = n * 2; if (n > 0) { int s = f(n - 1); r = r + s; } return r;}",
        "int f(int n){if (n > 0) { return n * (n + 1); } return n * 2;}",
        3, 12, {},
    ),
}


def _snap(src: str, label: str = "s"):
    return snapshot_from_sources({"m.c": src}, label, WIDTH)


@pytest.mark.parametrize("case", sorted(CASES))
def test_interpreter(case):
    src, _, arg, ret, globals_after = CASES[case]
    snap = _snap(src)
    outcome = run_function(snap, snap.functions["f"], [arg])
    assert outcome.status == "ok"
    assert outcome.ret == ret
    assert {name: outcome.globals[name] for name in globals_after} == globals_after


@pytest.mark.parametrize("case", sorted(CASES))
def test_encoder_under_a_test(case, tmp_path):
    src, _, arg, ret, globals_after = CASES[case]
    checks = [f"assert(f({arg}) == {ret});"]
    for name, value in globals_after.items():
        if isinstance(value, list):
            checks += [f"assert({name}[{i}] == {v});" for i, v in enumerate(value)]
        else:
            checks.append(f"assert({name} == {value});")
    (tmp_path / "t.c").write_text(f"void test_f(){{{' '.join(checks)}}}")
    (t,), view = load_tests(tmp_path, _snap(src))
    result = verify_test(GeneralizedTest(t.name, t.body, [], manual=False), view, CFG)
    assert result == Pass(CFG.loop_bound, True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_miter_against_the_inlined_version(case):
    src, inlined, *_ = CASES[case]
    old, new = _snap(src, "old"), _snap(inlined, "new")
    verdict = check_equivalence(old.functions["f"], new.functions["f"], (old, new), CFG)
    assert isinstance(verdict, Equivalent) and verdict.mode == "formal"


# -- a tree the checker never saw ---------------------------------------------------

UNCHECKED = {
    "local": "int g; int f(int x){int y = x + 1; return y;}",
    "global": "int g; int f(int x){return g;}",
}


@pytest.mark.parametrize("kind", sorted(UNCHECKED))
def test_an_unchecked_tree_is_never_read(kind):
    """A parsed but unchecked function has no slots, and every user of a
    resolved name raises on it instead of reading its names as globals."""
    src = UNCHECKED[kind]
    snap = _snap(src)
    fn = parse_unit(src, "m.c").functions[0]
    with pytest.raises(ValueError, match="unresolved"):
        encode_ssa(fn, snap, CFG, TermBuilder())
    with pytest.raises(ValueError, match="unresolved"):
        run_function(snap, fn, [1])
    with pytest.raises(ValueError, match="unresolved"):
        alpha_key(fn)
