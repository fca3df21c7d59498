"""Seeded synthetic corpus for the `scale` workload.

The corpus is K prefixed copies of the minivec fixture plus its tests. Every
copy ("module") receives exactly one edit from CATALOGUE, and the seed only
decides which module gets which edit: the multiset of edits is fixed by the
plan, so every seed asks for the same amount of work. Each edit carries the
verdicts it must produce, worked out by hand from the source text at
EXPECTED_WIDTH; nothing here is derived from running cfv.

The template is kept here on purpose, so that the workload does not move when
the bundled corpus or the package's own test generators change. `@` in the
template stands for the module prefix, e.g. `m07_`.

Run `python3 cfvbench/scale.py --seed 3 --out DIR` to write one corpus.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from pathlib import Path

from known import KnownAnswers

# The verdicts below are stated for this width; at width 4 the generalized
# insert query already fails, so other widths need their own answers.
EXPECTED_WIDTH = 8

VEC_C = """\
/* Bounded int vector backed by a fixed global buffer. */

int @data[8];
int @length = 0;

void @vec_init() {
    @length = 0;
    int i = 0;
    while (i < 8) {
        @data[i] = 0;
        i = i + 1;
    }
}

int @vec_len() {
    return @length;
}

bool @vec_full() {
    return @length >= 8;
}

bool @vec_empty() {
    return @length == 0;
}

int @maxi(int a, int b) {
    if (a > b) { return a; }
    return b;
}

int @mini(int a, int b) {
    if (a < b) { return a; }
    return b;
}

int @clampi(int x, int lo, int hi) {
    return @maxi(lo, @mini(x, hi));
}

int @abs_index(int idx) {
    if (idx < 0) { return idx + @length; }
    return idx;
}

int @vec_get(int idx) {
    int i = @abs_index(idx);
    if (i < 0) { return 0 - 1; }
    if (i >= @length) { return 0 - 1; }
    return @data[i];
}

int @vec_set(int idx, int val) {
    int i = @abs_index(idx);
    if (i < 0) { return 0 - 1; }
    if (i >= @length) { return 0 - 1; }
    @data[i] = val;
    return 0;
}

int @vec_push(int val) {
    if (@vec_full()) { return 0 - 1; }
    @data[@length] = val;
    @length = @length + 1;
    return 0;
}

int @vec_pop() {
    if (@length == 0) { return 0 - 1; }
    @length = @length - 1;
    return @data[@length];
}

int @vec_insert(int pos, int val) {
    if (@vec_full()) { return 0 - 1; }
    if (pos < 0) { return 0 - 1; }
    if (pos > @length) { return 0 - 1; }
    int i = @length;
    while (i > pos) {
        @data[i] = @data[i - 1];
        i = i - 1;
    }
    @data[pos] = val;
    @length = @length + 1;
    return 0;
}

int @vec_remove(int pos) {
    if (pos < 0) { return 0 - 1; }
    if (pos >= @length) { return 0 - 1; }
    int removed = @data[pos];
    int i = pos;
    while (i < @length - 1) {
        @data[i] = @data[i + 1];
        i = i + 1;
    }
    @length = @length - 1;
    return removed;
}

int @vec_find(int val) {
    int i = 0;
    while (i < @length) {
        if (@data[i] == val) { return i; }
        i = i + 1;
    }
    return 0 - 1;
}

int @vec_sum() {
    int s = 0;
    int i = 0;
    while (i < @length) {
        s = s + @data[i];
        i = i + 1;
    }
    return s;
}

int @vec_count(int val) {
    int n = 0;
    int i = 0;
    while (i < @length) {
        if (@data[i] == val) { n = n + 1; }
        i = i + 1;
    }
    return n;
}
"""

TESTS_C = """\
// vec_init
void test_@init() {
    @vec_init();
    assert(@vec_len() == 0);
    assert(@vec_empty());
    assert(!@vec_full());
}

// vec_push
void test_@push() {
    @vec_init();
    assert(@vec_push(10) == 0);
    assert(@vec_len() == 1);
    assert(@vec_get(0) == 10);
    assert(!@vec_empty());
}

// vec_push until full
void test_@push_full() {
    @vec_init();
    int i = 0;
    while (i < 8) {
        assert(@vec_push(i) == 0);
        i = i + 1;
    }
    assert(@vec_full());
    assert(@vec_push(99) == 0 - 1);
    assert(@vec_len() == 8);
}

// vec_pop
void test_@pop() {
    @vec_init();
    @vec_push(4);
    @vec_push(5);
    assert(@vec_pop() == 5);
    assert(@vec_pop() == 4);
    assert(@vec_pop() == 0 - 1);
    assert(@vec_empty());
}

// vec_get and vec_set, with tail positions
void test_@get_set() {
    @vec_init();
    @vec_push(1);
    @vec_push(2);
    @vec_push(3);
    assert(@vec_get(0 - 1) == 3);
    assert(@vec_set(1, 20) == 0);
    assert(@vec_get(1) == 20);
    assert(@vec_get(5) == 0 - 1);
    assert(@vec_set(0 - 4, 9) == 0 - 1);
}

// vec_remove
void test_@remove() {
    @vec_init();
    @vec_push(1);
    @vec_push(2);
    @vec_push(3);
    assert(@vec_remove(1) == 2);
    assert(@vec_len() == 2);
    assert(@vec_get(0) == 1);
    assert(@vec_get(1) == 3);
    assert(@vec_remove(7) == 0 - 1);
}

// vec_find
void test_@find() {
    @vec_init();
    @vec_push(5);
    @vec_push(6);
    @vec_push(5);
    assert(@vec_find(5) == 0);
    assert(@vec_find(6) == 1);
    assert(@vec_find(42) == 0 - 1);
}

// vec_sum
void test_@sum() {
    @vec_init();
    assert(@vec_sum() == 0);
    @vec_push(3);
    @vec_push(4);
    assert(@vec_sum() == 7);
}

// vec_count
void test_@count() {
    @vec_init();
    @vec_push(5);
    @vec_push(6);
    @vec_push(5);
    assert(@vec_count(5) == 2);
    assert(@vec_count(9) == 0);
}

// clampi
void test_@clamp() {
    assert(@clampi(10, 0, 5) == 5);
    assert(@clampi(0 - 3, 0, 5) == 0);
    assert(@clampi(2, 0, 5) == 2);
}

// maxi and mini
void test_@minmax() {
    assert(@maxi(2, 3) == 3);
    assert(@mini(2, 3) == 2);
    assert(@maxi(0 - 1, 1) == 1);
}

// vec_insert at the boundaries
void test_@insert() {
    @vec_init();
    int p = 0;
    int v = 7;
    assert(@vec_insert(p, v) == 0);
    assert(@vec_get(0) == 7);
    p = @vec_len();
    v = 9;
    assert(@vec_insert(p, v) == 0);
    assert(@vec_get(1) == 9);
    assert(@vec_len() == 2);
}

// vec_insert generalized
void test_@insert_general() {
    @vec_init();
    @vec_push(10);
    @vec_push(20);
    int val = nondet_int();
    int pos = nondet_int();
    assume(pos >= 0);
    assume(pos <= @vec_len());
    int before = @vec_sum();
    assert(@vec_insert(pos, val) == 0);
    assert(@vec_get(pos) == val);
    assert(@vec_sum() == before + val);
    assert(@vec_len() == 3);
}
"""

TEMPLATE_FUNCTIONS = (
    "vec_init", "vec_len", "vec_full", "vec_empty", "maxi", "mini", "clampi",
    "abs_index", "vec_get", "vec_set", "vec_push", "vec_pop", "vec_insert",
    "vec_remove", "vec_find", "vec_sum", "vec_count",
)
TEMPLATE_TESTS = (
    "init", "push", "push_full", "pop", "get_set", "remove", "find", "sum",
    "count", "clamp", "minmax", "insert", "insert_general",
)


@dataclass(frozen=True)
class Edit:
    """One catalogue entry and the verdicts it must produce.

    `source` holds (old text, new text) replacements, each of which must
    match the template exactly once. Names are unprefixed template names.
    """

    name: str
    source: tuple[tuple[str, str], ...] = ()
    # modified function -> (equivalence kind, mode or None when any mode)
    modified: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    renamed: tuple[tuple[str, str], ...] = ()
    # selected test (without the test_ prefix) -> verification kind
    selected: dict[str, str] = field(default_factory=dict)


CATALOGUE: dict[str, Edit] = {
    e.name: e
    for e in (
        Edit("unchanged"),
        # A comment inside a body changes the bytes but not the AST: the
        # structural stage decides it without a solver.
        Edit(
            "comment",
            source=(("    int s = 0;\n", "    int s = 0; /* running total */\n"),),
            modified={"vec_sum": ("equivalent", "structural")},
        ),
        # The corpus rename; generate() points the test's calls at the new
        # name. Nothing calls clampi from the snapshot, so no other function
        # changes.
        Edit(
            "rename",
            source=(("int @clampi(", "int @clamp_value("),),
            renamed=(("clampi", "clamp_value"),),
        ),
        # Commuted operands are not structurally equal, so the formal stage
        # runs; both sides denote the same value on every input.
        Edit(
            "commute_eq",
            source=(("if (@data[i] == val) { n = n + 1; }", "if (val == @data[i]) { n = n + 1; }"),),
            modified={"vec_count": ("equivalent", "formal")},
        ),
        Edit(
            "commute_add",
            source=(("s = s + @data[i];", "s = @data[i] + s;"),),
            modified={"vec_sum": ("equivalent", "formal")},
        ),
        # mini returns the larger operand: mini(0, 1) separates the versions.
        # Only test_clamp (through clampi) and test_minmax reach mini; their
        # literals sit inside asserts, which generalization leaves alone, so
        # both run concretely and fail: clampi(10, 0, 5) gives 10 and
        # mini(2, 3) gives 3.
        Edit(
            "bug_mini",
            source=(("    if (a < b) { return a; }\n", "    if (a > b) { return a; }\n"),),
            modified={"mini": ("not_equivalent", None)},
            selected={"clamp": "fail", "minmax": "fail"},
        ),
        # vec_empty also holds for a negative length, which the shared
        # symbolic state can reach, so the versions differ. The tests that
        # reach vec_empty only ever see lengths 0 and 1, where both agree.
        Edit(
            "bug_empty",
            source=(("return @length == 0;", "return @length <= 0;"),),
            modified={"vec_empty": ("not_equivalent", None)},
            selected={"init": "pass", "push": "pass", "pop": "pass"},
        ),
    )
}

# Edit counts for the default 40 modules: mostly cheap, solver-free edits,
# with a few real bugs so that selection, verification and replay all run.
DEFAULT_PLAN: dict[str, int] = {
    "unchanged": 10,
    "comment": 6,
    "rename": 6,
    "commute_eq": 6,
    "commute_add": 6,
    "bug_mini": 3,
    "bug_empty": 3,
}


def prefix(k: int) -> str:
    return f"m{k:02d}_"


def _apply(text: str, subs: tuple[tuple[str, str], ...], what: str) -> str:
    for old, new in subs:
        count = text.count(old)
        if count != 1:
            raise ValueError(f"{what}: {old!r} matches {count} times, expected 1")
        text = text.replace(old, new)
    return text


def assign_edits(seed: int, plan: dict[str, int]) -> list[str]:
    """Edit name per module index: the plan's multiset, shuffled by seed."""
    names = [name for name in sorted(plan) for _ in range(plan[name])]
    unknown = set(names) - set(CATALOGUE)
    if unknown:
        raise ValueError(f"plan names unknown edits: {sorted(unknown)}")
    random.Random(seed).shuffle(names)
    return names


def generate(seed: int, plan: dict[str, int] | None = None) -> tuple[dict[str, str], KnownAnswers]:
    """Files of one corpus ({relative path: text}) and their known answers.

    Paths are `old/*.c`, `new/*.c` and `tests/*.c`.
    """
    edits = assign_edits(seed, DEFAULT_PLAN if plan is None else plan)
    files: dict[str, str] = {}
    expected = KnownAnswers()
    for k, edit_name in enumerate(edits):
        edit = CATALOGUE[edit_name]
        p = prefix(k)
        new_src = _apply(VEC_C, edit.source, edit_name)
        tests = TESTS_C
        for old, new in edit.renamed:
            tests = tests.replace(f"@{old}(", f"@{new}(")
        files[f"old/{p}vec.c"] = VEC_C.replace("@", p)
        files[f"new/{p}vec.c"] = new_src.replace("@", p)
        files[f"tests/{p}tests.c"] = tests.replace("@", p)

        touched = set(edit.modified) | {old for old, _ in edit.renamed}
        for name, verdict in edit.modified.items():
            expected.modified[p + name] = verdict
        expected.renamed += [(p + old, p + new) for old, new in edit.renamed]
        expected.unchanged += [p + f for f in TEMPLATE_FUNCTIONS if f not in touched]
        for test, kind in edit.selected.items():
            expected.selected[f"test_{p}{test}"] = kind
    return files, expected


def write_corpus(out_dir: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    files, _ = generate(args.seed)
    write_corpus(args.out, files)
    print(f"wrote {len(files)} files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
