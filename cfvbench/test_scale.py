"""Tests of the scale generator; they need no cfv import.

Run: python3 -m pytest -q cfvbench
"""

import re

import pytest

import scale


def test_same_seed_gives_identical_bytes():
    files_a, answers_a = scale.generate(7)
    files_b, answers_b = scale.generate(7)
    assert files_a == files_b
    assert answers_a == answers_b


def test_written_corpus_matches_generated_bytes(tmp_path):
    files, _ = scale.generate(3)
    scale.write_corpus(tmp_path, files)
    written = {
        str(p.relative_to(tmp_path)): p.read_bytes()
        for p in tmp_path.rglob("*") if p.is_file()
    }
    assert written == {rel: text.encode("utf-8") for rel, text in files.items()}


def test_seeds_only_permute_the_plan():
    a = scale.assign_edits(1, scale.DEFAULT_PLAN)
    b = scale.assign_edits(2, scale.DEFAULT_PLAN)
    assert a != b
    assert sorted(a) == sorted(b)
    assert len(a) == sum(scale.DEFAULT_PLAN.values())


def test_every_catalogue_edit_has_expected_verdicts():
    assert set(scale.DEFAULT_PLAN) == set(scale.CATALOGUE)
    for name, edit in scale.CATALOGUE.items():
        if name == "unchanged":
            assert not edit.source and not edit.modified and not edit.renamed
            continue
        # Every edit changes text and says what the change must classify as.
        assert edit.source, name
        assert edit.modified or edit.renamed, name
        for function, (kind, mode) in edit.modified.items():
            assert function in scale.TEMPLATE_FUNCTIONS, (name, function)
            assert kind in ("equivalent", "not_equivalent"), (name, kind)
            assert mode in (None, "structural", "formal"), (name, mode)
        # Only a real bug triggers test selection, and each selected test
        # has a verification verdict.
        bug = any(kind == "not_equivalent" for kind, _ in edit.modified.values())
        assert bool(edit.selected) == bug, name
        for test, kind in edit.selected.items():
            assert test in scale.TEMPLATE_TESTS, (name, test)
            assert kind in ("pass", "fail"), (name, test, kind)


@pytest.mark.parametrize("name", sorted(scale.CATALOGUE))
def test_each_edit_applies_to_its_own_module_only(name):
    plan = {"unchanged": 2} if name == "unchanged" else {"unchanged": 1, name: 1}
    files, answers = scale.generate(0, plan)
    edited = [k for k in range(2) if files[f"old/{scale.prefix(k)}vec.c"] != files[f"new/{scale.prefix(k)}vec.c"]]
    assert len(edited) == (0 if name == "unchanged" else 1)
    functions = 2 * len(scale.TEMPLATE_FUNCTIONS)
    renamed_old = {old for old, _ in answers.renamed}
    assert len(answers.unchanged) + len(answers.modified) + len(renamed_old) == functions


def test_template_names_match_the_sources():
    defined = set(re.findall(r"^\w+ @(\w+)\(", scale.VEC_C, re.M))
    assert defined == set(scale.TEMPLATE_FUNCTIONS)
    tests = set(re.findall(r"^void test_@(\w+)\(", scale.TESTS_C, re.M))
    assert tests == set(scale.TEMPLATE_TESTS)
