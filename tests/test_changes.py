import random

import pytest
from hypothesis import given, settings, strategies as st

from cfv.changes import compute_changeset, structural_equiv
from cfv.cli import main
from cfv.errors import InputError
from cfv.minic.printer import format_unit
from cfv.snapshot import (
    DiffError,
    apply_unified_diff,
    load_snapshot,
    load_snapshot_from_diff,
    snapshot_from_sources,
)

from generators import FunctionGen, mutate_function
from oracles import CORPUS


def category_partition(cs) -> list[set[str]]:
    return [
        set(cs.added),
        set(cs.removed),
        set(cs.modified_names),
        {old for old, _ in cs.renamed} | {new for _, new in cs.renamed},
        set(cs.unchanged),
    ]


def snap(src: str, label: str = "s", width: int = 8):
    return snapshot_from_sources({"t.c": src}, label, width)


class TestStructuralEquiv:
    def test_comments_do_not_matter(self):
        a = snap("int f(int x){return x + 1;}")
        b = snap("int f(int x){/* bump */ return x + 1; // done\n}")
        assert structural_equiv(a.functions["f"], b.functions["f"])

    def test_local_renames_do_not_matter(self):
        a = snap("int f(int x){int tmp = x; return tmp;}")
        b = snap("int f(int y){int result = y; return result;}")
        assert structural_equiv(a.functions["f"], b.functions["f"])

    def test_operand_order_matters(self):
        a = snap("int f(int a, int b){return a + b;}")
        b = snap("int f(int a, int b){return b + a;}")
        assert not structural_equiv(a.functions["f"], b.functions["f"])

    def test_signature_must_match(self):
        a = snap("int f(int x){return x;}")
        b = snap("int f(bool x){if (x) { return 1; } return 0;}")
        assert not structural_equiv(a.functions["f"], b.functions["f"])

    @given(st.integers(0, 5_000))
    @settings(max_examples=40)
    def test_equivalence_relation_properties(self, seed):
        rng = random.Random(seed)
        unit = FunctionGen(rng, width=8).function()
        variants = []
        for _ in range(3):
            mutated = mutate_function(rng, unit, 8)
            variants.append(
                snap(format_unit(mutated)).functions["f"]
            )
        a, b, c = variants
        assert structural_equiv(a, a)
        assert structural_equiv(a, b) == structural_equiv(b, a)
        if structural_equiv(a, b) and structural_equiv(b, c):
            assert structural_equiv(a, c)


class TestChangeSet:
    def test_identical_snapshots_all_unchanged(self):
        src = "int f(int x){return x;} int g(){return 0;}"
        cs = compute_changeset(snap(src, "a"), snap(src, "b"))
        assert sorted(cs.unchanged) == ["f", "g"]
        assert not cs.added and not cs.removed and not cs.modified and not cs.renamed

    def test_rename_detected(self):
        old = snap("int f(int x){int t = x; return t + 1;}")
        new = snap("int g(int v){int u = v; return u + 1;}")
        cs = compute_changeset(old, new)
        assert cs.renamed == [("f", "g")]
        assert not cs.added and not cs.removed

    def test_global_named_like_a_parameter_blocks_the_rename(self):
        old = snap("int p0 = 5; int g(int a){return p0;}")
        new = snap("int p0 = 5; int h(int p0){return p0;}")
        cs = compute_changeset(old, new)
        assert (cs.removed, cs.added, cs.renamed) == (["g"], ["h"], [])

    def test_rename_pairs_with_the_least_equal_new_name(self):
        old = snap("int a(int x){return x;}\nint b(int x){return x + 1;}\nint c(int x){return x;}")
        new = snap("int d(int y){return y + 1;}\nint e(int y){return y;}\nint f(int y){return y;}")
        cs = compute_changeset(old, new)
        assert cs.renamed == [("a", "e"), ("b", "d"), ("c", "f")]

    def test_rename_pairs_greedily_by_old_name(self):
        body = "{return 7;}"
        old = snap(f"int a1()\n{body}\nint a2()\n{body}")
        new = snap(f"int b1()\n{body}\nint b2()\n{body}")
        cs = compute_changeset(old, new)
        assert cs.renamed == [("a1", "b1"), ("a2", "b2")]

    def test_body_change_is_modified(self):
        old = snap("int f(){return 0;}")
        new = snap("int f(){return 1;}")
        cs = compute_changeset(old, new)
        assert [fn.name for _, fn in cs.modified] == ["f"]

    def test_comment_only_change_is_modified_not_unchanged(self):
        # Byte-level comparison sends it to the equivalence stage, where the
        # structural check disposes of it without a solver.
        old = snap("int f(){return 0;}")
        new = snap("int f(){/*x*/return 0;}")
        cs = compute_changeset(old, new)
        assert [fn.name for _, fn in cs.modified] == ["f"]
        assert structural_equiv(*cs.modified[0])

    def test_added_and_removed(self):
        old = snap("int f(){return 0;}")
        new = snap("int g(int x){return x;}")
        cs = compute_changeset(old, new)
        assert cs.added == ["g"] and cs.removed == ["f"]

    def test_initializer_change_marks_readers(self):
        old = snap("int lim = 4; int f(int x){return x + lim;} int g(){return 1;}")
        new = snap("int lim = 5; int f(int x){return x + lim;} int g(){return 1;}")
        cs = compute_changeset(old, new)
        assert cs.modified_names == ["f"]
        assert cs.state_affected == {"f"}
        assert "g" in cs.unchanged

    @given(st.integers(0, 5_000))
    @settings(max_examples=40)
    def test_categories_partition_the_name_universe(self, seed):
        rng = random.Random(seed)
        gen = FunctionGen(rng, width=8)
        unit = gen.function()
        old = snap(format_unit(unit), "old")
        new = snap(format_unit(mutate_function(rng, unit, 8)), "new")
        cs = compute_changeset(old, new)
        universe = set(old.functions) | set(new.functions)
        parts = category_partition(cs)
        assert set().union(*parts) == universe
        total = sum(len(p) for p in parts)
        assert total == len(universe) + len(cs.renamed)  # renames span both sides

    def test_self_changeset_is_all_unchanged(self):
        src = "int f(int x){while (x > 0) { x = x - 1; } return x;}"
        s = snap(src)
        cs = compute_changeset(s, s)
        assert cs.unchanged == ["f"] and not cs.modified


class TestUnifiedDiff:
    BASE = {"a.c": "int f()\n{\n    return 1;\n}\n"}

    def test_modify_in_place(self):
        diff = (
            "--- a/a.c\n"
            "+++ b/a.c\n"
            "@@ -1,4 +1,4 @@\n"
            " int f()\n"
            " {\n"
            "-    return 1;\n"
            "+    return 2;\n"
            " }\n"
        )
        patched = apply_unified_diff(self.BASE, diff)
        assert "return 2;" in patched["a.c"]

    def test_add_file(self):
        diff = (
            "--- /dev/null\n"
            "+++ b/b.c\n"
            "@@ -0,0 +1,1 @@\n"
            "+int g(){return 0;}\n"
        )
        patched = apply_unified_diff(self.BASE, diff)
        assert patched["b.c"] == "int g(){return 0;}\n"

    def test_delete_file(self):
        diff = (
            "--- a/a.c\n"
            "+++ /dev/null\n"
            "@@ -1,4 +0,0 @@\n"
            "-int f()\n"
            "-{\n"
            "-    return 1;\n"
            "-}\n"
        )
        patched = apply_unified_diff(self.BASE, diff)
        assert "a.c" not in patched

    def test_context_mismatch_is_an_error(self):
        diff = (
            "--- a/a.c\n"
            "+++ b/a.c\n"
            "@@ -1,2 +1,2 @@\n"
            " int WRONG()\n"
            "-{\n"
            "+{ \n"
        )
        with pytest.raises(ValueError):
            apply_unified_diff(self.BASE, diff)

    # Each text below is one that `git apply` rejects.
    def test_a_text_without_a_file_header_is_an_error(self, tmp_path):
        for text in ("", "not a patch\n", "@@ -1,1 +1,1 @@\n-int f()\n+int g()\n"):
            with pytest.raises(DiffError, match="no file header"):
                apply_unified_diff(self.BASE, text)
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("not a patch\n")
        assert main(["diff", "--old", str(CORPUS / "minivec" / "old"), "--diff", str(garbage)]) == 3

    @pytest.mark.parametrize(
        "rest",
        ["", "--- /dev/null\n+++ b/b.c\n@@ -0,0 +1,1 @@\n+int g(){return 0;}\n"],
        ids=["end-of-text", "next-file"],
    )
    def test_a_file_header_without_a_hunk_is_an_error(self, tmp_path, capsys, rest):
        with pytest.raises(DiffError, match="no hunk after the file header of a.c"):
            apply_unified_diff(self.BASE, "--- a/a.c\n+++ b/a.c\n" + rest)
        header = tmp_path / "hdr.diff"
        header.write_text("--- a/vec.c\n+++ b/vec.c\n" + rest.replace("b.c", "extra.c"))
        old = str(CORPUS / "minivec" / "old")
        assert main(["diff", "--old", old, "--diff", str(header)]) == 3
        assert capsys.readouterr().err.startswith(f"{header}:")

    @pytest.mark.parametrize(
        "rest",
        ["", "--- /dev/null\n+++ b/b.c\n@@ -0,0 +1,1 @@\n+int g(){return 0;}\n"],
        ids=["end-of-text", "next-file"],
    )
    def test_a_truncated_hunk_is_an_error(self, rest):
        diff = "--- a/a.c\n+++ b/a.c\n@@ -1,4 +1,4 @@\n int f()\n {\n-    return 1;\n+    return 2;\n"
        with pytest.raises(DiffError, match="truncated hunk"):
            apply_unified_diff(self.BASE, diff + rest)

    @pytest.mark.parametrize(
        "body",
        [
            "-    return 1;\n+    return 2;\n+    int extra = 1;\n",
            "-    return 1;\n+    return 2;\n }\n",
            "-    return 1;\n+    return 2;\n-}\n",
            "-    return 1;\n-}\n+    return 2;\n",
        ],
        ids=["added", "context", "deleted", "deleted-within-the-new-count"],
    )
    def test_hunk_lines_past_the_counts_are_an_error(self, body):
        diff = "--- a/a.c\n+++ b/a.c\n@@ -3,1 +3,1 @@\n" + body
        with pytest.raises(DiffError):
            apply_unified_diff(self.BASE, diff)

    def test_git_preamble_lines_apply(self):
        diff = (
            "diff --git a/a.c b/a.c\n"
            "index 3b18e51..a0c4f3b 100644\n"
            "--- a/a.c\n"
            "+++ b/a.c\n"
            "@@ -1,4 +1,4 @@\n"
            " int f()\n"
            " {\n"
            "-    return 1;\n"
            "+    return 2;\n"
            " }\n"
            "\\ No newline at end of file\n"
            "diff --git a/b.c b/b.c\n"
            "new file mode 100644\n"
            "index 0000000..1f2a3b4\n"
            "--- /dev/null\n"
            "+++ b/b.c\n"
            "@@ -0,0 +1,1 @@\n"
            "+int g(){return 0;}\n"
        )
        assert apply_unified_diff(self.BASE, diff) == {
            "a.c": "int f()\n{\n    return 2;\n}\n",
            "b.c": "int g(){return 0;}\n",
        }

    def test_load_snapshot_from_diff(self, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        (base / "a.c").write_text(self.BASE["a.c"])
        diff_file = tmp_path / "change.diff"
        diff_file.write_text(
            "--- a/a.c\n"
            "+++ b/a.c\n"
            "@@ -1,4 +1,4 @@\n"
            " int f()\n"
            " {\n"
            "-    return 1;\n"
            "+    return 2;\n"
            " }\n"
        )
        old = load_snapshot(base, width=8)
        new = load_snapshot_from_diff(old, diff_file)
        cs = compute_changeset(old, new)
        assert cs.modified_names == ["f"]

    def test_bad_diff_becomes_input_error(self, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        (base / "a.c").write_text(self.BASE["a.c"])
        diff_file = tmp_path / "change.diff"
        diff_file.write_text("--- a/missing.c\n+++ b/missing.c\n@@ -1,1 +1,1 @@\n-x\n+y\n")
        with pytest.raises(InputError):
            load_snapshot_from_diff(load_snapshot(base, width=8), diff_file)
