"""Hand-written known answers and the checks that hold reports to them.

The corpus answers restate what tests/test_acceptance.py asserts about the
bundled fixtures (criteria 1, 2, 6 and 8), completed from the fixture diffs:
minivec's vec_count only commutes the operands of `==`, which the structural
stage does not accept, so it is proved equivalent formally. No answer here was
read off a cfv run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KnownAnswers:
    """Expected outcome of one `run_pipeline` call.

    `modified` maps each modified function to (equivalence kind, mode), with
    mode None when either mode is right. `selected` maps each selected test
    to its verification kind; unlisted tests must not be selected.
    """

    modified: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    renamed: list[tuple[str, str]] = field(default_factory=list)
    unchanged: list[str] = field(default_factory=list)
    selected: dict[str, str] = field(default_factory=dict)


MINIVEC_FUNCTIONS = (
    "vec_init", "vec_len", "vec_full", "vec_empty", "maxi", "mini", "clampi",
    "abs_index", "vec_get", "vec_set", "vec_push", "vec_pop", "vec_insert",
    "vec_remove", "vec_find", "vec_sum", "vec_count",
)

# corpus/minivec at width 32: the off-by-one in vec_insert is masked by the
# concrete insert test and caught by the generalized one (criteria 6 and 8).
MINIVEC = KnownAnswers(
    modified={
        "vec_count": ("equivalent", "formal"),
        "vec_insert": ("not_equivalent", None),
    },
    renamed=[("clampi", "clamp_value")],
    unchanged=[
        f for f in MINIVEC_FUNCTIONS if f not in ("vec_count", "vec_insert", "clampi")
    ],
    selected={"test_insert": "pass", "test_insert_general": "fail"},
)

# corpus/scenarios/rename at width 32 (criterion 1): no solver, no tests.
RENAME = KnownAnswers(
    renamed=[("absolute_index", "normalize_index")],
    unchanged=["first_item"],
)

# corpus/scenarios/negindex at width 8 (criterion 2 shows the difference at
# width 4; a negative index separates the versions at every width). The only
# test reaches get_at, but its literals sit in asserts, which generalization
# keeps verbatim, and the new version returns 5, 7 and -1 as asserted.
NEGINDEX = KnownAnswers(
    modified={"get_at": ("not_equivalent", None)},
    selected={"test_get_basics": "pass"},
)


@dataclass
class Item:
    """One check the tool ran: an equivalence pair or a verified test."""

    name: str
    kind: str  # verdict kind as the report spells it
    reason: str | None  # set for unknown verdicts
    wall_s: float
    limit_s: float
    failed: bool

    @property
    def decided(self) -> bool:
        return self.kind != "unknown"

    @property
    def timed_out(self) -> bool:
        return self.kind == "unknown" and self.reason == "timeout"


def verdict_matches(kind: str, mode: str | None, expected: tuple[str, str | None]) -> bool:
    """An undecided verdict is not a wrong one; a decided one must agree."""
    if kind == "unknown":
        return True
    want_kind, want_mode = expected
    return kind == want_kind and (want_mode is None or mode == want_mode)


def check_report(report: dict, known: KnownAnswers, limit_s: float) -> tuple[list[Item], list[str]]:
    """Items of a pipeline report, and the report-level mismatches.

    A report-level mismatch (wrong classification or selection) makes every
    item of the report count as failed, since the run cannot be trusted.
    """
    problems: list[str] = []
    changes = report["changes"]
    if changes["added"] or changes["removed"]:
        problems.append(f"added/removed: {changes['added']} {changes['removed']}")
    if changes["modified"] != sorted(known.modified):
        problems.append(f"modified: {changes['modified']}")
    renamed = sorted((r["old"], r["new"]) for r in changes["renamed"])
    if renamed != sorted(known.renamed):
        problems.append(f"renamed: {renamed}")
    if changes["unchanged"] != sorted(known.unchanged):
        problems.append("unchanged set differs")
    selected = sorted(s["test"] for s in report["selection"]["selected"])
    if selected != sorted(known.selected):
        problems.append(f"selected: {selected}")

    items: list[Item] = []
    renamed_new = {new for _, new in known.renamed}
    for entry in report["equivalence"]:
        name, verdict = entry["function"], entry["verdict"]
        if name in renamed_new:
            if verdict.get("mode") != "structural":
                problems.append(f"rename {name}: {verdict}")
            continue
        expected = known.modified.get(name)
        ok = expected is not None and verdict_matches(
            verdict["kind"], verdict.get("mode"), expected
        )
        items.append(
            Item(name, verdict["kind"], verdict.get("reason"),
                 entry["timings"]["wall_s"], limit_s, not ok)
        )
    for entry in report["verification"]:
        name, result = entry["test"], entry["result"]
        expected = known.selected.get(name)
        ok = expected is not None and verdict_matches(result["kind"], None, (expected, None))
        items.append(
            Item(name, result["kind"], result.get("reason"),
                 entry["timings"]["wall_s"], limit_s, not ok)
        )
    seen = {item.name for item in items}
    for name in sorted((set(known.modified) | set(known.selected)) - seen):
        problems.append(f"no entry for {name}")
        items.append(Item(name, "missing", None, 0.0, limit_s, True))
    if problems:
        for item in items:
            item.failed = True
    return items, problems
