"""Golden outputs: stripped `cfv analyze` reports, exit codes and `cfv diff`
output on the bundled fixtures, so a refactor that must keep every report
byte is held to that on each test run.

Each case stores `<case>.report.json` (the report without its timings, as
`render_report(strip_timings(...))` prints it) and `<case>.diff.txt`. The
many-module `scale` corpus stores the sha256 of both texts instead, since
its report is about 135 KB. Runs whose verdicts depend on timing (such as
`timeout` at width 32) are left out.

To rewrite the files after an intended output change:
    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cfv
from cfv.cli import main
from cfv.report import render_report, strip_timings

from oracles import CORPUS
from test_harness import write_scale_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"

# (case, corpus directory under CORPUS or a scale seed, width, analyze exit code)
CASES = [
    ("minivec", "minivec", 32, 1),
    ("rename", "scenarios/rename", 32, 0),
    ("negindex", "scenarios/negindex", 8, 0),
    ("timeout", "scenarios/timeout", 8, 0),
    ("scale7", 7, 8, 1),
]
HASHED = {"scale7"}


def outputs(root: Path, width: int, out: Path) -> tuple[int, str, str]:
    """(analyze exit code, stripped report text, diff output) on root."""
    dirs = ["--old", str(root / "old"), "--new", str(root / "new")]
    with redirect_stdout(io.StringIO()):
        code = main(["analyze", *dirs, "--tests", str(root / "tests"),
                     "--width", str(width), "--out", str(out)])
    report = render_report(strip_timings(json.loads(out.read_text(encoding="utf-8"))))
    diff = io.StringIO()
    with redirect_stdout(diff):
        assert main(["diff", *dirs]) == 0
    return code, report, diff.getvalue()


def case_root(source, tmp: Path) -> Path:
    return write_scale_corpus(tmp, source) if isinstance(source, int) else CORPUS / source


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected(case: str) -> tuple[str, str]:
    suffix = ".sha256" if case in HASHED else ""
    return tuple(
        (GOLDEN / f"{case}.{kind}{suffix}").read_text(encoding="utf-8")
        for kind in ("report.json", "diff.txt")
    )


@pytest.mark.parametrize("case, source, width, code", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_the_golden_files(case, source, width, code, tmp_path):
    root = case_root(source, tmp_path / "corpus")
    got_code, report, diff = outputs(root, width, tmp_path / "report.json")
    assert got_code == code
    if case in HASHED:
        report, diff = sha256(report) + "\n", sha256(diff) + "\n"
    assert (report, diff) == expected(case)


# cfv itself needs nothing outside the standard library; only the test
# oracles use numpy. Each run gets a fresh interpreter, so nothing imported
# by the running tests counts.
SRC_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(Path(cfv.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]),
)
WITHOUT_NUMPY = "import sys; sys.modules['numpy'] = None; from cfv.cli import main; sys.exit(main(sys.argv[1:]))"


def test_cli_import_leaves_numpy_out():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cfv.cli; print('numpy' in sys.modules)"],
        env=SRC_ENV, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_analyze_without_numpy_matches_the_golden_report(tmp_path):
    root = CORPUS / "minivec"
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, "analyze", "--old", str(root / "old"),
         "--new", str(root / "new"), "--tests", str(root / "tests"),
         "--width", "32", "--out", str(out)],
        env=SRC_ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    report = render_report(strip_timings(json.loads(out.read_text(encoding="utf-8"))))
    assert report == expected("minivec")[0]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, source, width, _ in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            code, report, diff = outputs(case_root(source, tmp / "corpus"), width, tmp / "report.json")
        if case in HASHED:
            report, diff = sha256(report) + "\n", sha256(diff) + "\n"
        suffix = ".sha256" if case in HASHED else ""
        for kind, text in (("report.json", report), ("diff.txt", diff)):
            (GOLDEN / f"{case}.{kind}{suffix}").write_text(text, encoding="utf-8")
        print(f"{case}: exit {code}")
