"""Snapshots: one type-checked version of a codebase.

A snapshot is loaded from a directory of `.c` files, from in-memory sources,
or from a base snapshot plus a unified diff (hunks are applied to the text
of the base's units before parsing). All units of a snapshot share one
global namespace and are type-checked together. The snapshot holds its
units, the type checker's result, its globals and functions by name, and
the integer width its values have: the syntax has no width, so
`snapshot_from_sources`, which every snapshot built from text goes through,
is where a width is validated. Each unit keeps the text it was parsed from,
and each function its own body text (`FunctionDef.body_text`), which is
what change classification compares.

A new version is loaded against the old snapshot, its base, and shares
with it what did not change. A file whose text and relative path equal a
base unit's is that unit and is not lexed. In any other file the parser
takes each base declaration that starts at the same offset, line and
column with the same text (`parser.parse_unit`). The type check takes the
base's globals and functions, and a declaration shared with them is not
checked again, so nothing reachable from the base is written to; when a
global a shared function reads or writes, or a function it calls, is
declared differently here, its unit is parsed afresh and checked
(`typecheck.stale_units`). So
the result, its diagnostics included, is what a load without a base gives,
and a declaration that kept its text and position is the same object on
both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from cfv.errors import Diagnostic, InputError
from cfv.minic.ast import DUMMY_SPAN, FunctionDef, GlobalDecl, SourceUnit, Span
from cfv.minic.parser import parse_unit
from cfv.minic.typecheck import stale_units, type_check

VALID_WIDTHS = (4, 8, 16, 32)


@dataclass
class Snapshot:
    label: str
    units: list[SourceUnit]
    globals: dict[str, GlobalDecl]
    functions: dict[str, FunctionDef]
    width: int


def read_source(path: Path) -> str:
    """Text of a source file; bytes that are not UTF-8 raise InputError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        data, at = err.object, err.start
        line = data.count(b"\n", 0, at) + 1
        col = at - data.rfind(b"\n", 0, at)
        message = f"byte 0x{data[at]:02x} is not valid UTF-8"
        span = Span(line, col, at, at + 1)
        raise InputError([Diagnostic(str(path), span, message)]) from None


def read_sources(directory: Path) -> dict[str, str]:
    """{path relative to directory: text} of every `.c` file below it, in
    sorted order."""
    return {
        str(p.relative_to(directory)): read_source(p)
        for p in sorted(directory.rglob("*.c"))
    }


def under(origin: Path, err: InputError) -> InputError:
    """err with every diagnostic path joined to where its file came from:
    the directory it was read from, or the diff that patched it. So errors
    of two snapshots' same-named files differ."""
    return InputError(
        [replace(d, path=str(origin / d.path)) for d in err.diagnostics]
    )


def snapshot_from_sources(
    sources: dict[str, str], label: str, width: int = 32, base: Snapshot | None = None
) -> Snapshot:
    """Build a snapshot from {path: source} mappings, against base, an
    earlier snapshot of the same code, when one is given.

    Raises ValueError for a width outside VALID_WIDTHS, and InputError
    carrying all parse/type diagnostics.
    """
    if width not in VALID_WIDTHS:
        raise ValueError(f"width must be one of {VALID_WIDTHS}, got {width}")
    base_units = {} if base is None else {u.path: u for u in base.units}
    checked = ({}, {}) if base is None else (base.globals, base.functions)
    units: list[SourceUnit] = []
    diagnostics: list[Diagnostic] = []
    for path in sorted(sources):
        try:
            units.append(parse_unit(sources[path], path, base_units.get(path)))
        except InputError as err:
            diagnostics.extend(err.diagnostics)
    if diagnostics:
        raise InputError(diagnostics)
    # A shared function that would check differently here is parsed again
    # with the rest of its unit and checked afresh.
    stale = stale_units(units, checked)
    units = [parse_unit(u.text, u.path) if u.path in stale else u for u in units]
    return Snapshot(label, units, *type_check(units, checked), width)


def load_snapshot(
    directory: str | Path, width: int = 32, base: Snapshot | None = None
) -> Snapshot:
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError([Diagnostic(str(directory), DUMMY_SPAN, "not a directory")])
    sources = read_sources(directory)
    if not sources:
        raise InputError([Diagnostic(str(directory), DUMMY_SPAN, "no .c files found")])
    try:
        return snapshot_from_sources(sources, directory.name, width, base)
    except InputError as err:
        raise under(directory, err) from None


# ---------------------------------------------------------------------------
# Unified diff support


class DiffError(ValueError):
    pass


def _parse_range(spec: str) -> tuple[int, int]:
    spec = spec.lstrip("-+")
    if "," in spec:
        start, count = spec.split(",")
        return int(start), int(count)
    return int(spec), 1


def apply_unified_diff(base: dict[str, str], diff_text: str) -> dict[str, str]:
    """Apply a unified diff to {path: text}, returning the patched mapping.

    Strict, as `git apply` is: context lines must match the base text
    exactly, a text with no `---`/`+++` file header is an error, and so are
    a file header with no hunk after it, a hunk with fewer lines than its
    header counts and a hunk line after the counts are used up. Lines
    between files that are not hunk lines (such as `diff --git`, `index`
    and `\\ No newline at end of file`) are skipped. Understands `a/`-`b/`
    prefixes and /dev/null for added or deleted files.
    """
    result = dict(base)
    lines = diff_text.splitlines()
    i = 0
    found_header = False

    def strip_prefix(name: str) -> str:
        name = name.split("\t")[0].strip()
        if name.startswith(("a/", "b/")):
            return name[2:]
        return name

    def at_file_header(i: int) -> bool:
        return (
            lines[i].startswith("--- ")
            and i + 1 < len(lines)
            and lines[i + 1].startswith("+++ ")
        )

    while i < len(lines):
        if not lines[i].startswith("--- "):
            i += 1
            continue
        old_name = strip_prefix(lines[i][4:])
        if not at_file_header(i):
            raise DiffError(f"missing +++ line after line {i + 1}")
        found_header = True
        new_name = strip_prefix(lines[i + 1][4:])
        i += 2
        if old_name == "/dev/null":
            old_lines: list[str] = []
        else:
            if old_name not in result:
                raise DiffError(f"diff refers to unknown file {old_name!r}")
            old_lines = result[old_name].splitlines()
        new_lines = list(old_lines)
        offset = 0
        hunks = 0
        while i < len(lines) and not at_file_header(i):
            header = lines[i]
            if header[:1] in (" ", "+", "-"):
                raise DiffError(f"line {i + 1} is outside any hunk: {header!r}")
            i += 1
            if not header.startswith("@@"):
                continue  # a "\ No newline" marker or the next file's preamble
            try:
                ranges = header.split("@@")[1].strip().split()
                old_start, old_count = _parse_range(ranges[0])
                _, new_count = _parse_range(ranges[1])
            except (IndexError, ValueError) as exc:
                raise DiffError(f"bad hunk header {header!r}") from exc
            hunks += 1
            cursor = max(old_start - 1, 0) + offset
            old_left, new_left = old_count, new_count
            while old_left > 0 or new_left > 0:
                if i >= len(lines) or at_file_header(i):
                    raise DiffError(f"truncated hunk {header!r} in {old_name}")
                line = lines[i]
                tag = line[:1]
                if tag == " " or line == "":
                    expect = line[1:]
                    if cursor >= len(new_lines) or new_lines[cursor] != expect:
                        raise DiffError(f"context mismatch at {old_name}:{cursor + 1}")
                    cursor += 1
                    old_left -= 1
                    new_left -= 1
                elif tag == "-":
                    expect = line[1:]
                    if cursor >= len(new_lines) or new_lines[cursor] != expect:
                        raise DiffError(f"delete mismatch at {old_name}:{cursor + 1}")
                    del new_lines[cursor]
                    offset -= 1
                    old_left -= 1
                elif tag == "+":
                    new_lines.insert(cursor, line[1:])
                    cursor += 1
                    offset += 1
                    new_left -= 1
                elif tag == "\\":
                    pass  # "\ No newline at end of file"
                else:
                    raise DiffError(f"unexpected line in hunk: {line!r}")
                i += 1
            if old_left or new_left:
                raise DiffError(f"hunk {header!r} in {old_name} does not match its counts")
        if not hunks:
            raise DiffError(f"no hunk after the file header of {old_name}")
        if new_name == "/dev/null":
            result.pop(old_name, None)
        else:
            result[new_name] = "\n".join(new_lines) + ("\n" if new_lines else "")
            if old_name != new_name and old_name != "/dev/null":
                result.pop(old_name, None)
    if not found_header:
        raise DiffError("no file header (--- and +++ lines) in the diff")
    return result


def load_snapshot_from_diff(base: Snapshot, diff_path: str | Path) -> Snapshot:
    """base with a unified diff applied to the text of its units, loaded
    against base."""
    diff_text = read_source(Path(diff_path))
    try:
        patched = apply_unified_diff({u.path: u.text for u in base.units}, diff_text)
    except DiffError as err:
        raise InputError([Diagnostic(str(diff_path), DUMMY_SPAN, str(err))]) from None
    try:
        return snapshot_from_sources(
            patched, f"{base.label}+{Path(diff_path).name}", base.width, base
        )
    except InputError as err:
        raise under(Path(diff_path), err) from None
