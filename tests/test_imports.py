"""Every imported name is used: read somewhere in its module, or exported
through the module's `__all__`. `from __future__ import ...` is exempt."""

import ast

from oracles import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "cfv").rglob("*.py")) + sorted(
    (REPO_ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read and name not in exported
    ]


def test_the_check_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c\n__all__ = ['c']\nsys.exit()\n"
    assert unused_imports(source) == ["2: os", "3: b"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(REPO_ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
