"""Import hygiene, checked on the source without importing it.

Every imported name is used: read somewhere in its module, or exported
through the module's `__all__`. `from __future__ import ...` is exempt.

The reference interpreter judges the encoder, the blaster and the solver,
so nothing it imports, directly or through other `cfv` modules, reaches
them, and the encoder takes from it nothing but `MAX_CALL_DEPTH`, so the
two build a test's initial state apart. The frontend (`cfv.minic`) reaches no `cfv` module but `cfv.errors`. No `cfv` module imports `subprocess`: every query is decided by the
in-process solver. `errors.Timeout` is raised in one place only,
`errors.check_deadline`, which every deadline poll calls. No module
raises `RuntimeError`: a bug cfv detects in itself is an
`errors.InternalError`, which the CLI reports in one line. And only
`equivalence.py` and `verify.py` construct a decided verdict; the pipeline
constructs only the Unknown of an item its budget does not run.
"""

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


def module_path(name: str):
    base = REPO_ROOT.joinpath("src", *name.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def reached_from(root: str) -> set[str]:
    """The cfv modules that importing root runs: its packages, and what
    every import statement in them names, followed transitively. A name
    imported from a package counts when it is a submodule."""
    seen: set[str] = set()
    stack = [root]
    while stack:
        name = stack.pop()
        if name in seen or not module_path(name).exists():
            continue
        seen.add(name)
        parts = name.split(".")
        stack += [".".join(parts[:i]) for i in range(1, len(parts))]
        stack += imported_modules(module_path(name))
    return seen


def imported_modules(path) -> list[str]:
    """What every import statement of the source at path names, with each
    name of a `from` import also taken as a possible submodule."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


JUDGED = {f"cfv.{m}" for m in ("ssa", "bitblast", "dpll", "solver", "equivalence", "verify")}


def test_the_walk_follows_imports():
    assert {"cfv", "cfv.minic", "cfv.minic.ast", "cfv.snapshot"} <= reached_from("cfv.interp")
    assert JUDGED - {"cfv.verify"} <= reached_from("cfv.equivalence")


def test_the_interpreter_reaches_nothing_it_judges():
    assert reached_from("cfv.interp") & JUDGED == set()


def names_imported(source: str, module: str) -> list[str]:
    """Every name source imports from module; an import of module itself
    gives its own name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == module:
                    names.append(alias.name)
                elif f"{node.module}.{alias.name}" == module:
                    names.append(module)
    return names


def test_the_check_finds_every_imported_name():
    source = "from m.n import A, b\nimport m.n\nfrom m import n\nfrom m import k\nimport m\n"
    assert names_imported(source, "m.n") == ["A", "b", "m.n", "m.n"]


def test_the_encoder_shares_only_the_call_depth_with_the_interpreter():
    """The interpreter judges the encoder's initial state too, so the two
    build it apart: ssa takes from interp only the depth both must keep."""
    source = module_path("cfv.ssa").read_text()
    assert names_imported(source, "cfv.interp") == ["MAX_CALL_DEPTH"]


def test_the_frontend_reaches_no_layer_above_it():
    """Lexing, parsing and type checking need nothing but the error types:
    no snapshot, encoder, solver or interpreter."""
    reached = reached_from("cfv.minic")
    assert "cfv.minic.typecheck" in reached
    assert {m for m in reached if not m.startswith("cfv.minic.")} <= {
        "cfv", "cfv.errors", "cfv.minic"
    }


def test_cfv_starts_no_process():
    """One solver: no cfv module can hand a query to another program, so
    every Unsat comes from the in-process core."""
    assert "subprocess" in imported_modules(REPO_ROOT / "tests" / "test_golden.py")
    found = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "cfv").rglob("*.py"))
        if any(name.split(".")[0] == "subprocess" for name in imported_modules(path))
    ]
    assert found == []


def enclosing(source: str, pick) -> list[tuple[str, str]]:
    """(function, pick(node)) for each node of source that pick gives a str
    for, in source order: the function is the innermost one around the
    node, "<module>" at the top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            picked = pick(child)
            if picked is not None:
                found.append((where, picked))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def name_of(node) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def raisers(source: str, exception: str) -> list[str]:
    """The function around each `raise <exception>` in source ("<module>"
    at the top level), in source order."""

    def raised(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            return name_of(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        return None

    return [where for where, name in enclosing(source, raised) if name == exception]


def constructions(source: str, classes) -> list[str]:
    """`function: call` for each call of one of classes in source, the call
    as written."""

    def call(node):
        if isinstance(node, ast.Call) and name_of(node.func) in classes:
            return ast.unparse(node)
        return None

    return [f"{where}: {text}" for where, text in enclosing(source, call)]


def test_the_check_finds_every_timeout_raise():
    source = (
        "raise Timeout\n"
        "def f():\n    raise Timeout('x')\n"
        "def g():\n    def h():\n        raise errors.Timeout()\n    raise ValueError\n"
    )
    assert raisers(source, "Timeout") == ["<module>", "f", "h"]
    assert raisers(source, "ValueError") == ["g"]


def raise_sites(exception: str) -> list[str]:
    """path:function of every `raise <exception>` under src/cfv."""
    return [
        f"{path.relative_to(REPO_ROOT)}:{where}"
        for path in sorted((REPO_ROOT / "src" / "cfv").rglob("*.py"))
        for where in raisers(path.read_text(), exception)
    ]


def test_timeout_is_raised_only_by_check_deadline():
    """One poller: every stage that watches a deadline calls
    errors.check_deadline, the only code that raises Timeout."""
    assert raise_sites("Timeout") == ["src/cfv/errors.py:check_deadline"]


def test_no_module_raises_runtime_error():
    """One path for internal errors: a result that does not replay raises
    errors.InternalError, which `cli.main` turns into exit 4."""
    assert raise_sites("RuntimeError") == []


VERDICTS = ("Equivalent", "NotEquivalent", "Pass", "Fail", "Unknown")


def test_the_check_finds_every_construction():
    source = (
        "def f():\n    return Pass(1, True)\n"
        "ok = isinstance(v, Fail)\n"
        "def g():\n    def h():\n        return m.Unknown('t')\n"
    )
    assert constructions(source, VERDICTS) == ["f: Pass(1, True)", "h: m.Unknown('t')"]


def test_only_the_checks_decide_a_verdict():
    """One path to every verdict: check_equivalence and verify_test build
    every decided one, and the pipeline builds only the Unknown of an item
    its budget leaves no time to run."""
    decided = {
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "cfv").rglob("*.py"))
        if constructions(path.read_text(), VERDICTS[:4])
    }
    assert decided == {"src/cfv/equivalence.py", "src/cfv/verify.py"}
    pipeline = (REPO_ROOT / "src" / "cfv" / "pipeline.py").read_text()
    assert constructions(pipeline, VERDICTS) == ["run_item: Unknown('timeout')"]
