"""SMT-LIB v2 (QF_BV) emission and the optional external solver hook.

The emitted script is deterministic: identical formulas produce
byte-identical text. Shared subterms become a chain of `let` bindings in
DAG order, so script size stays linear in the DAG.

Shift semantics differ between this toolkit (amount modulo width) and
SMT-LIB (zero/sign fill past the width), so emitted shifts mask the amount
with width-1 to keep both readings identical.

An external solver is configured as a command template containing `{file}`;
its stdout's first line must be `sat` or `unsat`. It serves as a
cross-checking decision procedure; models still come from the built-in
solver.
"""

from __future__ import annotations

import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

from cfv.terms import BOOL, Formula, postorder

_BINOP = {
    "and": "and",
    "or": "or",
    "xor": "xor",
    "eq": "=",
    "slt": "bvslt",
    "add": "bvadd",
    "sub": "bvsub",
    "mul": "bvmul",
    "band": "bvand",
    "bor": "bvor",
    "bxor": "bvxor",
}


def _symbol(name: str) -> str:
    return f"|{name}|"


def emit_smtlib(formula: Formula) -> str:
    lines = ["(set-logic QF_BV)"]
    for term in formula.inputs:
        sort = "Bool" if term.width == BOOL else f"(_ BitVec {term.width})"
        lines.append(f"(declare-const {_symbol(term.name)} {sort})")

    names: dict[int, str] = {}
    bindings: list[tuple[str, str]] = []

    def atom(t) -> str:
        if t.op == "const":
            if t.width == BOOL:
                return "true" if t.value else "false"
            return f"(_ bv{t.value} {t.width})"
        if t.op == "input":
            return _symbol(t.name)
        return names[t.uid]

    for idx, t in enumerate(postorder(formula.root)):
        if t.op in ("const", "input"):
            continue
        args = [atom(a) for a in t.args]
        if t.op == "not":
            expr = f"(not {args[0]})"
        elif t.op == "bnot":
            expr = f"(bvnot {args[0]})"
        elif t.op == "ite":
            expr = f"(ite {args[0]} {args[1]} {args[2]})"
        elif t.op in ("shl", "ashr"):
            w = t.width
            mask = f"(_ bv{w - 1} {w})"
            op = "bvshl" if t.op == "shl" else "bvashr"
            expr = f"({op} {args[0]} (bvand {args[1]} {mask}))"
        else:
            expr = f"({_BINOP[t.op]} {args[0]} {args[1]})"
        name = f"t{idx}"
        names[t.uid] = name
        bindings.append((name, expr))

    body = atom(formula.root)
    prefix = "".join(f"(let (({name} {expr})) " for name, expr in bindings)
    lines.append(f"(assert {prefix}{body}{')' * len(bindings)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


class ExternalSolver:
    """Runs an external QF_BV solver over the emitted script."""

    def __init__(self, command_template: str):
        """Raises ValueError when the template does not split as a shell
        command line, has no `{file}` argument, or names a command that
        cannot be found."""
        self.argv = shlex.split(command_template)
        if not any("{file}" in part for part in self.argv):
            raise ValueError("external solver command needs a {file} placeholder")
        if shutil.which(self.argv[0]) is None:
            raise ValueError(
                f"external solver command {self.argv[0]!r} not found or not executable"
            )

    def decide(self, formula: Formula, timeout_s: float | None = None) -> str:
        """Returns "sat", "unsat", or "unknown" (also on a timeout). A
        command that fails to start raises OSError."""
        script = emit_smtlib(formula)
        with tempfile.TemporaryDirectory(prefix="cfv-smt-") as tmp:
            path = Path(tmp) / "query.smt2"
            path.write_text(script, encoding="utf-8")
            argv = [part.replace("{file}", str(path)) for part in self.argv]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=timeout_s
                )
            except subprocess.TimeoutExpired:
                return "unknown"
        first = proc.stdout.strip().splitlines()
        verdict = first[0].strip() if first else ""
        return verdict if verdict in ("sat", "unsat") else "unknown"
