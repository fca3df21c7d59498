"""Function-level change classification between two snapshots.

Name-matched functions with byte-identical bodies (`FunctionDef.body_text`,
as the parser recorded it) are unchanged; with differing bodies they are
modified. Each name found on the old side only is then paired, in
lexicographic order, with the least unpaired new-only name whose function
is structurally equivalent, as a rename; leftovers are removed or added.
A change to the initializer or type of a global also marks every function
that reads it as modified (paired with itself), since the initial program
state it observes shifts even though its own text did not.

Structural equivalence is the fast stage of equivalence checking: equal
alpha keys (`minic.normalize`), never a solver call, linear in tree size.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfv.minic.ast import FunctionDef, GlobalDecl, literal_value
from cfv.minic.normalize import alpha_key
from cfv.snapshot import Snapshot


@dataclass
class ChangeSet:
    added: list[str]
    removed: list[str]
    modified: list[tuple[FunctionDef, FunctionDef]]
    renamed: list[tuple[str, str]]
    unchanged: list[str]
    # Names in `modified` that are there because a global they read changed
    # its initial value or type rather than because their body changed.
    state_affected: frozenset[str] = frozenset()

    @property
    def modified_names(self) -> list[str]:
        return [new.name for _, new in self.modified]


def structural_equiv(a: FunctionDef, b: FunctionDef) -> bool:
    """Stage-1 equivalence: equal alpha keys.

    The signatures must match. Spans, comments and the names of the
    function, its parameters and its locals never matter; anything else
    (including operand order and the names of globals) does.
    """
    return alpha_key(a) == alpha_key(b)


def _global_signature(decl: GlobalDecl) -> tuple:
    return (decl.ty, literal_value(decl.init))


def changed_globals(old: Snapshot, new: Snapshot) -> set[str]:
    """Globals present in both snapshots whose type or initializer changed."""
    out = set()
    for name, decl in old.globals.items():
        other = new.globals.get(name)
        if other is not None and _global_signature(decl) != _global_signature(other):
            out.add(name)
    return out


def compute_changeset(old: Snapshot, new: Snapshot) -> ChangeSet:
    old_names = set(old.functions)
    new_names = set(new.functions)

    unchanged: list[str] = []
    modified: list[tuple[FunctionDef, FunctionDef]] = []
    state_affected: set[str] = set()
    dirty_globals = changed_globals(old, new)

    for name in sorted(old_names & new_names):
        fn_old = old.functions[name]
        fn_new = new.functions[name]
        same_text = fn_old.body_text == fn_new.body_text
        if same_text and not (fn_new.reads_globals & dirty_globals):
            unchanged.append(name)
        else:
            modified.append((fn_old, fn_new))
            if same_text:
                state_affected.add(name)

    only_old = sorted(old_names - new_names)
    only_new = sorted(new_names - old_names)
    renamed: list[tuple[str, str]] = []
    unmatched: dict[tuple, list[str]] = {}
    for new_name in only_new:
        unmatched.setdefault(alpha_key(new.functions[new_name]), []).append(new_name)
    for old_name in list(only_old):
        candidates = unmatched.get(alpha_key(old.functions[old_name]))
        if candidates:
            new_name = candidates.pop(0)
            renamed.append((old_name, new_name))
            only_old.remove(old_name)
            only_new.remove(new_name)

    return ChangeSet(
        added=only_new,
        removed=only_old,
        modified=modified,
        renamed=renamed,
        unchanged=unchanged,
        state_affected=frozenset(state_affected),
    )
