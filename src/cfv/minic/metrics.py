"""Cyclomatic complexity over MiniC function bodies.

Counting rule: 1 + number of `if` statements + number of `while` loops +
number of `&&` and `||` operators. A `for` loop contributes exactly one,
because it is already a single `while` after desugaring.
"""

from __future__ import annotations

from cfv.minic import ast


def cyclomatic_complexity(fn: ast.FunctionDef) -> int:
    count = 1
    for node in ast.preorder(fn.body):
        if isinstance(node, (ast.If, ast.While)) or (
            isinstance(node, ast.Binary) and node.op in ast.BOOL_CONNECTIVES
        ):
            count += 1
    return count
