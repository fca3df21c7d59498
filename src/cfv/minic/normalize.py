"""Alpha keys, which the structural equivalence stage compares.

`alpha_key(fn)` is a flat tuple over `ast.preorder`, equal for two functions
exactly when they differ only in comments, layout and the names of the
function, its parameters and its locals. It holds the return and parameter
types, then per node its class and non-child fields: operator, literal,
declared type, child count of a block or call, and whether an optional
child is absent, which together make the preorder unambiguous. A variable
gives its binding as the type checker resolved it: its slot, or a global's
name, a str that never equals a slot. No scope is tracked here. A call to
the function itself gives None for its name.
"""

from __future__ import annotations

from cfv.minic import ast


def alpha_key(fn: ast.FunctionDef) -> tuple:
    """The key of type-checked fn; equal keys mean alpha-equivalent functions."""
    key: list = [fn.return_type, len(fn.params), *(p.ty for p in fn.params)]
    for node in ast.preorder(fn.body):
        cls = type(node)
        key.append(cls)
        if cls is ast.VarRef or cls is ast.ArrayIndex:
            slot = ast.slot_of(node)
            key.append(node.name if slot == ast.GLOBAL else slot)
        elif cls is ast.Binary or cls is ast.Unary:
            key.append(node.op)
        elif cls is ast.IntLit or cls is ast.BoolLit:
            key.append(node.value)
        elif cls is ast.Call:
            key += (None if node.name == fn.name else node.name, len(node.args))
        elif cls is ast.Block:
            key.append(len(node.stmts))
        elif cls is ast.VarDecl:
            key += (node.declared_type, node.init is None)
        elif cls is ast.If:
            key.append(node.else_body is None)
        elif cls is ast.Return:
            key.append(node.value is None)
    return tuple(key)
