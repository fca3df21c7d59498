"""Alpha keys, which the structural equivalence stage compares.

`alpha_key(fn)` is a flat preorder tuple, equal for two functions exactly
when they differ only in comments, layout and the names of the function, its
parameters and its locals. It holds the return and parameter types, then per
node its class and non-child fields (operator, literal, declared type, child
count of a block or call), None for an absent child, and `BLOCK_END` where a
block's scope closes. A variable gives its binding: a parameter's position,
the parameter count plus a local's declaration ordinal, or a global's name,
a str that never equals a local's int. A declaration binds after its
initializer, as in the encoder and the interpreter, and a call to the
function itself gives None for its name. The walk keeps its own stack.
"""

from __future__ import annotations

from cfv.minic import ast

BLOCK_END = "}"


def alpha_key(fn: ast.FunctionDef) -> tuple:
    """The key of fn; equal keys mean alpha-equivalent functions."""
    key: list = [fn.return_type, len(fn.params), *(p.ty for p in fn.params)]
    # Each open block sees a copy of the bindings of the block around it.
    scopes = [{p.name: i for i, p in enumerate(fn.params)}]
    declared = len(fn.params)
    stack: list = [fn.body]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is str:  # BLOCK_END
            scopes.pop()
            key.append(BLOCK_END)
            continue
        if cls is tuple:  # (name,) of a declaration, its initializer read
            scopes[-1][node[0]] = declared
            declared += 1
            continue
        key.append(None if node is None else cls)
        if cls is ast.VarRef:
            key.append(scopes[-1].get(node.name, node.name))
        elif cls is ast.Binary:
            key.append(node.op)
            stack += (node.right, node.left)
        elif cls is ast.IntLit or cls is ast.BoolLit:
            key.append(node.value)
        elif cls is ast.ArrayIndex:
            key.append(scopes[-1].get(node.name, node.name))
            stack.append(node.index)
        elif cls is ast.Unary:
            key.append(node.op)
            stack.append(node.operand)
        elif cls is ast.Call:
            key += (None if node.name == fn.name else node.name, len(node.args))
            stack += reversed(node.args)
        elif cls is ast.Block:
            key.append(len(node.stmts))
            scopes.append(dict(scopes[-1]))
            stack.append(BLOCK_END)
            stack += reversed(node.stmts)
        elif cls is ast.VarDecl:
            key.append(node.declared_type)
            stack += ((node.name,), node.init)
        elif cls is ast.Assign:
            stack += (node.value, node.target)
        elif cls is ast.If:
            stack += (node.else_body, node.then_body, node.cond)
        elif cls is ast.While:
            stack += (node.body, node.cond)
        elif cls is ast.Return:
            stack.append(node.value)
        elif cls is ast.Assert or cls is ast.Assume:
            stack.append(node.cond)
        elif cls is ast.ExprStmt:
            stack.append(node.expr)
    return tuple(key)
