"""Frontend for the MiniC subset: lexing, parsing, types and alpha keys."""

from cfv.minic.metrics import cyclomatic_complexity
from cfv.minic.normalize import alpha_key
from cfv.minic.parser import parse_unit
from cfv.minic.printer import format_expr, format_function, format_unit
from cfv.minic.typecheck import type_check

__all__ = [
    "alpha_key",
    "cyclomatic_complexity",
    "format_expr",
    "format_function",
    "format_unit",
    "parse_unit",
    "type_check",
]
