"""Diagnostics and exception types shared across the toolkit.

InputError is the one error for bad input: it carries positioned
diagnostics, and a run that raises it exits 3. Lexing, parsing and type
checking raise its subclasses; reading sources and applying a diff raise it
directly.

Timeout is the one way a stage reports that it ran out of time, and
check_deadline is the one place that raises it. Every stage that polls a
deadline (building terms, encoding, the case split, bit-blasting,
simulation, the learning core) calls it at the poll, naming itself, and
each check catches Timeout once and records Unknown("timeout").

InternalError is a bug in cfv itself, such as a solver model or witness
that does not replay through the interpreter. A run that raises it prints
one `error: internal: ...` line and exits 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # Span stays a type-only import to avoid an import cycle.
    from cfv.minic.ast import Span


@dataclass(frozen=True)
class Diagnostic:
    path: str
    span: Span
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.span.line}:{self.span.col}: error: {self.message}"


class CfvError(Exception):
    """Base class for all toolkit errors."""


class Timeout(CfvError):
    """A stage polled its deadline (an absolute time.monotonic() value) and
    found it passed."""


def check_deadline(deadline: float | None, stage: str) -> None:
    """Raise Timeout, naming stage, once deadline has passed. A None
    deadline never passes."""
    if deadline is not None and time.monotonic() > deadline:
        raise Timeout(f"{stage} exceeded the time limit")


class InternalError(CfvError):
    """cfv contradicted itself: a result did not replay as it claims."""


class ConfigError(CfvError):
    """Bad CLI flags or paths."""


class InputError(CfvError):
    """Sources that cannot be read, patched, parsed or type-checked,
    carrying one or more positioned diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


class MiniCSyntaxError(InputError):
    pass


class UnsupportedConstructError(InputError):
    """Input is C, but outside the supported subset."""


class TypeCheckError(InputError):
    pass
