"""Diagnostics and exception types shared across the toolkit.

Timeout is the one way a stage reports that it ran out of time. Every stage
that polls a deadline (building terms, encoding, bit-blasting, simulation,
the learning core) raises it at the poll, and each check catches it once
and records Unknown("timeout").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # Span stays a type-only import to avoid an import cycle.
    from cfv.minic.ast import Span


@dataclass(frozen=True)
class Diagnostic:
    path: str
    span: Span
    severity: str  # "error" or "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.span.line}:{self.span.col}: {self.severity}: {self.message}"


class CfvError(Exception):
    """Base class for all toolkit errors."""


class FrontendError(CfvError):
    """Lex/parse/type failure, carrying one or more positioned diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class MiniCSyntaxError(FrontendError):
    pass


class UnsupportedConstructError(FrontendError):
    """Input is C, but outside the supported subset."""


class TypeCheckError(FrontendError):
    pass


class Timeout(CfvError):
    """A stage polled its deadline (an absolute time.monotonic() value) and
    found it passed."""


class ConfigError(CfvError):
    """Bad CLI flags or paths."""


class InputError(CfvError):
    """Snapshot or test sources failed to parse or type-check."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))
