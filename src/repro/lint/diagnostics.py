"""Diagnostic records: what a lint rule reports.

Every finding carries a stable code (``L204``), a symbolic name
(``shadowed-transition``), a severity, the design object it is about,
and the source location of the DSL construction that caused it
(captured by :mod:`repro.core.srcloc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.srcloc import SrcLoc

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Severities in decreasing order of gravity.
SEVERITIES = (ERROR, WARNING, INFO)

_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """0 for error, 1 for warning, 2 for info (for threshold comparisons)."""
    return _RANK[severity]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a lint rule."""

    severity: str
    code: str          # stable rule code, e.g. "L204"
    name: str          # symbolic slug, e.g. "shadowed-transition"
    message: str
    obj: object = None           # the design object the finding is about
    loc: Optional[SrcLoc] = None  # construction site in user modeling code

    def format(self) -> str:
        """Human-readable one-liner, ``file:line: severity [code] message``."""
        prefix = f"{self.loc.file}:{self.loc.line}: " if self.loc else ""
        return f"{prefix}{self.severity} [{self.code}/{self.name}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form for the CLI's JSON mode."""
        return {
            "severity": self.severity,
            "code": self.code,
            "name": self.name,
            "message": self.message,
            "object": getattr(self.obj, "name", None),
            "file": self.loc.file if self.loc else None,
            "line": self.loc.line if self.loc else None,
        }

    def __str__(self) -> str:
        return self.format()
