"""Pluggable static analysis for repro designs.

The paper's semantic checks (§3.1) run here, and only here: rules are
classes registered with :func:`repro.lint.rule.register`, the
:class:`Linter` drives them over SFGs, FSMs, processes, and whole
systems, and every :class:`Diagnostic` carries a stable code, a
severity, the offending design object, and the exact ``file:line`` where
the user's DSL code constructed it (captured by
:mod:`repro.core.srcloc`).

Rule families:

* ``L1xx`` (:mod:`.rules_sfg`) — structural SFG checks.
* ``L2xx`` (:mod:`.rules_fsm`) — FSM reachability and determinism.
* ``L3xx`` (:mod:`.rules_system`) — system wiring, clocking, firing rules.
* ``L4xx`` (:mod:`.rules_interval`) — IR interval analysis overflow proofs.
* ``L5xx`` (:mod:`.rules_bits`) — known-bits/bit-liveness wordlength advice.

Run from the command line with ``python -m repro.lint <paths>`` or
``tools/lint.py``.
"""

from .bits import (
    BitsAnalysis,
    KnownBits,
    TOP_BITS,
    WordlengthReport,
    analyze_bits,
    const_bits,
    narrow_block,
    wordlength_report,
)
from .diagnostics import Diagnostic, ERROR, INFO, SEVERITIES, WARNING, \
    severity_rank
from .interval import Analysis, Finding, Interval, TOP, analyze, fmt_interval
from .linter import Linter, lint
from .rule import LintConfig, LintContext, Rule, all_rules, register

# Importing the rule modules populates the registry.
from . import rules_sfg      # noqa: F401  (L1xx)
from . import rules_fsm      # noqa: F401  (L2xx)
from . import rules_system   # noqa: F401  (L3xx)
from . import rules_interval  # noqa: F401  (L4xx)
from . import rules_bits     # noqa: F401  (L5xx)
from .rules_interval import analyze_sfg
from .rules_bits import analyze_sfg_bits

__all__ = [
    "Analysis",
    "BitsAnalysis",
    "Diagnostic",
    "ERROR",
    "Finding",
    "INFO",
    "Interval",
    "KnownBits",
    "LintConfig",
    "LintContext",
    "Linter",
    "Rule",
    "SEVERITIES",
    "TOP",
    "TOP_BITS",
    "WARNING",
    "WordlengthReport",
    "all_rules",
    "analyze",
    "analyze_bits",
    "analyze_sfg",
    "analyze_sfg_bits",
    "const_bits",
    "fmt_interval",
    "lint",
    "narrow_block",
    "register",
    "severity_rank",
    "wordlength_report",
]
