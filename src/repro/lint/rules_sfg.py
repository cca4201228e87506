"""SFG-scope rules: the paper's semantic checks, with source locations.

The paper's §3.1 checks (dangling input and dead code detection) and
their structural neighbours; each finding points at the exact modeling
line that caused it.
"""

from __future__ import annotations

from typing import Iterator, Set

from ..core.errors import CheckError
from ..core.sfg import SFG
from ..core.signal import Sig
from .diagnostics import Diagnostic, ERROR, WARNING
from .rule import LintContext, Rule, register


@register
class DanglingInput(Rule):
    code = "L101"
    name = "dangling-input"
    scope = "sfg"
    severity = WARNING
    description = "a declared SFG input is never read"

    def check(self, sfg: SFG, ctx: LintContext) -> Iterator[Diagnostic]:
        reads: Set[Sig] = set()
        for assignment in sfg.assignments:
            reads |= assignment.reads()
        for inp in sfg.inputs:
            if inp not in reads:
                yield self.diag(
                    f"SFG {sfg.name!r}: input {inp.name!r} is never read",
                    obj=inp)


@register
class DrivenInput(Rule):
    code = "L102"
    name = "driven-input"
    scope = "sfg"
    severity = ERROR
    description = "a declared SFG input is also assigned inside the SFG"

    def check(self, sfg: SFG, ctx: LintContext) -> Iterator[Diagnostic]:
        inputs = set(sfg.inputs)
        for assignment in sfg.assignments:
            if assignment.target in inputs:
                yield self.diag(
                    f"SFG {sfg.name!r}: input {assignment.target.name!r} "
                    "is also assigned",
                    obj=assignment.target, loc=assignment.loc)


@register
class UndrivenSignal(Rule):
    code = "L103"
    name = "undriven-signal"
    scope = "sfg"
    severity = ERROR
    description = "a plain signal is read but neither driven nor an input"

    def check(self, sfg: SFG, ctx: LintContext) -> Iterator[Diagnostic]:
        targets = sfg.targets()
        inputs = set(sfg.inputs)
        reported: Set[Sig] = set()
        for assignment in sfg.assignments:
            for sig in sorted(assignment.reads(), key=lambda s: s.name):
                if sig.is_register() or sig in targets or sig in inputs:
                    continue
                if sig in reported:
                    continue
                reported.add(sig)
                yield self.diag(
                    f"SFG {sfg.name!r}: signal {sig.name!r} is read but is "
                    "neither driven, an input, nor a register",
                    obj=sig, loc=assignment.loc)


@register
class UndrivenOutput(Rule):
    code = "L104"
    name = "undriven-output"
    scope = "sfg"
    severity = ERROR
    description = "a declared SFG output is never driven (and not a register)"

    def check(self, sfg: SFG, ctx: LintContext) -> Iterator[Diagnostic]:
        targets = sfg.targets()
        for out in sfg.outputs:
            if out not in targets and not out.is_register():
                yield self.diag(
                    f"SFG {sfg.name!r}: output {out.name!r} is never driven",
                    obj=out)


@register
class DeadCode(Rule):
    code = "L105"
    name = "dead-code"
    scope = "sfg"
    severity = WARNING
    description = "an assigned wire reaches no output, register, or use"

    def check(self, sfg: SFG, ctx: LintContext) -> Iterator[Diagnostic]:
        useful: Set[Sig] = set(sfg.outputs)
        for assignment in sfg.assignments:
            if assignment.target.is_register():
                useful |= assignment.reads()
        changed = True
        while changed:
            changed = False
            for assignment in sfg.assignments:
                if assignment.target in useful:
                    new = assignment.reads() - useful
                    if new:
                        useful |= new
                        changed = True
        for assignment in sfg.assignments:
            target = assignment.target
            if not target.is_register() and target not in useful:
                yield self.diag(
                    f"SFG {sfg.name!r}: assignment to {target.name!r} is dead "
                    "(reaches no output or register)",
                    obj=assignment, loc=assignment.loc)


@register
class CombinationalLoop(Rule):
    code = "L106"
    name = "combinational-loop"
    scope = "sfg"
    severity = ERROR
    description = "the SFG's wires form a combinational cycle"

    def check(self, sfg: SFG, ctx: LintContext) -> Iterator[Diagnostic]:
        try:
            sfg.ordered_assignments()
        except CheckError as exc:
            yield self.diag(str(exc), obj=sfg)
