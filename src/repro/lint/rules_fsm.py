"""FSM-scope rules: reachability, determinism, and condition legality.

Beyond reachability, this module decides determinism: guard conditions
are expressions over registered signals with known fixed-point formats,
so for small state spaces the linter *enumerates* every register
valuation and decides satisfiability exactly — reporting
overlapping guards (priority order silently decides) and states whose
guards can all be false at once (a run-time ``SimulationError``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.fsm import FSM, State, Transition
from ..core.signal import Sig
from ..fixpt import Fx
from .diagnostics import Diagnostic, ERROR, WARNING
from .rule import LintContext, Rule, register


def _reachable(fsm: FSM) -> set:
    seen = {fsm.initial_state}
    frontier = [fsm.initial_state]
    while frontier:
        state = frontier.pop()
        for transition in state.transitions:
            if transition.target not in seen:
                seen.add(transition.target)
                frontier.append(transition.target)
    return seen


def _fmt_value(sig: Sig) -> str:
    value = sig.value
    if isinstance(value, Fx):
        return str(float(value))
    return str(value)


def guard_truth_table(
        transitions: Sequence[Transition],
        budget: int) -> Optional[List[Tuple[Dict[str, str], List[bool]]]]:
    """Enumerate guard truths over every register valuation.

    Returns ``[(valuation, [truth per transition]), ...]`` or None when
    the guards read unregistered/unformatted signals or the state space
    exceeds *budget* (exact analysis declined, not failed).
    """
    sigs = sorted(
        {sig
         for transition in transitions if transition.condition.expr is not None
         for sig in transition.condition.expr.signals()},
        key=lambda s: s.name)
    if any(not sig.is_register() or sig.fmt is None for sig in sigs):
        return None
    total = 1
    for sig in sigs:
        total *= sig.fmt.raw_max - sig.fmt.raw_min + 1
        if total > budget:
            return None
    saved = [sig._value for sig in sigs]
    table: List[Tuple[Dict[str, str], List[bool]]] = []
    try:
        ranges = [range(sig.fmt.raw_min, sig.fmt.raw_max + 1) for sig in sigs]
        for raws in itertools.product(*ranges):
            for sig, raw in zip(sigs, raws):
                sig._value = Fx(fmt=sig.fmt, raw=raw)
            truths = [t.condition.evaluate() for t in transitions]
            valuation = {sig.name: _fmt_value(sig) for sig in sigs}
            table.append((valuation, truths))
    finally:
        for sig, value in zip(sigs, saved):
            sig._value = value
    return table


def _describe(valuation: Dict[str, str]) -> str:
    if not valuation:
        return "always"
    return ", ".join(f"{name}={value}" for name, value in valuation.items())


@register
class NoInitialState(Rule):
    code = "L201"
    name = "no-initial-state"
    scope = "fsm"
    severity = ERROR
    description = "the FSM declares no states"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        if fsm.initial_state is None:
            yield self.diag(f"FSM {fsm.name!r} has no states", obj=fsm)


@register
class UnreachableState(Rule):
    code = "L202"
    name = "unreachable-state"
    scope = "fsm"
    severity = WARNING
    description = "a state cannot be reached from the initial state"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        if fsm.initial_state is None:
            return
        reachable = _reachable(fsm)
        for state in fsm.states:
            if state not in reachable:
                yield self.diag(
                    f"FSM {fsm.name!r}: state {state.name!r} is unreachable",
                    obj=state)


@register
class StuckState(Rule):
    code = "L203"
    name = "stuck-state"
    scope = "fsm"
    severity = ERROR
    description = "a reachable state has no outgoing transitions"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        if fsm.initial_state is None:
            return
        reachable = _reachable(fsm)
        for state in fsm.states:
            if state in reachable and not state.transitions:
                yield self.diag(
                    f"FSM {fsm.name!r}: state {state.name!r} has no outgoing "
                    "transitions",
                    obj=state)


@register
class ShadowedTransition(Rule):
    code = "L204"
    name = "shadowed-transition"
    scope = "fsm"
    severity = WARNING
    description = "a transition can never fire (after an 'always', or 'never')"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        for state in fsm.states:
            always_at: Optional[int] = None
            for index, transition in enumerate(state.transitions):
                condition = transition.condition
                if condition.expr is None and condition.negated:
                    yield self.diag(
                        f"FSM {fsm.name!r}: transition {transition!r} can "
                        "never fire (guard is 'never')",
                        obj=transition)
                    continue
                if always_at is not None:
                    yield self.diag(
                        f"FSM {fsm.name!r}: transition {transition!r} can "
                        "never fire — shadowed by the unconditional "
                        f"transition #{always_at} of state {state.name!r}",
                        obj=transition)
                    continue
                if condition.is_always() and index < len(state.transitions) - 1:
                    always_at = index


@register
class UnregisteredCondition(Rule):
    code = "L205"
    name = "unregistered-condition"
    scope = "fsm"
    severity = ERROR
    description = "a transition guard reads a non-registered signal"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        for transition in fsm.transitions:
            expr = transition.condition.expr
            if expr is None:
                continue
            for sig in sorted(expr.signals(), key=lambda s: s.name):
                if not sig.is_register():
                    yield self.diag(
                        f"FSM {fsm.name!r}: condition of {transition!r} reads "
                        f"non-registered signal {sig.name!r}; conditions must "
                        "be stored in registers",
                        obj=transition)


@register
class OverlappingGuards(Rule):
    code = "L206"
    name = "overlapping-guards"
    scope = "fsm"
    severity = WARNING
    description = "two satisfiable guards of one state can be true together"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        budget = ctx.config.max_enum_states
        for state in fsm.states:
            transitions = state.transitions
            if len(transitions) < 2:
                continue
            table = guard_truth_table(transitions, budget)
            if table is None:
                continue
            for i, j in itertools.combinations(range(len(transitions)), 2):
                first, second = transitions[i], transitions[j]
                # 'always' shadowing is L204's finding, not an overlap.
                if first.condition.is_always() or second.condition.is_always():
                    continue
                if (first.target is second.target
                        and first.sfgs == second.sfgs):
                    continue  # same effect either way: harmless
                witness = next((valuation for valuation, truths in table
                                if truths[i] and truths[j]), None)
                if witness is not None:
                    yield self.diag(
                        f"FSM {fsm.name!r}: guards of {first!r} and "
                        f"{second!r} overlap (e.g. {_describe(witness)}); "
                        "declaration order silently decides",
                        obj=second)


@register
class IncompleteTransitions(Rule):
    code = "L207"
    name = "incomplete-transitions"
    scope = "fsm"
    severity = WARNING
    description = "all guards of a reachable state can be false at once"

    def check(self, fsm: FSM, ctx: LintContext) -> Iterator[Diagnostic]:
        if fsm.initial_state is None:
            return
        budget = ctx.config.max_enum_states
        reachable = _reachable(fsm)
        for state in fsm.states:
            if state not in reachable or not state.transitions:
                continue
            if any(t.condition.is_always() for t in state.transitions):
                continue
            table = guard_truth_table(state.transitions, budget)
            if table is None:
                continue
            witness = next((valuation for valuation, truths in table
                            if not any(truths)), None)
            if witness is not None:
                yield self.diag(
                    f"FSM {fsm.name!r}: no transition of state "
                    f"{state.name!r} is enabled when {_describe(witness)}; "
                    "simulation would raise (add a default 'always' "
                    "transition)",
                    obj=state)
