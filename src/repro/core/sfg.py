"""Signal flow graphs: one clock cycle of data processing.

The paper (section 3.1): *"A set of sig expressions can be assembled in a
signal flow graph (SFG).  In addition, the desired inputs and outputs of the
signal flow graph have to be indicated.  This allows to do semantical checks
such as dangling input and dead code detection ... An SFG has well defined
simulation semantics and represents one clock cycle of data processing."*

An :class:`SFG` is a list of assignments ``target <- expression`` plus
declared input and output signals.  Assignments to plain signals are
combinational; assignments to registers schedule the next value.  The SFG
computes, once per clock cycle, all assignments in dependency order.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import CheckError, ModelError
from .expr import Expr
from .signal import Register, Sig
from .srcloc import here

_SFG_STACK: List["SFG"] = []

#: Every SFG ever constructed (weakly held).  The lint framework uses it
#: to find SFGs that share signals with a system but are referenced by no
#: FSM transition or process — the "forgot to wire it" mistake.
_ALL_SFGS: "weakref.WeakSet[SFG]" = weakref.WeakSet()


def constructed_sfgs() -> List["SFG"]:
    """All live SFG objects, in name order (for deterministic linting)."""
    return sorted(_ALL_SFGS, key=lambda s: s.name)


def _active_sfg() -> Optional["SFG"]:
    """The innermost SFG currently open via ``with sfg:`` (or None)."""
    return _SFG_STACK[-1] if _SFG_STACK else None


class Assignment:
    """One ``target <- expr`` arc of a signal flow graph."""

    __slots__ = ("target", "expr", "loc", "_reads")

    def __init__(self, target: Sig, expr: Expr):
        if not isinstance(target, Sig):
            raise ModelError(f"assignment target must be a signal, got {target!r}")
        self.target = target
        self.expr = expr
        self.loc = here()
        self._reads: Optional[FrozenSet[Sig]] = None

    def execute(self) -> None:
        """Evaluate the expression and drive the target."""
        value = self.expr.evaluate()
        if isinstance(self.target, Register):
            self.target.set_next(value)
        else:
            self.target.value = value

    def reads(self) -> FrozenSet[Sig]:
        """The signals this assignment reads, walked once."""
        if self._reads is None:
            self._reads = frozenset(leaf for leaf in self.expr.leaves()
                                    if isinstance(leaf, Sig))
        return self._reads

    def __repr__(self) -> str:
        return f"{self.target.name} <- {self.expr!r}"


class SFG:
    """A signal flow graph: assignments + declared I/O + one-cycle semantics."""

    def __init__(self, name: str):
        self.name = name
        self.assignments: List[Assignment] = []
        self._inputs: List[Sig] = []
        self._outputs: List[Sig] = []
        self._ordered: Optional[List[Assignment]] = None
        self.loc = here()
        _ALL_SFGS.add(self)

    # -- construction -----------------------------------------------------------

    def __enter__(self) -> "SFG":
        _SFG_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _SFG_STACK.pop()
        assert popped is self

    def assign(self, target: Sig, expr: Expr) -> Assignment:
        """Add the assignment ``target <- expr``."""
        if any(a.target is target for a in self.assignments):
            raise CheckError(
                f"signal {target.name!r} already driven in SFG {self.name!r} "
                "(multiple drivers)"
            )
        assignment = Assignment(target, expr)
        self.assignments.append(assignment)
        self._ordered = None
        return assignment

    def inp(self, *signals: Sig) -> "SFG":
        """Declare input signals (token consumers at the system level)."""
        for signal in signals:
            if signal.is_register():
                raise ModelError(f"register {signal.name!r} cannot be an SFG input")
            if signal not in self._inputs:
                self._inputs.append(signal)
        return self

    def out(self, *signals: Sig) -> "SFG":
        """Declare output signals (token producers at the system level)."""
        for signal in signals:
            if signal not in self._outputs:
                self._outputs.append(signal)
        return self

    @property
    def inputs(self) -> Tuple[Sig, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[Sig, ...]:
        return tuple(self._outputs)

    # -- structure queries --------------------------------------------------------

    def targets(self) -> Set[Sig]:
        """All driven signals (combinational wires and registers)."""
        return {a.target for a in self.assignments}

    def registers(self) -> List[Register]:
        """Registers driven or read by this SFG, in first-seen order."""
        seen: List[Register] = []

        def note(sig: Sig) -> None:
            if isinstance(sig, Register) and sig not in seen:
                seen.append(sig)

        for assignment in self.assignments:
            note(assignment.target)
            for sig in sorted((sig for sig in assignment.reads()
                               if isinstance(sig, Register)),
                              key=lambda s: s.name):
                note(sig)
        return seen

    def ordered_assignments(self) -> List[Assignment]:
        """Assignments in combinational dependency order.

        Raises :class:`CheckError` on a combinational loop inside the SFG.
        Reads of *registers* do not create ordering edges (register reads
        return the pre-edge value), nor do reads of declared inputs.
        """
        if self._ordered is not None:
            return self._ordered
        by_target: Dict[Sig, Assignment] = {a.target: a for a in self.assignments}
        order: List[Assignment] = []
        state: Dict[Assignment, int] = {}  # 1 = visiting, 2 = done

        def visit(assignment: Assignment, chain: List[str]) -> None:
            mark = state.get(assignment)
            if mark == 2:
                return
            if mark == 1:
                cycle = " -> ".join(chain + [assignment.target.name])
                raise CheckError(
                    f"combinational loop inside SFG {self.name!r}: {cycle}"
                )
            state[assignment] = 1
            for sig in sorted(assignment.reads(), key=lambda s: s.name):
                if sig.is_register():
                    continue
                dep = by_target.get(sig)
                if dep is not None and not dep.target.is_register():
                    visit(dep, chain + [assignment.target.name])
            state[assignment] = 2
            order.append(assignment)

        for assignment in self.assignments:
            visit(assignment, [])
        self._ordered = order
        return order

    def input_cone(self, target: Sig,
                   extra_inputs: Optional[Set[Sig]] = None) -> Set[Sig]:
        """Declared inputs that *target*'s value (this cycle) depends on.

        Follows combinational assignments transitively; stops at registers
        (their reads see last cycle's value) and at declared inputs.
        *extra_inputs* widens the input set (e.g. port-bound signals that
        were not declared with :meth:`inp`).
        """
        by_target: Dict[Sig, Assignment] = {
            a.target: a for a in self.assignments if not a.target.is_register()
        }
        inputs = set(self._inputs)
        if extra_inputs:
            inputs |= extra_inputs
        cone: Set[Sig] = set()
        visited: Set[Sig] = set()

        def walk(sig: Sig) -> None:
            if sig in visited:
                return
            visited.add(sig)
            if sig in inputs:
                cone.add(sig)
                return
            if sig.is_register():
                return
            assignment = by_target.get(sig)
            if assignment is None:
                return
            for read in assignment.reads():
                walk(read)

        walk(target)
        return cone

    def assignment_input_deps(
        self, extra_inputs: Optional[Set[Sig]] = None
    ) -> Dict[Assignment, Set[Sig]]:
        """For each assignment, the (declared + extra) inputs it depends on."""
        inputs = set(self._inputs)
        if extra_inputs:
            inputs |= extra_inputs
        deps: Dict[Assignment, Set[Sig]] = {}
        for assignment in self.assignments:
            cone: Set[Sig] = set()
            for read in assignment.reads():
                cone |= self.input_cone(read, extra_inputs)
                if read in inputs:
                    cone.add(read)
            deps[assignment] = cone
        return deps

    # -- simulation ----------------------------------------------------------------

    def run(self) -> None:
        """Execute one cycle of this SFG in isolation.

        Input signal values must have been set beforehand; register updates
        are *scheduled* (call ``clk.tick()`` afterwards to commit them).
        """
        for assignment in self.ordered_assignments():
            assignment.execute()

    def __repr__(self) -> str:
        return (f"SFG({self.name!r}, {len(self.assignments)} assignments, "
                f"in={[s.name for s in self._inputs]}, "
                f"out={[s.name for s in self._outputs]})")
