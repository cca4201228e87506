"""The three-phase cycle scheduler (paper section 4, Figure 6).

When a system contains timed descriptions, the cycle scheduler creates the
illusion of concurrency between components on a clock-cycle basis.  One
clock cycle is simulated in three phases:

1. **Token production** — for each marked SFG, outputs that depend solely
   on registered or constant signals are evaluated and their tokens put
   onto the system interconnect.  This creates the "initial tokens" that
   break apparent deadlocks in loops of components, without requiring
   buffer hardware.
2. **Evaluation** — marked SFG assignments and untimed blocks are scheduled
   repeatedly; an assignment executes as soon as the input tokens in its
   cone are available, an untimed block fires when its firing rule is
   satisfied.  If an iteration bound passes with unfired timed components,
   the system is declared deadlocked — this is how combinational loops at
   the system level are identified.
3. **Register update** — next-values are copied to current-values and FSM
   state commits.

Phase 0 (before token production) selects, in each FSM, the transition
whose condition holds and marks its SFGs for execution.
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.elaborate import Elaboration
from ..core.errors import DeadlockError, ModelError, SimulationError
from ..core.memory import restore_memories, save_memories
from ..core.process import Port, TimedProcess, UntimedProcess
from ..core.sfg import SFG, Assignment
from ..core.signal import Sig
from ..core.system import Channel, System


class _PlanStep:
    """One assignment of a marked SFG, with the wires it waits on.

    ``reads`` pairs each input wire (a channel's token queue) with the
    signal its token drives; ``out`` is the channel the assignment's
    target feeds this cycle, or None.
    """

    __slots__ = ("execute", "reads", "out", "target", "input_ports",
                 "process", "label")

    def __init__(self, assignment: Assignment, process: TimedProcess,
                 input_ports: Tuple[Port, ...],
                 output_port: Optional[Port],
                 label: str = ""):
        self.execute = assignment.execute
        self.reads = tuple((port.channel.queue, port.sig)
                           for port in input_ports)
        self.out = output_port.channel if output_port is not None else None
        self.target = assignment.target
        #: The ports behind ``reads``, for deadlock diagnostics.
        self.input_ports = input_ports
        self.process = process
        #: ``process/sfg`` attribution label for engine self-profiling.
        self.label = label


class _ProcessPlan:
    """The cached execution plan of one timed process for one SFG marking."""

    __slots__ = ("steps", "register_outputs")

    def __init__(self, process: TimedProcess, marked: Sequence[SFG]):
        port_of_sig: Dict[Sig, Port] = {}
        in_port_of_sig: Dict[Sig, Port] = {}
        for port in process.ports.values():
            if port.direction == "out":
                port_of_sig[port.sig] = port
            else:
                in_port_of_sig[port.sig] = port

        self.steps: List[_PlanStep] = []
        # Port-bound signals are inputs by construction, whether or not
        # the SFG declared them with inp().
        port_bound = set(in_port_of_sig)
        for sfg in marked:
            deps = sfg.assignment_input_deps(port_bound)
            label = f"{process.name}/{sfg.name}"
            for assignment in sfg.ordered_assignments():
                input_ports = tuple(
                    in_port_of_sig[sig]
                    for sig in sorted(deps[assignment], key=lambda s: s.name)
                    if sig in in_port_of_sig
                )
                output_port = None
                target = assignment.target
                if not target.is_register() and target in port_of_sig:
                    output_port = port_of_sig[target]
                self.steps.append(_PlanStep(
                    assignment, process, input_ports, output_port, label))

        # Output ports bound to registers always emit the (phase-1) current
        # value; output ports bound to plain signals not driven this cycle
        # emit nothing.
        self.register_outputs: List[Tuple[Channel, Sig]] = [
            (port.channel, sig) for sig, port in port_of_sig.items()
            if sig.is_register() and port.channel is not None
        ]


class CycleScheduler:
    """Simulates a system of timed (and untimed) processes cycle by cycle."""

    def __init__(self, system: System, max_iterations: int = 1000,
                 obs=None):
        self.system = system
        self.max_iterations = max_iterations
        #: Optional :class:`repro.obs.Capture` instrumenting this run.
        self.obs = obs
        self._prof = obs.profile if obs is not None else None
        self.cycle = 0
        self.elaboration = Elaboration(system)
        self.timed = self.elaboration.timed
        self.untimed = self.elaboration.untimed
        if not self.timed:
            raise ModelError(
                "the cycle scheduler needs at least one timed description; "
                "use the data-flow scheduler for untimed systems"
            )
        self.clocks = system.clocks()
        # Per timed process: its FSM and its plans keyed by the selected
        # transition (None for a process without an FSM).
        self._selectors: List[Tuple[TimedProcess, object,
                                    Dict[object, _ProcessPlan]]] = [
            (process, process.fsm, {}) for process in self.timed
        ]
        # Per untimed process: its input wires by port name and its
        # output channels, in declaration order.
        self._untimed_io = [
            (process,
             tuple((port.name, port.channel.queue)
                   for port in process.in_ports()),
             tuple((port.name, port.channel) for port in process.out_ports()))
            for process in self.untimed
        ]
        #: Per-cycle hook list: called as fn(scheduler) after each step.
        self.monitors: List[Callable[["CycleScheduler"], None]] = []
        self._stimuli: List[Tuple[Channel, Callable[[int], object]]] = []
        if obs is not None:
            monitor = obs.cycle_monitor(self)
            if monitor is not None:
                self.monitors.append(monitor)

    # -- stimuli --------------------------------------------------------------

    def drive(self, chan: Channel, source) -> None:
        """Drive *chan* each cycle from an iterable or a ``fn(cycle)``."""
        if callable(source):
            self._stimuli.append((chan, source))
        else:
            iterator = iter(source)

            def from_iter(_cycle: int, _it=iterator):
                try:
                    return next(_it)
                except StopIteration:
                    return None

            self._stimuli.append((chan, from_iter))

    # -- one clock cycle ----------------------------------------------------------

    def step(self, inputs: Optional[Mapping[Channel, object]] = None) -> None:
        """Simulate one clock cycle (phases 0–3)."""
        # New cycle: the interconnect forgets last cycle's tokens.
        for chan in self.system.channels:
            chan.clear()
        if inputs:
            for chan, value in inputs.items():
                chan.put(value)
        for chan, source in self._stimuli:
            value = source(self.cycle)
            if value is not None:
                chan.put(value)

        # Phase 0: transition selection; mark SFGs.
        plans: List[_ProcessPlan] = []
        for process, fsm, cache in self._selectors:
            transition = fsm.select() if fsm is not None else None
            plan = cache.get(transition)
            if plan is None:
                plan = _ProcessPlan(process, process.marked_sfgs(transition))
                cache[transition] = plan
            plans.append(plan)

        # Phase 1: token production — register-driven output ports emit
        # immediately, and the relaxation below starts with assignments
        # whose cones touch no input tokens.
        for plan in plans:
            for chan, reg in plan.register_outputs:
                chan.put(reg.current)

        # Phase 2: evaluation — relax until everything fired.  An
        # assignment runs once every wire it reads holds a token; an
        # untimed block fires once its inputs are valid and its firing
        # rule holds.
        pending = [step for plan in plans for step in plan.steps]
        waiting = self._untimed_io
        iterations = 0
        trace: List[int] = []
        prof = self._prof
        while True:
            iterations += 1
            if iterations > self.max_iterations:
                raise self._deadlock_error(pending, iterations - 1, trace)

            blocked: List[_PlanStep] = []
            for step in pending:
                for wire, _sig in step.reads:
                    if not wire:
                        blocked.append(step)
                        break
                else:
                    for wire, sig in step.reads:
                        sig.value = wire[-1]
                    if prof is None:
                        step.execute()
                    else:
                        t0 = _perf()
                        step.execute()
                        prof.add(step.label, _perf() - t0)
                    if step.out is not None:
                        step.out.put(step.target.value)
            progress = len(pending) - len(blocked)
            pending = blocked

            if waiting:
                unfired = []
                for io in waiting:
                    process, inputs, outputs = io
                    for _name, wire in inputs:
                        if not wire:
                            break
                    else:
                        if process.firing_rule():
                            self._fire_untimed(process, inputs, outputs)
                            progress += 1
                            continue
                    unfired.append(io)
                waiting = unfired

            trace.append(progress)
            if not pending:
                break
            if not progress:
                raise self._deadlock_error(pending, iterations, trace)

        # Phase 3: register update.
        for clock in self.clocks:
            clock.tick()
        for process in self.timed:
            process.commit()
        self.cycle += 1
        for monitor in self.monitors:
            monitor(self)

    @staticmethod
    def _fire_untimed(process: UntimedProcess, inputs, outputs) -> None:
        # Under cycle semantics untimed blocks *read* the interconnect
        # (wire semantics, fan-out allowed) rather than consuming tokens.
        results = process.behavior(
            **{name: wire[-1] for name, wire in inputs}) or {}
        for name, chan in outputs:
            if name not in results:
                raise SimulationError(
                    f"untimed process {process.name!r} produced no token for "
                    f"output {name!r}"
                )
            if chan is not None:
                chan.put(results[name])
        process._counts[0] += 1  # firings, counted in place

    def _blocked_map(self, pending) -> Dict[str, List[str]]:
        """Per-process names of the ports each blocked process waits on.

        An untimed block that fired has every input valid, so it never
        shows; one still waiting shows the inputs it lacks.
        """
        blocked: Dict[str, Set[str]] = {}
        for step in pending:
            waits = [port.name for port in step.input_ports
                     if not port.channel.valid]
            blocked.setdefault(step.process.name, set()).update(waits)
        for process in self.untimed:
            waits = {port.name for port in process.in_ports()
                     if not port.channel.valid}
            if waits:
                blocked.setdefault(process.name, set()).update(waits)
        return {name: sorted(waits) for name, waits in sorted(blocked.items())}

    def _deadlock_message(self, pending) -> str:
        blocked = self._blocked_map(pending)
        detail = "; ".join(
            f"{name} waits on {waits}" for name, waits in blocked.items()
        )
        return (
            f"cycle {self.cycle}: system deadlocked in the evaluation phase "
            f"(combinational loop or missing token): {detail}"
        )

    def _deadlock_error(self, pending, iterations: int,
                        trace: List[int]) -> DeadlockError:
        """A :class:`DeadlockError` with structured diagnostics attached."""
        blocked = self._blocked_map(pending)
        channels = {c.name: c.tokens() for c in self.system.channels}
        if self.obs is not None and self.obs.events is not None:
            # The same diagnostics the exception carries, but on the
            # durable event stream — visible even if the exception is
            # swallowed upstack.
            self.obs.events.emit(
                "deadlock", cycle=self.cycle, iterations=iterations,
                pending=blocked, channels=channels, trace=list(trace),
            )
        return DeadlockError(
            self._deadlock_message(pending),
            cycle=self.cycle,
            iterations=iterations,
            pending=blocked,
            channels=channels,
            trace=trace,
        )

    # -- runs ------------------------------------------------------------------------

    def run(self, cycles: int,
            inputs_fn: Optional[Callable[[int], Mapping[Channel, object]]] = None
            ) -> None:
        """Simulate *cycles* clock cycles."""
        for _ in range(cycles):
            self.step(inputs_fn(self.cycle) if inputs_fn else None)

    def reset(self) -> None:
        """Reset clocks, registers, FSM states and the interconnect."""
        for clock in self.clocks:
            clock.reset()
        for process in self.timed:
            process.reset()
        for chan in self.system.channels:
            chan.clear()
        self.cycle = 0

    # -- checkpoint / restore ------------------------------------------------------

    def save_state(self) -> Dict[str, object]:
        """Deterministic checkpoint of all simulator state.

        Captures register current/next values, FSM states, every
        memory's contents, clock and cycle counters.  The snapshot is an
        opaque dict for :meth:`restore_state`; values are immutable and
        the memories are copied, so the checkpoint stays valid while
        simulation continues.
        """
        return {
            "cycle": self.cycle,
            "clocks": [clock.cycle for clock in self.clocks],
            "registers": [
                (reg._value, reg._next, reg._next_set)
                for reg in self.elaboration.registers
            ],
            "fsms": [
                process.fsm.current.name if process.fsm is not None else None
                for process in self.timed
            ],
            "memories": save_memories(self.elaboration.memories),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a checkpoint taken with :meth:`save_state`."""
        restore_memories(self.elaboration.memories, state["memories"])
        self.cycle = state["cycle"]
        for clock, count in zip(self.clocks, state["clocks"]):
            clock.cycle = count
        for reg, (value, nxt, next_set) in zip(
                self.elaboration.registers, state["registers"]):
            reg._value = value
            reg._next = nxt
            reg._next_set = next_set
        for process, name in zip(self.timed, state["fsms"]):
            if process.fsm is not None and name is not None:
                process.fsm.current = next(
                    s for s in process.fsm.states if s.name == name
                )
                process.fsm._pending = None
        for chan in self.system.channels:
            chan.clear()
