"""Levelized gate-level netlist simulation.

This is the "VHDL/Verilog (netlist)" row of Table 1: simulation after
synthesis.  The netlist's :class:`LevelSchedule` is fixed once (and
shared by every simulator of the netlist).  A settle either sweeps it
level by level, running each level's cells of one kind in a loop
specialized to that kind, or traces changes through it, evaluating only
the gates one of whose inputs changed; finally the DFFs are clocked.

Two settles
-----------
The level sweep evaluates every gate at the lowest cost per gate.  The
traced settle pays a fan-out walk and a change test per evaluation,
three to four times as much, and wins when few gates see a changed
input: the DECT FIR slices evaluate 3-5% of their gates per cycle, HCOR
more than half.  A one-lane simulator picks between them by the
activity it measures.  It traces in windows of :data:`TRACE_WINDOW`
settles that may evaluate :data:`TRACE_BELOW` of the scheduled gates
per settle on average; a window that evaluates more ends tracing at
once, and the simulator sweeps from then on.  The last activity
measured lives on the netlist's shared schedule: a fresh simulator of a
netlist measured busy sweeps from the start, and one of a quiet or
unmeasured netlist traces from its first step.

A traced settle needs every net consistent with the logic except the
level-0 changes it has recorded: :meth:`GateSimulator.set_input` records
a pin net only when its bit changes, the clock edge a DFF output only
when the clocked value differs.  The construction settle, the first
settle after :meth:`~GateSimulator.restore_state`, :meth:`force`,
:meth:`flip` or :meth:`release`, every settle with a saboteur armed and
every multi-lane settle are level sweeps.
:attr:`GateSimulator.gate_evals` counts one evaluation per scheduled
gate per settle on either path; :attr:`GateSimulator.gates_evaluated`
counts the evaluations actually performed.

Word-parallel lanes
-------------------
The netlist defines *what* every net computes; ``lanes`` decides *how
many* independent stimulus vectors evaluate it per step.  Each entry of
:attr:`values` is an int whose bit L holds lane L's boolean, so one
bitwise Python operation per gate simulates all lanes at once (classic
bit-sliced simulation; ``lanes=64`` fills a machine word).  ``lanes=1``
is the scalar simulator: the same loop with a one-bit lane mask.

Saboteurs
---------
:meth:`force` / :meth:`flip` take a lane subset, which is what lets a
fault campaign map one fault universe per bit-lane.  Armed saboteurs
become per-level override lists applied between levels of the sweep:
every reader of a level-L net sits above L, so overriding it after level
L is settled is the same as overriding its driver.  Level-0 nets
(primary inputs, DFF outputs) keep their driven value aside while
overridden, so a saboteur changes only what the logic sees while it is
armed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from .gates import GateKind
from .netlist import Net, Netlist

_CONST0 = GateKind.CONST0
_CONST1 = GateKind.CONST1
_BUF = GateKind.BUF
_INV = GateKind.INV
_AND2 = GateKind.AND2
_OR2 = GateKind.OR2
_NAND2 = GateKind.NAND2
_NOR2 = GateKind.NOR2
_XOR2 = GateKind.XOR2
_XNOR2 = GateKind.XNOR2
_MUX2 = GateKind.MUX2

#: A saboteur as applied in a settle: ``(net, keep, bits, flip)`` sets the
#: net to ``((value & keep) | bits) ^ flip``.
_Override = Tuple[Net, int, int, int]

#: A one-lane simulator traces changes while its settles evaluate less
#: than this share of the scheduled gates.  A traced evaluation costs
#: three to four swept ones (HCOR traces at 0.39x the sweep's speed with
#: 79% evaluated), so break-even lies near 30%.
TRACE_BELOW = 0.25
#: Settles per activity window while tracing.
TRACE_WINDOW = 16


def _lane_mask(lanes: Optional[Iterable[int]], all_mask: int) -> int:
    """An iterable of lane indices (or None = every lane) as a bit mask."""
    if lanes is None:
        return all_mask
    mask = 0
    for lane in lanes:
        mask |= 1 << lane
    return mask & all_mask


class GateSimulator:
    """Cycle-based two-valued simulation of a :class:`Netlist`.

    ``lanes`` independent stimulus vectors run per step (default 1); all
    lanes share the netlist and the clock, and differ only in pin values
    and injected faults.
    """

    def __init__(self, netlist: Netlist, obs=None, lanes: int = 1):
        if lanes < 1:
            raise SimulationError(f"lanes must be >= 1, got {lanes}")
        self.netlist = netlist
        self.lanes = lanes
        self.lane_mask = (1 << lanes) - 1
        #: Lane-packed net values: bit L of ``values[net]`` is lane L.
        self.values: List[int] = [0] * netlist._net_count
        self._schedule = schedule = netlist.schedule()
        dffs = netlist.indices(GateKind.DFF)
        ins, outs = netlist.gate_inputs, netlist.gate_outputs
        self._d_nets = [ins[index][0] for index in dffs]
        self._q_nets = [outs[index] for index in dffs]
        self._q_set = frozenset(self._q_nets)
        inits = netlist.gate_inits
        for index in dffs:
            self.values[outs[index]] = -(inits[index] & 1) & self.lane_mask
        self.cycle = 0
        self.monitors = []
        #: Word-level gate evaluations performed so far (one per gate per
        #: settle, independent of lane count and of the settle path — the
        #: denominator of the batched campaign's "fewer gate-evaluation
        #: steps" claim).
        self.gate_evals = 0
        #: Scheduled gate evaluations that traced settles skipped (less
        #: their repeats); see :attr:`gates_evaluated`.
        self._skipped = 0
        #: Optional :class:`repro.obs.Capture` instrumenting this run.
        self.obs = obs
        if obs is not None:
            monitor = obs.gate_monitor(self)
            if monitor is not None:
                self.monitors.append(monitor)
        #: Saboteur hooks: nets forced to constant values (stuck-at
        #: faults) and nets whose settled value is inverted during
        #: propagation (transient bit flips), each on a lane subset.
        #: ``_forces[net]`` is ``(set_mask, bits)`` — lanes in *set_mask*
        #: read the corresponding bit of *bits*; ``_flips[net]`` is an
        #: xor mask.  Managed with :meth:`force`, :meth:`flip` and
        #: :meth:`release`.
        self._forces: Dict[Net, Tuple[int, int]] = {}
        self._flips: Dict[Net, int] = {}
        #: The saboteurs grouped by the level of their net; None when
        #: they changed since the last settle.
        self._overrides: Optional[Dict[int, List[_Override]]] = None
        #: Driven values of level-0 nets whose stored value currently
        #: holds an override; restored before the next settle unless the
        #: pin is driven or the DFF clocked first.
        self._held: Dict[Net, int] = {}
        # Change tracing (one lane only; see the module docstring).
        #: The next settle traces: every net is consistent with the logic
        #: but for the level-0 changes recorded in ``_changed``.
        self._trace_next = False
        self._changed: List[Net] = []
        #: One dirty list per run of the schedule, and the runs' kinds
        #: beside their lists (built on the first traced settle).
        self._buckets: Optional[List[list]] = None
        self._runs: List[Tuple[GateKind, list]] = []
        #: A clean sweep hands over to the traced settle: one lane, and
        #: the netlist is unmeasured or was quiet when last measured.
        activity = schedule.activity
        self._tracing = lanes == 1 and (activity is None
                                        or activity < TRACE_BELOW)
        #: Settles left in the current activity window, and the gate
        #: evaluations it spent so far.
        self._window = TRACE_WINDOW
        self._spent = 0
        # Settle the combinational logic against the initial state.
        self._propagate()

    # -- pin access ------------------------------------------------------------

    def set_input(self, name: str, raw: int) -> None:
        """Drive a primary input bus with two's-complement *raw*.

        The value is broadcast to every lane; use :meth:`set_input_lanes`
        for per-lane stimulus.
        """
        bus = self._input_bus(name)
        if self._trace_next:
            self._drive_traced(bus, raw)
            return
        mask = self.lane_mask
        values = self.values
        for i, net in enumerate(bus):
            values[net] = -((raw >> i) & 1) & mask
        if self._held:
            self._unhold(bus)

    def set_input_lanes(self, name: str, raws: Sequence[int]) -> None:
        """Drive a primary input bus with one raw value per lane."""
        bus = self._input_bus(name)
        if len(raws) != self.lanes:
            raise SimulationError(
                f"input {name!r}: got {len(raws)} values for "
                f"{self.lanes} lanes"
            )
        if self._trace_next:
            self._drive_traced(bus, raws[0])
            return
        for i, net in enumerate(bus):
            packed = 0
            for lane, raw in enumerate(raws):
                packed |= ((raw >> i) & 1) << lane
            self.values[net] = packed
        if self._held:
            self._unhold(bus)

    def _drive_traced(self, bus: Sequence[Net], raw: int) -> None:
        """One-lane pin write that records the nets whose bit changed."""
        values = self.values
        changed = self._changed
        for i, net in enumerate(bus):
            bit = (raw >> i) & 1
            if values[net] != bit:
                values[net] = bit
                changed.append(net)

    def _unhold(self, nets: Iterable[Net]) -> None:
        """*nets* were re-driven: their stored values are driven values."""
        held = self._held
        for net in nets:
            held.pop(net, None)

    def _input_bus(self, name: str) -> Sequence[Net]:
        try:
            return self.netlist.inputs[name]
        except KeyError:
            raise SimulationError(
                f"netlist {self.netlist.name!r} has no input {name!r}"
            ) from None

    def read_bus(self, nets: Sequence[Net], signed: bool = True,
                 lane: int = 0) -> int:
        """Read one lane of a bus as a two's-complement (or unsigned) int."""
        values = self.values
        raw = 0
        for i, net in enumerate(nets):
            raw |= ((values[net] >> lane) & 1) << i
        if signed and nets and (raw >> (len(nets) - 1)) & 1:
            raw -= 1 << len(nets)
        return raw

    def read_bus_lanes(self, nets: Sequence[Net],
                       signed: bool = True) -> List[int]:
        """Read a bus on every lane: one integer per lane."""
        return [self.read_bus(nets, signed, lane)
                for lane in range(self.lanes)]

    def output(self, name: str, signed: bool = True, lane: int = 0) -> int:
        """Read one lane of a primary output bus."""
        return self.read_bus(self._output_bus(name), signed, lane)

    def output_lanes(self, name: str, signed: bool = True) -> List[int]:
        """Read a primary output bus on every lane."""
        return self.read_bus_lanes(self._output_bus(name), signed)

    def _output_bus(self, name: str) -> Sequence[Net]:
        try:
            return self.netlist.outputs[name]
        except KeyError:
            raise SimulationError(
                f"netlist {self.netlist.name!r} has no output {name!r}"
            ) from None

    # -- fault injection ---------------------------------------------------------

    def force(self, net: Net, value: int,
              lanes: Optional[Iterable[int]] = None) -> None:
        """Stuck-at saboteur: hold *net* at *value* until released.

        The force overrides the driving gate (or pin / DFF output) during
        every propagation, and propagates through the downstream cone —
        the standard stuck-at fault model.  *lanes* restricts the
        saboteur to a lane subset (default: every lane), so different
        lanes can carry different faults.
        """
        lm = _lane_mask(lanes, self.lane_mask)
        bits = -(value & 1) & lm
        set_mask, old_bits = self._forces.get(net, (0, 0))
        self._forces[net] = (set_mask | lm, (old_bits & ~lm) | bits)
        self._overrides = None
        self._trace_next = False

    def flip(self, net: Net, lanes: Optional[Iterable[int]] = None) -> None:
        """Transient saboteur: invert *net*'s settled value while armed.

        Models a single-event upset; arm before a :meth:`step` and
        :meth:`release` afterwards for a one-cycle bit flip.  *lanes*
        restricts the flip to a lane subset.
        """
        self._flips[net] = self._flips.get(net, 0) \
            | _lane_mask(lanes, self.lane_mask)
        self._overrides = None
        self._trace_next = False

    def release(self, net: Optional[Net] = None,
                lanes: Optional[Iterable[int]] = None) -> None:
        """Remove injected faults.

        ``release()`` clears everything; ``release(net)`` clears both
        saboteurs on one net; *lanes* restricts either form to a lane
        subset.
        """
        self._overrides = None
        self._trace_next = False
        if lanes is None:
            if net is None:
                self._forces.clear()
                self._flips.clear()
            else:
                self._forces.pop(net, None)
                self._flips.pop(net, None)
            return
        lm = _lane_mask(lanes, self.lane_mask)
        targets = [net] if net is not None else \
            list(self._forces.keys() | self._flips.keys())
        for target in targets:
            got = self._forces.get(target)
            if got is not None:
                set_mask, bits = got
                set_mask &= ~lm
                if set_mask:
                    self._forces[target] = (set_mask, bits & set_mask)
                else:
                    self._forces.pop(target, None)
            fm = self._flips.get(target)
            if fm is not None:
                fm &= ~lm
                if fm:
                    self._flips[target] = fm
                else:
                    self._flips.pop(target, None)

    # -- simulation -------------------------------------------------------------------

    def _plan_overrides(self) -> Dict[int, List[_Override]]:
        """The armed saboteurs grouped by the level of the net they hit.

        A force beats a flip on the same (net, lane).
        """
        level_of = self._schedule.level_of
        forces, flips = self._forces, self._flips
        plan: Dict[int, List[_Override]] = {}
        for net in forces.keys() | flips.keys():
            set_mask, bits = forces.get(net, (0, 0))
            flip = flips.get(net, 0) & ~set_mask
            plan.setdefault(level_of[net], []).append(
                (net, ~set_mask, bits, flip))
        return plan

    def _propagate(self) -> None:
        """Settle the combinational logic: traced, or one pass over the
        schedule."""
        schedule = self._schedule
        self.gate_evals += schedule.size
        if self._trace_next:
            evaluated = self._trace()
            self._skipped += schedule.size - evaluated
            self._trace_next = self._choose(evaluated)
            return
        values = self.values
        mask = self.lane_mask
        held = self._held
        if held:
            for net, driven in held.items():
                values[net] = driven
            held.clear()
        plan = self._overrides
        if plan is None:
            plan = self._overrides = self._plan_overrides()
        if plan:
            for net, keep, bits, flip in plan.get(0, ()):
                held[net] = value = values[net]
                values[net] = ((value & keep) | bits) ^ flip
        for depth, level in enumerate(schedule.levels, 1):
            for kind, cells in level:
                if kind is _AND2:
                    for out, a, b in cells:
                        values[out] = values[a] & values[b]
                elif kind is _XOR2:
                    for out, a, b in cells:
                        values[out] = values[a] ^ values[b]
                elif kind is _OR2:
                    for out, a, b in cells:
                        values[out] = values[a] | values[b]
                elif kind is _MUX2:
                    for out, sel, a, b in cells:
                        low = values[b]
                        values[out] = low ^ (values[sel] & (values[a] ^ low))
                elif kind is _INV:
                    for out, a in cells:
                        values[out] = values[a] ^ mask
                elif kind is _XNOR2:
                    for out, a, b in cells:
                        values[out] = values[a] ^ values[b] ^ mask
                elif kind is _NAND2:
                    for out, a, b in cells:
                        values[out] = (values[a] & values[b]) ^ mask
                elif kind is _NOR2:
                    for out, a, b in cells:
                        values[out] = (values[a] | values[b]) ^ mask
                elif kind is _BUF:
                    for out, a in cells:
                        values[out] = values[a]
                elif kind is _CONST0:
                    for (out,) in cells:
                        values[out] = 0
                elif kind is _CONST1:
                    for (out,) in cells:
                        values[out] = mask
                else:
                    raise SimulationError(
                        f"cannot evaluate {kind} combinationally")
            if plan:
                for net, keep, bits, flip in plan.get(depth, ()):
                    values[net] = ((values[net] & keep) | bits) ^ flip
        # A clean sweep of a tracing simulator hands over to the traced
        # settle.  One that applied saboteurs leaves nets that the logic
        # alone does not compute: the next settle sweeps too, up to the
        # first one after the release.
        if self._tracing and not plan:
            self._changed.clear()
            self._trace_next = True

    @property
    def gates_evaluated(self) -> int:
        """Gate evaluations actually performed so far: the schedule's size
        per level sweep; per traced settle, one per changed input of each
        gate reading it."""
        return self.gate_evals - self._skipped

    def _choose(self, evaluated: int) -> bool:
        """After a traced settle: whether the next one traces too.

        A window of ``TRACE_WINDOW`` settles may evaluate ``TRACE_BELOW``
        times the schedule's size per settle on average.  Evaluating more
        ends tracing at once, and for good.
        """
        self._spent += evaluated
        self._window -= 1
        schedule = self._schedule
        size = schedule.size or 1
        busy = self._spent > TRACE_BELOW * TRACE_WINDOW * size
        if not busy and self._window:
            return True
        settles = TRACE_WINDOW - self._window
        schedule.activity = self._spent / (settles * size)
        self._window = TRACE_WINDOW
        self._spent = 0
        self._tracing = not busy
        return not busy

    def _trace(self) -> int:
        """Evaluate only the gates with a changed input, run by run.

        Returns the number of gate evaluations.  The readers of every
        changed net join their run's dirty list, and each run's list is
        drained in schedule order.  At one lane a gate whose value
        differs from its output's holds the inverse, so a changed output
        is flipped in place; a gate listed twice sees its output settled
        the second time.  Gates of one run never read each other, so their fan-out
        joins the lists after the run.
        """
        tables = self._schedule.trace()
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = [[] for _ in tables.kinds]
            self._runs = list(zip(tables.kinds, buckets))
        changed = self._changed
        if not changed:
            return 0
        fanout = tables.fanout
        values = self.values
        for net in changed:
            for run, cells in fanout[net]:
                buckets[run].extend(cells)
        changed.clear()
        evaluated = 0
        flipped: List[Net] = []
        mark = flipped.append
        for kind, cells in self._runs:
            if not cells:
                continue
            evaluated += len(cells)
            if kind is _AND2:
                for out, a, b in cells:
                    if values[a] & values[b] != values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _XOR2:
                for out, a, b in cells:
                    if values[a] ^ values[b] != values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _OR2:
                for out, a, b in cells:
                    if values[a] | values[b] != values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _MUX2:
                for out, sel, a, b in cells:
                    if (values[a] if values[sel] else values[b]) \
                            != values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _INV:
                for out, a in cells:
                    if values[a] == values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _XNOR2:
                for out, a, b in cells:
                    if values[a] ^ values[b] == values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _NAND2:
                for out, a, b in cells:
                    if values[a] & values[b] == values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _NOR2:
                for out, a, b in cells:
                    if values[a] | values[b] == values[out]:
                        values[out] ^= 1
                        mark(out)
            elif kind is _BUF:
                for out, a in cells:
                    if values[a] != values[out]:
                        values[out] ^= 1
                        mark(out)
            else:
                raise SimulationError(
                    f"cannot trace {kind} combinationally")
            cells.clear()
            if flipped:
                for out in flipped:
                    for run, readers in fanout[out]:
                        buckets[run].extend(readers)
                flipped.clear()
        return evaluated


    #: Hooks called after the logic settles, before the clock edge — the
    #: moment when this cycle's output values are valid (matching the
    #: cycle scheduler's pre-commit monitors).
    monitors: List = None

    def step(self, inputs: Optional[Mapping[str, object]] = None) -> None:
        """One clock cycle: drive pins, settle logic, sample, clock DFFs.

        Scalar int pin values broadcast to every lane; list/tuple values
        carry one raw per lane.
        """
        if inputs:
            for name, raw in inputs.items():
                if isinstance(raw, (list, tuple)):
                    self.set_input_lanes(name, raw)
                else:
                    self.set_input(name, raw)
        self._propagate()
        if self.monitors:
            for monitor in self.monitors:
                monitor(self)
        # Sample every D before updating any Q (edge semantics); record
        # the outputs that change if the next settle traces.
        values = self.values
        sampled = [values[net] for net in self._d_nets]
        if self._trace_next:
            changed = self._changed
            for net, value in zip(self._q_nets, sampled):
                if values[net] != value:
                    values[net] = value
                    changed.append(net)
        else:
            for net, value in zip(self._q_nets, sampled):
                values[net] = value
        if self._held:
            self._unhold(self._q_set.intersection(self._held))
        self.cycle += 1

    def run(self, cycles: int,
            inputs_fn=None) -> None:
        """Simulate *cycles* clock cycles."""
        for _ in range(cycles):
            self.step(inputs_fn(self.cycle) if inputs_fn else None)

    def run_batch(self, batch) -> None:
        """Run a :class:`repro.sim.stimuli.StimulusBatch` to completion.

        The batch's lane count must match the simulator's.
        """
        if batch.lanes != self.lanes:
            raise SimulationError(
                f"stimulus batch has {batch.lanes} lanes, "
                f"simulator has {self.lanes}"
            )
        for cycle in range(batch.cycles):
            self.step(batch.pins_at(cycle))

    def settled_outputs(self, lane: int = 0) -> Dict[str, int]:
        """All primary outputs of one lane after the last settle."""
        return {name: self.output(name, lane=lane)
                for name in self.netlist.outputs}

    def settled_outputs_lanes(self) -> Dict[str, List[int]]:
        """All primary outputs of every lane after the last settle."""
        return {name: self.output_lanes(name)
                for name in self.netlist.outputs}

    # -- checkpoint / restore ---------------------------------------------------------

    def save_state(self) -> Dict[str, object]:
        """Deterministic checkpoint: every net value plus the cycle count.

        The checkpoint is lane-aware: it records the simulator's lane
        count and every lane-packed net word.  Injected faults are *not*
        part of the checkpoint — pins and DFF outputs are recorded at
        their driven values, and restoring a golden snapshot into a
        sabotaged simulator keeps the saboteurs armed, which is exactly
        what a fault campaign needs.
        """
        values = list(self.values)
        for net, driven in self._held.items():
            values[net] = driven
        return {"cycle": self.cycle, "values": values, "lanes": self.lanes}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a checkpoint taken with :meth:`save_state`.

        The next settle is a level sweep: the restored nets need not
        agree with the logic (a checkpoint taken after a clock edge
        holds the new register values and the old logic).
        """
        lanes = state.get("lanes", 1)
        if lanes != self.lanes:
            raise SimulationError(
                f"checkpoint has {lanes} lanes, simulator has {self.lanes}"
            )
        values = state["values"]
        if len(values) != len(self.values):
            raise SimulationError(
                f"checkpoint has {len(values)} nets, netlist "
                f"{self.netlist.name!r} has {len(self.values)}"
            )
        self.cycle = state["cycle"]
        self.values[:] = values
        self._held.clear()
        self._trace_next = False
