"""Levelized gate-level netlist simulation.

This is the "VHDL/Verilog (netlist)" row of Table 1: simulation after
synthesis.  The netlist's :class:`LevelSchedule` is fixed once (and
shared by every simulator of the netlist).  A settle sweeps it level by
level, running each level's cells of one kind in a loop specialized to
that kind; finally the DFFs are clocked.

Two kernels
-----------
A simulator of at most 64 lanes runs the native kernel
(``gatekernel.c``, DESIGN.md §21): one C sweep over the schedule's flat
arrays, which also writes the pins, packs the output buses for reading,
applies the saboteurs and clocks the DFFs.  :mod:`repro.synth.native` builds it
once per source digest with the host's C compiler.  Where there is no
compiler, where the build fails, and above 64 lanes, the simulator runs
the Python kernel, :class:`GateSimulator`'s own methods, which is also
the reference the C kernel is tested against.  Both compute the same
values bit for bit; ``lanes`` is the one switch.

Replays
-------
:meth:`GateSimulator.replay` runs a range of cycles of a
:class:`PinProgram` (a broadcast pin program packed once) and either
records lane 0's output words (a golden run) or claims each lane's first
divergence from recorded words (:class:`Detections`).  On the native
kernel the whole range is one C call; the Python kernel steps it cycle
by cycle.  A fault campaign is made of such replays.

Word-parallel lanes
-------------------
The netlist defines *what* every net computes; ``lanes`` decides *how
many* independent stimulus vectors evaluate it per step.  Each entry of
:attr:`values` is an int whose bit L holds lane L's boolean, so one
bitwise operation per gate simulates all lanes at once (classic
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

import ctypes
from array import array
from contextlib import contextmanager
from operator import index as _integer
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from . import native
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

#: Simulators of at most this many lanes run the native kernel, one
#: ``uint64`` word per net.
_NATIVE_LANES = 64
_WORD = (1 << 64) - 1


@contextmanager
def _python_kernel():
    """Simulators built inside this block run the Python kernel.

    A private seam: the tests hold both kernels to the same values, and
    Table 1 keeps its Python netlist row.
    """
    global _NATIVE_LANES
    saved, _NATIVE_LANES = _NATIVE_LANES, 0
    try:
        yield
    finally:
        _NATIVE_LANES = saved


def _lane_mask(lanes: Optional[Iterable[int]], all_mask: int) -> int:
    """An iterable of lane indices (or None = every lane) as a bit mask."""
    if lanes is None:
        return all_mask
    mask = 0
    for lane in lanes:
        mask |= 1 << lane
    return mask & all_mask


def _chunk_buses(buses: Mapping[str, Sequence[Net]], starts: List[int],
                 nets: List[Net]) -> Dict[str, Tuple[int, int, int]]:
    """Cut *buses* into chunks of at most 64 nets, LSB first.

    Each chunk's nets are appended to *nets* and its end to *starts*.
    Returns name -> (first chunk, chunks, width).
    """
    table = {}
    for name, bus in buses.items():
        first = len(starts) - 1
        for at in range(0, len(bus), 64):
            nets.extend(bus[at:at + 64])
            starts.append(len(nets))
        table[name] = (first, len(starts) - 1 - first, len(bus))
    return table


class PinProgram:
    """A broadcast pin program, packed once for :meth:`GateSimulator.replay`.

    ``cycles[t]`` maps input names to the raw value cycle t drives on
    every lane; a pin that a cycle leaves out keeps its value.  ``raws``
    holds the same program as one ``uint64`` word per cycle and pin chunk
    (the simulators cut buses into chunks of at most 64 nets), and
    ``driven`` flags the words a cycle writes.  Every simulator of
    *netlist* can replay it.
    """

    def __init__(self, netlist: Netlist,
                 cycles: Sequence[Mapping[str, int]]):
        self.netlist = netlist
        self.cycles = [dict(pins) for pins in cycles]
        starts = [0]
        pins = _chunk_buses(netlist.inputs, starts, [])
        #: Pin chunks per cycle.
        self.chunks = chunks = len(starts) - 1
        self.raws = raws = _zeros("Q", len(self.cycles) * chunks)
        self.driven = driven = _zeros("B", len(self.cycles) * chunks)
        for row, drives in enumerate(self.cycles):
            row *= chunks
            for name, raw in drives.items():
                entry = pins.get(name)
                if entry is None:
                    raise SimulationError(
                        f"netlist {netlist.name!r} has no input {name!r}")
                first, count, _width = entry
                raw = _integer(raw)
                for k in range(row + first, row + first + count):
                    raws[k] = raw & _WORD
                    driven[k] = 1
                    raw >>= 64

    def __len__(self) -> int:
        return len(self.cycles)


class Detections:
    """Lanes of replays checked against a golden run.

    *golden* is what :meth:`GateSimulator.replay` recorded for the same
    program on a simulator of the same netlist.  Lanes ``0 .. lanes - 1``
    start in :attr:`undetected`, a lane mask; a checking replay claims
    each lane's first divergence, :meth:`first`.
    """

    __slots__ = ("golden", "lanes", "undetected", "claims")

    def __init__(self, golden: array, lanes: int):
        self.golden = golden
        self.lanes = lanes
        self.undetected = (1 << lanes) - 1
        #: ``claims[2L]`` and ``claims[2L + 1]``: lane L's first divergent
        #: cycle and output (-1 while undetected).
        self.claims = array("i", [-1]) * (2 * lanes)

    def first(self, lane: int) -> Optional[Tuple[int, int]]:
        """Lane *lane*'s first divergence: ``(cycle, output)``, *output*
        the index in the netlist's outputs of the first bus that differed
        on that cycle; None while undetected."""
        cycle = self.claims[2 * lane]
        if cycle < 0:
            return None
        return cycle, self.claims[2 * lane + 1]


class GateSimulator:
    """Cycle-based two-valued simulation of a :class:`Netlist`.

    ``lanes`` independent stimulus vectors run per step (default 1); all
    lanes share the netlist and the clock, and differ only in pin values
    and injected faults.
    """

    def __new__(cls, netlist: Netlist, obs=None, lanes: int = 1):
        if cls is GateSimulator and lanes <= _NATIVE_LANES \
                and native.library() is not None:
            cls = _NativeGateSimulator
        return super().__new__(cls)

    def __init__(self, netlist: Netlist, obs=None, lanes: int = 1):
        if lanes < 1:
            raise SimulationError(f"lanes must be >= 1, got {lanes}")
        self.netlist = netlist
        self.lanes = lanes
        self.lane_mask = (1 << lanes) - 1
        self._schedule = schedule = netlist.schedule()
        self.cycle = 0
        self.monitors = []
        #: Word-level gate evaluations performed so far (one per gate per
        #: settle, independent of lane count and kernel — the denominator
        #: of the batched campaign's "fewer gate-evaluation steps" claim).
        self.gate_evals = 0
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
        #: read the corresponding bit of *bits*, and a bit outside the
        #: simulator's lanes or outside *set_mask* means nothing (the
        #: plan masks them); ``_flips[net]`` is an xor mask.  Managed
        #: with :meth:`force`, :meth:`flip` and :meth:`release`.
        self._forces: Dict[Net, Tuple[int, int]] = {}
        self._flips: Dict[Net, int] = {}
        #: The saboteurs as the kernel applies them (here grouped by the
        #: level of their net); None when they changed since the last
        #: settle.
        self._overrides = None
        # The buses in chunks of at most 64 nets, pins first: chunk c is
        # nets ``nets[starts[c]:starts[c + 1]]``.
        starts: List[int] = [0]
        nets: List[Net] = []
        #: Input name -> (first chunk, chunks, width).
        self._pins = _chunk_buses(netlist.inputs, starts, nets)
        self._pin_chunks = pin_chunks = len(starts) - 1
        #: Output name -> (first chunk, chunks, width), chunks counted
        #: from the first output chunk (a recorded replay's column).
        self._outs = {name: (first - pin_chunks, count, width)
                      for name, (first, count, width)
                      in _chunk_buses(netlist.outputs, starts, nets).items()}
        self._out_chunks = len(starts) - 1 - pin_chunks
        #: Lane-packed net values: bit L of ``values[net]`` is lane L.
        self.values = self._init_kernel(netlist._net_count, starts, nets)
        for q in schedule.q_ones:
            self.values[q] = self.lane_mask
        # Settle the combinational logic against the initial state.
        self._propagate()

    def _init_kernel(self, count: int, starts: List[int],
                     nets: List[Net]) -> List[int]:
        """The kernel's state; returns *count* zeroed net values.

        *starts* and *nets* are the bus chunks, as the native kernel
        reads them.
        """
        #: Driven values of level-0 nets whose stored value currently
        #: holds an override; restored before the next settle unless the
        #: pin is driven or the DFF clocked first.
        self._held: Dict[Net, int] = {}
        self._q_set = frozenset(self._schedule.q_nets)
        return [0] * count

    # -- pin access ------------------------------------------------------------

    def set_input(self, name: str, raw: int) -> None:
        """Drive a primary input bus with two's-complement *raw*.

        The value is broadcast to every lane; use :meth:`set_input_lanes`
        for per-lane stimulus.
        """
        bus = self._input_bus(name)
        mask = self.lane_mask
        values = self.values
        for i, net in enumerate(bus):
            values[net] = -((raw >> i) & 1) & mask
        if self._held:
            self._unhold(bus)

    def set_input_lanes(self, name: str, raws: Sequence[int]) -> None:
        """Drive a primary input bus with one raw value per lane."""
        bus = self._input_bus(name)
        self._check_lanes(name, raws)
        for i, net in enumerate(bus):
            packed = 0
            for lane, raw in enumerate(raws):
                packed |= ((raw >> i) & 1) << lane
            self.values[net] = packed
        if self._held:
            self._unhold(bus)

    def _check_lanes(self, name: str, raws: Sequence[int]) -> None:
        if len(raws) != self.lanes:
            raise SimulationError(
                f"input {name!r}: got {len(raws)} values for "
                f"{self.lanes} lanes"
            )

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
        self.force_many({net: (lm, -(value & 1) & lm)})

    def force_many(self, forces: Mapping[Net, Tuple[int, int]]) -> None:
        """Stuck-at saboteurs on many nets at once, lanes as bit masks.

        ``forces[net] = (lanes, bits)`` holds the lanes in mask *lanes*
        of *net* at the matching bits of *bits*, as :meth:`force` does
        with one value; each net keeps one override, whatever its lanes.
        With no force armed, the table takes *forces* as they are, in
        one dict copy (lanes are masked when the plan is made), so a
        fault campaign's chunk costs no Python pass here.
        """
        if forces and not (min(forces) >= 0
                           and max(forces) < len(self._schedule.level_of)):
            for net in forces:
                self._check_net(net)
        table = self._forces
        if not table:
            table.update(forces)
        else:
            for net, (lanes, bits) in forces.items():
                set_mask, old_bits = table.get(net, (0, 0))
                table[net] = (set_mask | lanes, (old_bits & ~lanes)
                              | (bits & lanes))
        self._overrides = None

    def flip(self, net: Net, lanes: Optional[Iterable[int]] = None) -> None:
        """Transient saboteur: invert *net*'s settled value while armed.

        Models a single-event upset; arm before a :meth:`step` and
        :meth:`release` afterwards for a one-cycle bit flip.  *lanes*
        restricts the flip to a lane subset.
        """
        self._check_net(net)
        self._flips[net] = self._flips.get(net, 0) \
            | _lane_mask(lanes, self.lane_mask)
        self._overrides = None

    def _check_net(self, net: Net) -> None:
        if not 0 <= net < len(self._schedule.level_of):
            raise SimulationError(
                f"netlist {self.netlist.name!r} has no net {net}")

    def release(self, net: Optional[Net] = None,
                lanes: Optional[Iterable[int]] = None) -> None:
        """Remove injected faults.

        ``release()`` clears everything; ``release(net)`` clears both
        saboteurs on one net; *lanes* restricts either form to a lane
        subset.
        """
        self._overrides = None
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
                set_mask &= ~lm & self.lane_mask
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
        all_mask = self.lane_mask
        plan: Dict[int, List[_Override]] = {}
        for net, (set_mask, bits) in forces.items():
            set_mask &= all_mask
            flip = flips.get(net, 0) & ~set_mask
            plan.setdefault(level_of[net], []).append(
                (net, ~set_mask, bits & set_mask, flip))
        for net, flip in flips.items():
            if net not in forces:
                plan.setdefault(level_of[net], []).append((net, -1, 0, flip))
        return plan

    def _propagate(self) -> None:
        """Settle the combinational logic: one pass over the schedule."""
        schedule = self._schedule
        self.gate_evals += schedule.size
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

    def _clock(self) -> None:
        """The clock edge: sample every D before updating any Q."""
        values = self.values
        schedule = self._schedule
        sampled = [values[net] for net in schedule.d_nets]
        for net, value in zip(schedule.q_nets, sampled):
            values[net] = value
        if self._held:
            self._unhold(self._q_set.intersection(self._held))

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
            self._drive(inputs)
        self._propagate()
        if self.monitors:
            for monitor in self.monitors:
                monitor(self)
        self._clock()
        self.cycle += 1

    def _drive(self, inputs: Mapping[str, object]) -> None:
        for name, raw in inputs.items():
            if isinstance(raw, (list, tuple)):
                self.set_input_lanes(name, raw)
            else:
                self.set_input(name, raw)

    def run(self, cycles: int,
            inputs_fn=None) -> None:
        """Simulate *cycles* clock cycles."""
        for _ in range(cycles):
            self.step(inputs_fn(self.cycle) if inputs_fn else None)

    def settled_outputs(self, lane: int = 0) -> Dict[str, int]:
        """All primary outputs of one lane after the last settle."""
        return {name: self.output(name, lane=lane)
                for name in self.netlist.outputs}

    def settled_outputs_lanes(self) -> Dict[str, List[int]]:
        """All primary outputs of every lane after the last settle."""
        return {name: self.output_lanes(name)
                for name in self.netlist.outputs}

    # -- replays -----------------------------------------------------------------------

    def replay(self, program: PinProgram, start: int, stop: int,
               golden: Optional[Detections] = None) -> Optional[array]:
        """Run cycles ``[start, stop)`` of *program*, as :meth:`step` would.

        Without *golden* the replay records lane 0's output words after
        each settle, and returns them: one row per cycle of the program
        (the cycles outside the range read 0), each a ``uint64`` per
        output chunk of at most 64 nets, outputs in netlist order, LSB
        first.  With *golden* (:class:`Detections`) it diffs every
        output bus's lanes against those golden words after each settle,
        bus by bus in netlist order, and claims each undetected lane
        whose bus differs; it stops after the cycle that leaves no lane
        undetected, and runs nothing when none is left.  Cycles, gate
        evaluations and net values advance as under :meth:`step`.
        """
        self._check_replay(program, start, stop, golden)
        values = self.values
        starts, nets = [0], []
        _chunk_buses(self.netlist.outputs, starts, nets)
        chunks = [nets[a:b] for a, b in zip(starts, starts[1:])]
        columns = len(chunks)
        state = {"cycle": start}
        record = None
        if golden is None:
            record = _zeros("Q", len(program) * columns)

            def monitor(sim) -> None:
                row = state["cycle"] * columns
                for c, bus in enumerate(chunks):
                    record[row + c] = sim.read_bus(bus, signed=False)
        else:
            words, claims = golden.golden, golden.claims
            count = golden.lanes
            active_mask = (1 << count) - 1
            buses = [(first, first + n)
                     for first, n, _width in self._outs.values()]

            def monitor(_sim) -> None:
                cycle = state["cycle"]
                undetected = golden.undetected
                row = cycle * columns
                for output, (first, end) in enumerate(buses):
                    diff = 0
                    for c in range(first, end):
                        value = words[row + c]
                        for i, net in enumerate(chunks[c]):
                            golden_bits = -((value >> i) & 1) & active_mask
                            diff |= values[net] ^ golden_bits
                    newly = diff & undetected
                    if newly:
                        for lane in range(count):
                            if (newly >> lane) & 1:
                                claims[2 * lane] = cycle
                                claims[2 * lane + 1] = output
                        undetected &= ~newly
                        if not undetected:
                            break
                golden.undetected = undetected

        monitors = self.monitors
        self.monitors = [*monitors, monitor]
        try:
            for cycle in range(start, stop):
                if golden is not None and not golden.undetected:
                    break
                state["cycle"] = cycle
                self.step(program.cycles[cycle])
        finally:
            self.monitors = monitors
        return record

    def _check_replay(self, program: PinProgram, start: int, stop: int,
                      golden: Optional[Detections]) -> None:
        """Reject what would make the native kernel read out of bounds."""
        if program.netlist is not self.netlist \
                or program.chunks != self._pin_chunks:
            raise SimulationError(
                f"the pin program was not packed for netlist "
                f"{self.netlist.name!r}")
        if not 0 <= start <= stop <= len(program):
            raise SimulationError(
                f"cycles [{start}, {stop}) outside a program of "
                f"{len(program)} cycles")
        if golden is not None:
            words = golden.golden
            if not isinstance(words, array) or words.typecode != "Q" \
                    or len(words) != len(program) * self._out_chunks:
                raise SimulationError(
                    "the golden run does not match the program and the "
                    f"outputs of netlist {self.netlist.name!r}")
            if golden.lanes > self.lanes or golden.undetected >> golden.lanes \
                    or len(golden.claims) != 2 * golden.lanes:
                raise SimulationError(
                    f"{golden.lanes} lanes checked on a simulator of "
                    f"{self.lanes}")

    def recorded_outputs(self, record: array,
                         cycles: int) -> List[Dict[str, int]]:
        """The first *cycles* cycles of a recorded :meth:`replay` as
        :meth:`settled_outputs` reads them: one ``{output: raw}`` each."""
        columns = self._out_chunks
        outputs = []
        for cycle in range(cycles):
            row = cycle * columns
            values = {}
            for name, (first, count, width) in self._outs.items():
                raw = 0
                for k in range(count):
                    raw |= record[row + first + k] << 64 * k
                if width and raw >> (width - 1):
                    raw -= 1 << width
                values[name] = raw
            outputs.append(values)
        return outputs

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

        The restored nets need not agree with the logic (a checkpoint
        taken after a clock edge holds the new register values and the
        old logic); the next settle makes them agree.
        """
        self.values[:] = self._checkpoint_values(state)
        self.cycle = state["cycle"]
        self._held.clear()

    def _checkpoint_values(self, state: Dict[str, object]) -> List[int]:
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
        return values


class _Words(array):
    """Lane words (``uint64``) in a buffer the native kernel shares.

    Indexable like the Python kernel's list, and equal to a list of the
    same ints.
    """

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, list):
            return self.tolist() == other
        return array.__eq__(self, other)

    def __ne__(self, other):
        if isinstance(other, list):
            return self.tolist() != other
        return array.__ne__(self, other)


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _zeros(typecode: str, count: int) -> array:
    return array(typecode, bytes(array(typecode).itemsize * count))


class _NativeGateSimulator(GateSimulator):
    """A :class:`GateSimulator` whose values live in the native kernel.

    Every value-level step is one C call: a pin write, the settle (with
    the pins :meth:`step` staged), the clock edge, a restore, a
    :meth:`replay` of a range of cycles.  The C kernel keeps lane 0 of
    every output bus packed, so :meth:`output` reads one word.  Buses
    wider than 64 nets are split into chunks of 64.  Saboteur
    bookkeeping stays in Python; a changed plan becomes the kernel's
    override arrays before the next settle.
    """

    def _init_kernel(self, count: int, starts: List[int],
                     nets: List[Net]) -> _Words:
        self._lib = native.library()
        values = _Words("Q", bytes(8 * count))
        # An exported buffer cannot be resized, so the kernel's pointer
        # to it stays valid.
        self._export = memoryview(values)
        pin_chunks, out_chunks = self._pin_chunks, self._out_chunks
        out_end = [first + count for first, count, _width
                   in self._outs.values()]
        schedule = self._schedule
        # Every buffer the record points to, kept alive with it.
        self._buffers = buffers = {
            "bus_start": array("i", starts),
            "bus_nets": array("i", nets),
            "out_end": array("i", out_end),
            "sampled": _zeros("Q", len(schedule.d_nets)),
            "pin_raw": _zeros("Q", pin_chunks),
            "pin_staged": _zeros("B", pin_chunks),
            "out_raw": _zeros("Q", out_chunks),
            "held_nets": _zeros("i", count),
            "held_values": _zeros("Q", count),
            "is_held": _zeros("B", count),
        }
        #: Scratch words: a bus chunk on every lane, a replay's lanes
        #: still undetected.
        self._lane_words = _zeros("Q", self.lanes)
        self._undetected = _zeros("Q", 1)
        self._pin_raw = buffers["pin_raw"]
        self._pin_staged = buffers["pin_staged"]
        self._out_raw = buffers["out_raw"]
        self._sim = sim = native.Sim(
            values=_address(values), mask=self.lane_mask,
            levels=len(schedule.level_end),
            level_end=_address(schedule.level_end),
            runs=_address(schedule.runs), cells=_address(schedule.cells),
            dffs=len(schedule.d_nets), d_nets=_address(schedule.d_nets),
            q_nets=_address(schedule.q_nets), pin_chunks=pin_chunks,
            out_chunks=out_chunks, out_buses=len(out_end),
            **{name: _address(buffer) for name, buffer in buffers.items()})
        self._ptr = ctypes.addressof(sim)
        return values

    def set_input(self, name: str, raw: int) -> None:
        first, count, _width = self._pin(name)
        raw = _integer(raw)
        for k in range(count):
            self._lib.gk_drive(self._ptr, first + k, (raw >> 64 * k) & _WORD)

    def set_input_lanes(self, name: str, raws: Sequence[int]) -> None:
        first, count, _width = self._pin(name)
        self._check_lanes(name, raws)
        for k in range(count):
            words = array("Q", [(_integer(raw) >> 64 * k) & _WORD
                                for raw in raws])
            self._lib.gk_drive_lanes(self._ptr, first + k, _address(words))

    def _pin(self, name: str) -> Tuple[int, int, int]:
        entry = self._pins.get(name)
        if entry is None:
            self._input_bus(name)  # raises
        return entry

    def _drive(self, inputs: Mapping[str, object]) -> None:
        # One-chunk broadcast writes are staged for the settle that
        # follows; nothing reads the values in between.
        pins, raws, staged = self._pins, self._pin_raw, self._pin_staged
        for name, raw in inputs.items():
            if isinstance(raw, (list, tuple)):
                self.set_input_lanes(name, raw)
                continue
            entry = pins.get(name)
            if entry is None or entry[1] != 1:
                self.set_input(name, raw)  # an unknown pin raises
                continue
            raws[entry[0]] = _integer(raw) & _WORD
            staged[entry[0]] = 1

    def output(self, name: str, signed: bool = True, lane: int = 0) -> int:
        entry = self._outs.get(name)
        if entry is None or not 0 <= lane < self.lanes:
            return GateSimulator.output(self, name, signed, lane)
        first, count, width = entry
        if lane == 0 and count == 1:
            raw = self._out_raw[first]
        else:
            chunk = self._pin_chunks + first
            raw = 0
            for k in range(count):
                raw |= self._lib.gk_read(self._ptr, chunk + k, lane) << 64 * k
        if signed and width and raw >> (width - 1):
            raw -= 1 << width
        return raw

    def output_lanes(self, name: str, signed: bool = True) -> List[int]:
        entry = self._outs.get(name)
        if entry is None:
            self._output_bus(name)  # raises
        first, count, width = entry
        chunk = self._pin_chunks + first
        words = self._lane_words
        if count == 1:
            self._lib.gk_read_lanes(self._ptr, chunk, _address(words))
            raws = words.tolist()
        else:
            raws = [0] * self.lanes
            for k in range(count):
                self._lib.gk_read_lanes(self._ptr, chunk + k, _address(words))
                for lane, word in enumerate(words):
                    raws[lane] |= word << 64 * k
        if signed and width:
            sign = 1 << (width - 1)
            raws = [raw - (sign << 1) if raw & sign else raw for raw in raws]
        return raws

    def _arm(self) -> None:
        """The armed saboteurs as the kernel's override arrays.

        One pass over the nets in level order writes ``(level, net)``
        and ``(keep, bits, flip)`` per net, as :meth:`_plan_overrides`
        plans them: a force beats a flip on the same (net, lane).
        """
        level_of = self._schedule.level_of
        forces, flips = self._forces, self._flips
        nets = forces.keys() | flips.keys() if flips else forces
        all_mask = self.lane_mask
        where, words = [], []
        for net in sorted(nets, key=level_of.__getitem__):
            set_mask, bits = forces.get(net, (0, 0))
            set_mask &= all_mask
            where += (level_of[net], net)
            words += (_WORD ^ set_mask, bits & set_mask,
                      flips.get(net, 0) & ~set_mask)
        where, words = array("i", where), array("Q", words)
        # Alive while the kernel reads them.
        self._overrides = (where, words)
        sim = self._sim
        sim.overrides = len(where) // 2
        sim.ov = _address(where)
        sim.ov_words = _address(words)

    def _propagate(self) -> None:
        self.gate_evals += self._schedule.size
        if self._overrides is None:
            self._arm()
        self._lib.gk_settle(self._ptr)

    def _clock(self) -> None:
        self._lib.gk_clock(self._ptr)

    def replay(self, program: PinProgram, start: int, stop: int,
               golden: Optional[Detections] = None) -> Optional[array]:
        if self.monitors:
            # Monitors see every settle: step through the cycles.
            return GateSimulator.replay(self, program, start, stop, golden)
        self._check_replay(program, start, stop, golden)
        if self._overrides is None:
            self._arm()
        if golden is None:
            record = words = _zeros("Q", len(program) * self._out_chunks)
            undetected = claims = None
        else:
            record, words = None, golden.golden
            self._undetected[0] = golden.undetected
            undetected = _address(self._undetected)
            claims = _address(golden.claims)
        ran = self._lib.gk_replay(
            self._ptr, _address(program.raws), _address(program.driven),
            start, stop, _address(words), undetected, claims)
        if golden is not None:
            golden.undetected = self._undetected[0]
        self.cycle += ran
        self.gate_evals += ran * self._schedule.size
        return record

    def save_state(self) -> Dict[str, object]:
        # One buffer copy; a _Words still equals the list of net words.
        values = _Words("Q", self.values)
        held = self._buffers
        nets, driven, is_held = \
            held["held_nets"], held["held_values"], held["is_held"]
        for k in range(self._sim.n_held):
            net = nets[k]
            if is_held[net]:
                values[net] = driven[k]
        return {"cycle": self.cycle, "values": values, "lanes": self.lanes}

    def restore_state(self, state: Dict[str, object]) -> None:
        values = self._checkpoint_values(state)
        if not (isinstance(values, array) and values.typecode == "Q"):
            values = array("Q", values)  # a Python kernel's checkpoint
        self.values[:] = values  # one buffer copy
        self.cycle = state["cycle"]
        self._lib.gk_restored(self._ptr)
