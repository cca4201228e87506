"""Gate-level netlist data structure.

Nets are integers; gates connect input nets to one output net.  Registers
are DFF cells with an initial value.  The structure supports levelization
and the level schedule (for the gate simulator), per-kind statistics and
NAND2-equivalent area (for the paper's Kgate complexity figures).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import SynthesisError
from .gates import AREA, ARITY, GateKind

Net = int


class Gate:
    """One cell instance."""

    __slots__ = ("kind", "inputs", "output", "init")

    def __init__(self, kind: GateKind, inputs: Sequence[Net], output: Net,
                 init: int = 0):
        if len(inputs) != ARITY[kind]:
            raise SynthesisError(
                f"{kind.value} expects {ARITY[kind]} inputs, got {len(inputs)}"
            )
        self.kind = kind
        self.inputs = tuple(inputs)
        self.output = output
        self.init = init  # DFF initial state

    def __repr__(self) -> str:
        return f"{self.kind.value}({', '.join(map(str, self.inputs))}) -> {self.output}"


#: One run of a level: ``(kind, cells)``, where *cells* holds one flat
#: ``(out, in0[, in1, in2])`` tuple per cell of that kind.
Run = Tuple[GateKind, Tuple[Tuple[Net, ...], ...]]


class LevelSchedule:
    """The combinational gates grouped by level, then by kind.

    Primary inputs and DFF outputs are level 0; a combinational gate sits
    one level above the highest level it reads, so every reader of a
    level-L net sits above L.  ``levels[L - 1]`` holds level L's gates as
    one :data:`Run` per :class:`GateKind`.  ``level_of`` maps each
    combinational output net to its level (absent nets are level 0).

    :meth:`trace` adds, on first use, the tables of a settle that
    evaluates only the gates whose inputs changed.  ``activity`` is that
    settle's measurement, shared by every one-lane simulator of the
    netlist (see :mod:`repro.synth.gatesim`).
    """

    __slots__ = ("levels", "level_of", "size", "_net_count", "_trace",
                 "activity")

    def __init__(self, order: Sequence[Gate], net_count: int):
        level_of: Dict[Net, int] = {}
        buckets: List[Dict[GateKind, List[Gate]]] = []
        for gate in order:
            level = 0
            for net in gate.inputs:
                upstream = level_of.get(net, 0)
                if upstream > level:
                    level = upstream
            level += 1
            level_of[gate.output] = level
            # Topological order: a gate is at most one level above the
            # highest level seen so far.
            if level > len(buckets):
                buckets.append({})
            buckets[level - 1].setdefault(gate.kind, []).append(gate)
        self.levels: List[Tuple[Run, ...]] = [
            tuple((kind, tuple((gate.output, *gate.inputs)
                               for gate in gates))
                  for kind, gates in bucket.items())
            for bucket in buckets
        ]
        self.level_of = level_of
        #: Combinational gates in the schedule (one evaluation each per
        #: settle).
        self.size = len(order)
        self._net_count = net_count
        self._trace: Optional[TraceTables] = None
        #: Share of the scheduled gates the last traced settles evaluated
        #: (None until measured).
        self.activity: Optional[float] = None

    def trace(self) -> "TraceTables":
        """The :class:`TraceTables` of this schedule (built once)."""
        if self._trace is None:
            self._trace = TraceTables(self)
        return self._trace


class TraceTables:
    """Fan-out by run, for a settle that evaluates only changed cones.

    The schedule's runs are numbered in order, level by level:
    ``kinds[r]`` is run r's :class:`GateKind`.  ``fanout[net]`` lists
    the cells reading *net* grouped by run, as ``(r, cells)`` pairs,
    each cell the schedule's own ``(out, in0[, in1, in2])`` tuple.
    Everything below ``fanout`` is a tuple of ints and tuples, which the
    garbage collector stops tracking.
    """

    __slots__ = ("kinds", "fanout")

    def __init__(self, schedule: LevelSchedule):
        kinds: List[GateKind] = []
        fanout: List[List[Tuple[int, Tuple[Tuple[Net, ...], ...]]]] = [
            [] for _ in range(schedule._net_count)]
        for runs in schedule.levels:
            for kind, cells in runs:
                readers: Dict[Net, List[Tuple[Net, ...]]] = {}
                for cell in cells:
                    for net in cell[1:]:
                        group = readers.get(net)
                        if group is None:
                            readers[net] = [cell]
                        elif group[-1] is not cell:
                            group.append(cell)
                run = len(kinds)
                kinds.append(kind)
                for net, group in readers.items():
                    fanout[net].append((run, tuple(group)))
        self.kinds = kinds
        self.fanout = [tuple(groups) for groups in fanout]


class Netlist:
    """A flat gate-level netlist.

    :meth:`levelize` and :meth:`schedule` are memoized; :meth:`add` (the
    only mutator of the gate graph) clears both memos, and pickles leave
    them out, so a netlist pickles to the same bytes whether or not it
    has been levelized or simulated.
    """

    _order: Optional[List[Gate]] = None
    _schedule: Optional[LevelSchedule] = None

    def __init__(self, name: str):
        self.name = name
        self._net_count = 0
        self.gates: List[Gate] = []
        self.net_names: Dict[Net, str] = {}
        #: Primary inputs: name -> list of nets (LSB first).
        self.inputs: Dict[str, List[Net]] = {}
        #: Primary outputs: name -> list of nets (LSB first).
        self.outputs: Dict[str, List[Net]] = {}
        self._const0: Optional[Net] = None
        self._const1: Optional[Net] = None
        self._driver: Dict[Net, Gate] = {}

    # -- construction ------------------------------------------------------------

    def new_net(self, name: Optional[str] = None) -> Net:
        """Allocate a fresh net."""
        net = self._net_count
        self._net_count += 1
        if name:
            self.net_names[net] = name
        return net

    def new_bus(self, width: int, name: Optional[str] = None) -> List[Net]:
        """Allocate *width* nets (LSB first)."""
        return [
            self.new_net(f"{name}[{i}]" if name else None)
            for i in range(width)
        ]

    def add(self, kind: GateKind, inputs: Sequence[Net],
            output: Optional[Net] = None, init: int = 0) -> Net:
        """Add a gate; returns its output net."""
        if output is None:
            output = self.new_net()
        if output in self._driver:
            raise SynthesisError(f"net {output} already driven")
        gate = Gate(kind, inputs, output, init)
        self.gates.append(gate)
        self._driver[output] = gate
        self._order = None
        self._schedule = None
        return output

    def const(self, value: int) -> Net:
        """The shared constant-0 or constant-1 net."""
        if value:
            if self._const1 is None:
                self._const1 = self.add(GateKind.CONST1, [])
            return self._const1
        if self._const0 is None:
            self._const0 = self.add(GateKind.CONST0, [])
        return self._const0

    def add_input(self, name: str, width: int) -> List[Net]:
        """Declare a primary input bus."""
        if name in self.inputs:
            raise SynthesisError(f"duplicate input {name!r}")
        bus = self.new_bus(width, name)
        self.inputs[name] = bus
        return bus

    def set_output(self, name: str, nets: Sequence[Net]) -> None:
        """Declare a primary output bus."""
        if name in self.outputs:
            raise SynthesisError(f"duplicate output {name!r}")
        self.outputs[name] = list(nets)

    def driver(self, net: Net) -> Optional[Gate]:
        """The gate driving *net* (None for primary inputs)."""
        return self._driver.get(net)

    # -- queries ----------------------------------------------------------------------

    def dffs(self) -> List[Gate]:
        """All sequential cells."""
        return [g for g in self.gates if g.kind is GateKind.DFF]

    def combinational(self) -> List[Gate]:
        """All combinational cells."""
        return [g for g in self.gates if g.kind is not GateKind.DFF]

    def counts(self) -> Counter:
        """Cell count per kind."""
        return Counter(gate.kind for gate in self.gates)

    def area(self) -> float:
        """Total area in NAND2 equivalents."""
        return sum(AREA[gate.kind] for gate in self.gates)

    def gate_count(self) -> int:
        """Total cell count excluding constants."""
        return sum(
            1 for gate in self.gates
            if gate.kind not in (GateKind.CONST0, GateKind.CONST1)
        )

    def fanout(self) -> Dict[Net, List[Gate]]:
        """Map every net to the gates reading it (its fanout set)."""
        table: Dict[Net, List[Gate]] = {}
        for gate in self.gates:
            for net in gate.inputs:
                table.setdefault(net, []).append(gate)
        return table

    def net_label(self, net: Net) -> str:
        """A human-readable label for *net* (for fault/divergence reports)."""
        name = self.net_names.get(net)
        if name:
            return name
        for out_name, nets in self.outputs.items():
            if net in nets:
                return f"{out_name}[{nets.index(net)}]"
        driver = self._driver.get(net)
        if driver is not None:
            return f"n{net}:{driver.kind.value}"
        return f"n{net}"

    def levelize(self) -> List[Gate]:
        """Combinational gates in topological order (a fresh list).

        DFF outputs and primary inputs are level-0 sources.  The order is
        a depth-first post-order from each gate in :attr:`gates` order,
        visiting a gate's drivers in input order; netlist rewrites depend
        on it.  Raises :class:`SynthesisError` on a combinational cycle.
        """
        if self._order is None:
            self._order = self._levelize()
        return list(self._order)

    def _levelize(self) -> List[Gate]:
        # An explicit stack of (gate, pending-input iterator) frames, so
        # deep cones need no recursion limit.
        order: List[Gate] = []
        done = set()
        visiting = set()
        driver = self._driver
        dff = GateKind.DFF
        for root in self.gates:
            if root.kind is dff or root.output in done:
                continue
            visiting.add(root.output)
            stack = [(root, iter(root.inputs))]
            while stack:
                gate, pending = stack[-1]
                for net in pending:
                    upstream = driver.get(net)
                    if upstream is None or upstream.kind is dff \
                            or net in done:
                        continue
                    if net in visiting:
                        raise SynthesisError(
                            f"combinational cycle through net {net}")
                    visiting.add(net)
                    stack.append((upstream, iter(upstream.inputs)))
                    break
                else:
                    stack.pop()
                    visiting.discard(gate.output)
                    done.add(gate.output)
                    order.append(gate)
        return order

    def schedule(self) -> LevelSchedule:
        """The :class:`LevelSchedule` of the combinational gates."""
        if self._schedule is None:
            self._schedule = LevelSchedule(self.levelize(), self._net_count)
        return self._schedule

    def logic_depth(self) -> int:
        """Longest combinational path, in gate levels."""
        return len(self.schedule().levels)

    def stats(self) -> Dict[str, object]:
        """Summary statistics for reports."""
        counts = self.counts()
        return {
            "name": self.name,
            "cells": self.gate_count(),
            "area_nand2": round(self.area(), 1),
            "dffs": counts.get(GateKind.DFF, 0),
            "depth": self.logic_depth(),
            "by_kind": {k.value: v for k, v in sorted(
                counts.items(), key=lambda kv: kv[0].value)},
        }

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_order", None)
        state.pop("_schedule", None)
        return state

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, {self.gate_count()} cells, "
                f"{len(self.dffs())} DFFs, area={self.area():.0f})")
