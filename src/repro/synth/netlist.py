"""Gate-level netlist data structure.

Nets are integers; gates connect input nets to one output net.  Registers
are DFF cells with an initial value.  The structure supports levelization
and the level schedule (for the gate simulator), per-kind statistics and
NAND2-equivalent area (for the paper's Kgate complexity figures).

A netlist stores its gates by column (DESIGN.md §20): gate ``i`` has kind
code ``gate_kinds[i]`` (``KINDS[code]`` is its :class:`GateKind`), input
nets ``gate_inputs[i]`` (a tuple of ints), output net ``gate_outputs[i]``
and initial state ``gate_inits[i]``.  Ints, a bytearray and tuples of
ints are nothing the garbage collector walks once it has seen them, so a
synthesized design holds a few tracked containers per netlist instead of
one object per gate.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import SynthesisError
from .gates import AREA, ARITY, KINDS, GateKind

Net = int

_CONST0 = GateKind.CONST0.code
_CONST1 = GateKind.CONST1.code
_DFF = GateKind.DFF.code
#: Inputs and area per kind code.
_ARITY = tuple(ARITY[kind] for kind in KINDS)
_AREA = tuple(AREA[kind] for kind in KINDS)


class Gate:
    """One cell of a netlist pickled before gates were stored by column.

    Such a pickle holds one of these per gate; :meth:`Netlist.__setstate__`
    reads them to rebuild the columns.  Nothing else makes one.
    """

    __slots__ = ("kind", "inputs", "output", "init")


#: One run of a level: ``(kind, cells)``, where *cells* holds one flat
#: ``(out, in0[, in1, in2])`` tuple per cell of that kind.
Run = Tuple[GateKind, Tuple[Tuple[Net, ...], ...]]


class LevelSchedule:
    """The combinational gates grouped by level, then by kind.

    Primary inputs and DFF outputs are level 0; a combinational gate sits
    one level above the highest level it reads, so every reader of a
    level-L net sits above L.  Within a level the gates form one *run*
    per :class:`GateKind`.  ``level_of[net]`` is each net's level (0 for
    primary inputs and DFF outputs).

    The schedule is stored flat, in the ``int32`` arrays the native gate
    kernel reads (DESIGN.md §21): ``runs`` holds each run's kind code and
    cell count, ``cells`` the runs' cells one after another, each its
    output net and then its input nets, and level L's runs end at run
    ``level_end[L - 1]``.  :attr:`levels` is the same schedule as tuples,
    for the Python kernel.  The registers are stored with it: at the
    clock edge net ``q_nets[i]`` takes ``d_nets[i]``, and ``q_ones``
    lists the register outputs that start at 1.
    """

    __slots__ = ("level_end", "runs", "cells", "level_of", "size",
                 "d_nets", "q_nets", "q_ones", "_levels")

    def __init__(self, netlist: "Netlist", order: Sequence[int]):
        kinds = netlist.gate_kinds
        ins = netlist.gate_inputs
        outs = netlist.gate_outputs
        level_of = [0] * netlist._net_count
        #: Per level, each kind code's gates in order of first appearance.
        buckets: List[Dict[int, List[int]]] = []
        for index in order:
            level = 0
            for net in ins[index]:
                upstream = level_of[net]
                if upstream > level:
                    level = upstream
            level_of[outs[index]] = level + 1
            # Topological order: a gate is at most one level above the
            # highest level seen so far.
            if level == len(buckets):
                buckets.append({})
            runs = buckets[level]
            code = kinds[index]
            members = runs.get(code)
            if members is None:
                members = runs[code] = []
            members.append(index)
        level_end, run_list, cells = [], [], []
        add_out, add_ins = cells.append, cells.extend
        for runs in buckets:
            for code, members in runs.items():
                run_list += (code, len(members))
                for index in members:
                    add_out(outs[index])
                    add_ins(ins[index])
            level_end.append(len(run_list) // 2)
        self.level_end = array("i", level_end)
        self.runs = array("i", run_list)
        self.cells = array("i", cells)
        self.level_of = level_of
        #: Combinational gates in the schedule (one evaluation each per
        #: settle).
        self.size = len(order)
        dffs = netlist.indices(GateKind.DFF)
        inits = netlist.gate_inits
        self.d_nets = array("i", [ins[index][0] for index in dffs])
        self.q_nets = array("i", [outs[index] for index in dffs])
        self.q_ones = [outs[index] for index in dffs if inits[index] & 1]
        self._levels: Optional[List[Tuple[Run, ...]]] = None

    @property
    def levels(self) -> List[Tuple[Run, ...]]:
        """The schedule as tuples (built on first use): ``levels[L - 1]``
        holds level L's runs as :data:`Run` pairs."""
        if self._levels is None:
            runs, cells = self.runs, self.cells
            levels = []
            first = at = 0
            for end in self.level_end:
                level = []
                for run in range(first, end):
                    code, count = runs[2 * run], runs[2 * run + 1]
                    width = 1 + _ARITY[code]
                    stop = at + count * width
                    nets = iter(cells[at:stop])
                    level.append((KINDS[code], tuple(zip(*[nets] * width))))
                    at = stop
                levels.append(tuple(level))
                first = end
            self._levels = levels
        return self._levels


class Netlist:
    """A flat gate-level netlist, stored by column.

    ``gate_kinds`` (a bytearray of kind codes), ``gate_inputs``,
    ``gate_outputs`` and ``gate_inits`` hold one entry per gate, in the
    order :meth:`add` received them; only :meth:`add` changes them.
    :meth:`levelize_indices` and :meth:`schedule` are memoized;
    :meth:`add` clears both and pickles leave them out, so a netlist
    pickles to the same bytes whether or not it has been levelized or
    simulated.
    """

    _order: Optional[List[int]] = None
    _schedule: Optional[LevelSchedule] = None

    def __init__(self, name: str):
        self.name = name
        self._net_count = 0
        #: Kind code of each gate (``KINDS[code]`` is its kind).
        self.gate_kinds = bytearray()
        #: Input nets of each gate.
        self.gate_inputs: List[Tuple[Net, ...]] = []
        #: Output net of each gate.
        self.gate_outputs: List[Net] = []
        #: Initial state of each gate (DFFs; 0 elsewhere).
        self.gate_inits: List[int] = []
        self.net_names: Dict[Net, str] = {}
        #: Primary inputs: name -> list of nets (LSB first).
        self.inputs: Dict[str, List[Net]] = {}
        #: Primary outputs: name -> list of nets (LSB first).
        self.outputs: Dict[str, List[Net]] = {}
        self._const0: Optional[Net] = None
        self._const1: Optional[Net] = None
        #: Driven net -> index of its gate.
        self._driver: Dict[Net, int] = {}

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
        code = kind.code
        inputs = tuple(inputs)
        if len(inputs) != _ARITY[code]:
            raise SynthesisError(
                f"{kind.value} expects {_ARITY[code]} inputs, "
                f"got {len(inputs)}")
        driver = self._driver
        if output is None:
            output = self._net_count
            self._net_count = output + 1
        elif output in driver:
            raise SynthesisError(f"net {output} already driven")
        driver[output] = len(self.gate_outputs)
        self.gate_kinds.append(code)
        self.gate_inputs.append(inputs)
        self.gate_outputs.append(output)
        self.gate_inits.append(init)
        if self._order is not None:  # the schedule needs the order
            self._order = self._schedule = None
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

    def renamed(self, name: str, names: Dict[str, str]) -> "Netlist":
        """A copy of this netlist called *name*, each net name ``a``
        becoming ``names[a]``; it shares no mutable object with this one."""
        copy = Netlist(name)
        # The columns hold ints and tuples of ints: shallow copies share
        # nothing mutable.
        copy.gate_kinds = bytearray(self.gate_kinds)
        copy.gate_inputs = list(self.gate_inputs)
        copy.gate_outputs = list(self.gate_outputs)
        copy.gate_inits = list(self.gate_inits)
        copy._driver = dict(self._driver)
        copy._net_count = self._net_count
        copy.net_names = {net: names[label]
                          for net, label in self.net_names.items()}
        copy.inputs = {port: list(bus) for port, bus in self.inputs.items()}
        copy.outputs = {port: list(bus) for port, bus in self.outputs.items()}
        copy._const0, copy._const1 = self._const0, self._const1
        return copy

    # -- queries ----------------------------------------------------------------------

    def driver_index(self, net: Net) -> Optional[int]:
        """The index of the gate driving *net* (None for primary inputs)."""
        return self._driver.get(net)

    def indices(self, kind: GateKind) -> List[int]:
        """Indices of the gates of *kind*, in gate order."""
        code = kind.code
        kinds = self.gate_kinds
        found = []
        index = kinds.find(code)
        while index >= 0:
            found.append(index)
            index = kinds.find(code, index + 1)
        return found

    def counts(self) -> Counter:
        """Cell count per kind."""
        kinds = self.gate_kinds
        return Counter({KINDS[code]: kinds.count(code)
                        for code in sorted(set(kinds))})

    def area(self) -> float:
        """Total area in NAND2 equivalents."""
        return sum(map(_AREA.__getitem__, self.gate_kinds))

    def gate_count(self) -> int:
        """Total cell count excluding constants."""
        kinds = self.gate_kinds
        return len(kinds) - kinds.count(_CONST0) - kinds.count(_CONST1)

    def net_label(self, net: Net) -> str:
        """A human-readable label for *net* (for fault/divergence reports)."""
        name = self.net_names.get(net)
        if name:
            return name
        for out_name, nets in self.outputs.items():
            if net in nets:
                return f"{out_name}[{nets.index(net)}]"
        index = self._driver.get(net)
        if index is not None:
            return f"n{net}:{KINDS[self.gate_kinds[index]].value}"
        return f"n{net}"

    def levelize_indices(self) -> List[int]:
        """The combinational gates' indices in topological order
        (memoized: do not mutate).

        DFF outputs and primary inputs are level-0 sources.  The order is
        a depth-first post-order from each gate in gate order, visiting a
        gate's drivers in input order; netlist rewrites depend on it.
        Raises :class:`SynthesisError` on a combinational cycle.
        """
        if self._order is None:
            self._order = self._levelize()
        return self._order

    def _levelize(self) -> List[int]:
        # Gates added in topological order, as synthesis and the
        # optimizer mostly add them, are their own depth-first order: every
        # combinational driver precedes its reader, so each search ends at
        # its root.  One pass checks that.
        kinds = self.gate_kinds
        ins = self.gate_inputs
        driver = self._driver.get
        order = []
        for index, code in enumerate(kinds):
            if code == _DFF:
                continue
            for net in ins[index]:
                upstream = driver(net)
                if upstream is not None and upstream >= index \
                        and kinds[upstream] != _DFF:
                    return self._search()
            order.append(index)
        return order

    def _search(self) -> List[int]:
        # An explicit stack of (gate, pending-input iterator) frames, so
        # deep cones need no recursion limit.  ``state`` is 1 for a gate
        # on the stack, 2 once it is placed.
        kinds = self.gate_kinds
        ins = self.gate_inputs
        driver = self._driver.get
        state = bytearray(len(kinds))
        order: List[int] = []
        for root, code in enumerate(kinds):
            if code == _DFF or state[root]:
                continue
            state[root] = 1
            stack = [(root, iter(ins[root]))]
            while stack:
                index, pending = stack[-1]
                for net in pending:
                    upstream = driver(net)
                    if upstream is None or kinds[upstream] == _DFF \
                            or state[upstream] == 2:
                        continue
                    if state[upstream]:
                        raise SynthesisError(
                            f"combinational cycle through net {net}")
                    state[upstream] = 1
                    stack.append((upstream, iter(ins[upstream])))
                    break
                else:
                    stack.pop()
                    state[index] = 2
                    order.append(index)
        return order

    def schedule(self) -> LevelSchedule:
        """The :class:`LevelSchedule` of the combinational gates."""
        if self._schedule is None:
            self._schedule = LevelSchedule(self, self.levelize_indices())
        return self._schedule

    def logic_depth(self) -> int:
        """Longest combinational path, in gate levels."""
        return len(self.schedule().level_end)

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

    def __setstate__(self, state: Dict[str, object]) -> None:
        if "gates" not in state:
            self.__dict__.update(state)
            return
        # Pickled before gates were stored by column (an older
        # artifact-cache entry): rebuild the columns in gate order.
        Netlist.__init__(self, state["name"])
        for gate in state["gates"]:
            self.add(gate.kind, gate.inputs, gate.output, gate.init)
        for key in ("_net_count", "net_names", "inputs", "outputs",
                    "_const0", "_const1"):
            setattr(self, key, state[key])

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, {self.gate_count()} cells, "
                f"{self.gate_kinds.count(_DFF)} DFFs, "
                f"area={self.area():.0f})")
