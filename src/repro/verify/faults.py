"""Fault models and structural fault collapsing on gate-level netlists.

Two saboteur models operate on :class:`~repro.synth.netlist.Netlist`
nets, matching the hooks in :class:`~repro.synth.gatesim.GateSimulator`:

* :class:`StuckAtFault` — a net permanently held at 0 or 1 (the classic
  manufacturing-test model);
* :class:`TransientFault` — a net's settled value inverted during exactly
  one clock cycle (a single-event upset / soft error).

Structural fault collapsing shrinks the stuck-at list using the standard
gate-local equivalences (an AND input stuck at 0 is indistinguishable
from its output stuck at 0, an inverter maps SA0 to SA1, ...), applied
only where the input net is fanout-free — the condition under which a
net fault equals a line fault.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

from ..synth.gates import KINDS, GateKind
from ..synth.netlist import Net, Netlist


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """Net *net* permanently stuck at *value* (0 or 1)."""

    net: Net
    value: int

    def describe(self, netlist: Optional[Netlist] = None) -> str:
        label = netlist.net_label(self.net) if netlist else f"n{self.net}"
        return f"{label} stuck-at-{self.value}"


@dataclass(frozen=True, order=True)
class TransientFault:
    """Net *net*'s value inverted during clock cycle *cycle* only."""

    net: Net
    cycle: int

    def describe(self, netlist: Optional[Netlist] = None) -> str:
        label = netlist.net_label(self.net) if netlist else f"n{self.net}"
        return f"{label} bit-flip @ cycle {self.cycle}"


def enumerate_faults(netlist: Netlist) -> List[StuckAtFault]:
    """The uncollapsed stuck-at fault universe of *netlist*.

    One SA0 and one SA1 fault per observable net (a net read by some gate
    or exported as a primary output), minus the trivially-redundant
    faults on constant nets (const-0 stuck at 0 changes nothing).
    """
    observable = set(chain.from_iterable(netlist.gate_inputs))
    for nets in netlist.outputs.values():
        observable.update(nets)
    # The one stuck value that changes nothing on each constant net.
    redundant: Dict[Net, int] = {}
    for kind, value in ((GateKind.CONST0, 0), (GateKind.CONST1, 1)):
        for index in netlist.indices(kind):
            redundant[netlist.gate_outputs[index]] = value
    faults: List[StuckAtFault] = []
    for net in sorted(observable):
        skip = redundant.get(net)
        for value in (0, 1):
            if value != skip:
                faults.append(StuckAtFault(net, value))
    return faults


#: Per-gate-kind equivalence rules: (input SA value -> output SA value).
#: An input fault collapses into the output fault when the input net's
#: entire fanout is this one gate (net fault == line fault).
_EQUIVALENCE: Dict[GateKind, Dict[int, int]] = {
    GateKind.BUF: {0: 0, 1: 1},
    GateKind.INV: {0: 1, 1: 0},
    GateKind.AND2: {0: 0},
    GateKind.NAND2: {0: 1},
    GateKind.OR2: {1: 1},
    GateKind.NOR2: {1: 0},
}
#: :data:`_EQUIVALENCE` by kind code (None for kinds without rules).
_RULES = tuple(_EQUIVALENCE.get(kind) for kind in KINDS)


@dataclass
class CollapseResult:
    """Outcome of structural fault collapsing.

    ``classes`` maps each representative fault to all members of its
    equivalence class (the representative included).  Detecting the
    representative detects every member.
    """

    netlist: Netlist
    total: int
    classes: Dict[StuckAtFault, List[StuckAtFault]]

    @property
    def representatives(self) -> List[StuckAtFault]:
        return list(self.classes)

    @property
    def collapsed(self) -> int:
        return len(self.classes)

    @property
    def ratio(self) -> float:
        """Collapsed / total — below 1.0 when collapsing helped."""
        return self.collapsed / self.total if self.total else 1.0

    def __repr__(self) -> str:
        return (f"CollapseResult({self.netlist.name!r}, "
                f"{self.total} -> {self.collapsed} faults)")


def collapse_faults(netlist: Netlist,
                    faults: Optional[Sequence[StuckAtFault]] = None
                    ) -> CollapseResult:
    """Structurally collapse *faults* (default: the full universe).

    Union-find over ``(net, value)`` pairs using the gate-local
    equivalence rules; each class's representative is the fault nearest
    the outputs (the union is always directed input -> output, so the
    root of every chain sits furthest downstream).
    """
    if faults is None:
        faults = enumerate_faults(netlist)
    universe = set(faults)
    #: How many gate inputs read each net.
    readers = Counter(chain.from_iterable(netlist.gate_inputs))
    primary_outputs = set()
    for nets in netlist.outputs.values():
        primary_outputs.update(nets)

    parent: Dict[StuckAtFault, StuckAtFault] = {f: f for f in universe}

    def find(fault: StuckAtFault) -> StuckAtFault:
        root = fault
        while parent[root] is not root:
            root = parent[root]
        while parent[fault] is not root:
            parent[fault], fault = root, parent[fault]
        return root

    for code, inputs, output in zip(netlist.gate_kinds, netlist.gate_inputs,
                                    netlist.gate_outputs):
        rules = _RULES[code]
        if rules is None:
            continue
        for net in inputs:
            # The equivalence needs the input fault's entire effect to
            # flow through this gate: single-gate fanout, not observed
            # directly as a primary output.
            if net in primary_outputs or readers[net] != 1:
                continue
            for in_value, out_value in rules.items():
                source = StuckAtFault(net, in_value)
                target = StuckAtFault(output, out_value)
                if source in universe and target in universe:
                    parent[find(source)] = find(target)

    classes: Dict[StuckAtFault, List[StuckAtFault]] = {}
    # The dataclass order, without a Python-level comparison per step.
    for fault in sorted(universe, key=attrgetter("net", "value")):
        classes.setdefault(find(fault), []).append(fault)
    return CollapseResult(netlist=netlist, total=len(universe),
                          classes=classes)


def arm(simulator, fault) -> None:
    """Arm a permanent fault on a gate simulator (no-op for transients;
    the campaign runner arms those on the right cycle)."""
    if isinstance(fault, StuckAtFault):
        simulator.force(fault.net, fault.value)


def disarm(simulator, faults: Iterable = ()) -> None:
    """Remove every injected fault from *simulator*."""
    simulator.release()
