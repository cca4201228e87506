"""A synthesized netlist stores its gates in a few containers.

``Netlist`` keeps its gates by column: a bytearray of kind codes and
lists of input tuples, output nets and initial values.  Ints and tuples
of ints are nothing the garbage collector walks once a collection has
looked at them, so a synthesized design leaves it a few tracked objects
per netlist, where one ``Gate`` object per cell would leave it one per
gate (DESIGN.md §20).  The ``Gate`` records a netlist hands out are
read-only, so no write can bypass the columns.
"""

import gc
import pickle

import pytest

from repro.synth import GateKind, Netlist, synthesize_system


def _tracked_reachable(roots):
    """How many objects the collector tracks among those reachable from
    *roots* (classes left out)."""
    seen = set()
    stack = list(roots)
    tracked = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked += 1
            stack.extend(gc.get_referents(obj))
    return tracked


def test_dect_netlists_hold_under_one_tracked_object_per_100_gates():
    from repro.designs.dect import build_transceiver

    synthesis = synthesize_system(build_transceiver().system)
    netlists = [component.netlist for component in synthesis.components]
    gates = sum(netlist.gate_count() for netlist in netlists)
    assert (len(netlists), gates) == (24, 89500)
    # One collection untracks the tuples and dicts that hold no tracked
    # object, as the first collection after synthesis would.
    gc.collect()
    assert _tracked_reachable(netlists) < gates / 100


def test_gate_records_are_read_only():
    nl = Netlist("records")
    a = nl.add_input("a", 2)
    y = nl.add(GateKind.AND2, a)
    gate = nl.driver(y)
    with pytest.raises(AttributeError):
        gate.inputs = (a[0], a[0])
    with pytest.raises(AttributeError):
        del gate.kind
    assert nl.gate_inputs == [tuple(a)]
    clone = pickle.loads(pickle.dumps(gate))
    assert (clone.kind, clone.inputs, clone.output, clone.init) == \
        (GateKind.AND2, tuple(a), y, 0)


def test_gate_records_follow_add():
    nl = Netlist("records")
    a = nl.add_input("a", 2)
    y = nl.add(GateKind.AND2, a)
    first = nl.gates
    assert nl.driver(y) is first[0] and nl.levelize() == first
    z = nl.add(GateKind.INV, [y])
    assert [g.output for g in nl.gates] == [y, z]
    assert nl.driver(z).inputs == (y,)
