"""A synthesized netlist stores its gates in a few containers.

``Netlist`` keeps its gates by column: a bytearray of kind codes and
lists of input tuples, output nets and initial values.  Ints and tuples
of ints are nothing the garbage collector walks once a collection has
looked at them, so a synthesized design leaves it a few tracked objects
per netlist, where one object per cell would leave it one per gate
(DESIGN.md §20).
"""

import gc

from repro.synth import synthesize_system


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

