"""Gate-level netlist post-optimization.

Paper, section 6: *"The combined netlists of datapath and controller are
also post-optimized ... to perform gate-level netlist optimizations."*

:func:`optimize_netlist` levelizes its input once and runs two steps in
that order:

* **ternary (0/1/X) sequential-constant analysis**
  (:func:`sequential_constants`): assume every DFF holds its initial
  value, sweep the logic once with primary inputs at X, then spread X
  only along the fanout of the registers whose next state disagrees with
  that assumption, demoting every register whose D turns X.  The
  surviving constants — which the purely local rule below cannot find
  when registers depend on each other — seed the alias map of the
  rewrite;
* **one rewrite pass** (:func:`_one_pass`) in topological order:
  constant propagation, local simplification (AND/OR/XOR with 0/1, MUX
  with a constant select or equal branches, buffers), double-inverter
  collapse, structural hashing (identical gates merged) and a dead-gate
  sweep from the primary outputs and live DFFs; then the local
  sequential rule: a DFF whose D is constant and equal to its initial
  value is a constant.

Each rewrite sees its inputs in their final form, so the pass reaches
the fixpoint in one sweep.  Only a register that the local rule turns
into a constant asks for another pass, because its readers were
rewritten before the rule ran (DESIGN.md §16).

:func:`optimize_netlist` runs these passes in C (``netopt.c``, DESIGN.md
§25), which builds a netlist that pickles to the same bytes as the one
this module builds.  This module's optimizer is the reference, and it
runs where the C one cannot: without a compiler, and on a netlist with a
combinational cycle, where it raises.
"""

from __future__ import annotations

import ctypes
from array import array
from contextlib import contextmanager
from itertools import chain, repeat
from typing import Dict, List, Optional, Set, Tuple, Union

from . import native
from .gates import KINDS, GateKind
from .netlist import Net, Netlist

# The per-gate loops below read a netlist's kind codes and compare them
# with these integers: no enum hashing and no class lookups.
_CONST0 = GateKind.CONST0.code
_CONST1 = GateKind.CONST1.code
_BUF = GateKind.BUF.code
_INV = GateKind.INV.code
_AND2 = GateKind.AND2.code
_OR2 = GateKind.OR2.code
_NAND2 = GateKind.NAND2.code
_NOR2 = GateKind.NOR2.code
_XOR2 = GateKind.XOR2.code
_XNOR2 = GateKind.XNOR2.code
_MUX2 = GateKind.MUX2.code
_DFF = GateKind.DFF.code

#: A gate as the rewrite keeps it: ``(kind code, *resolved inputs)``,
#: each input a net or a constant "0"/"1".  It is also the structural
#: hash key.
Cell = Tuple[Union[int, str], ...]


def _resolve(alias: Dict[Net, Union[Net, str]], net: Union[Net, str]
             ) -> Union[Net, str]:
    """Follow *net*'s aliases to a net or a constant "0"/"1"."""
    # Alias targets are final when written; only the DFF rule later
    # aliases a target (a register output) onward, to a constant, so
    # chains are short and acyclic.
    while net in alias:
        net = alias[net]
    return net


def _simplify(kind: int, inputs: Tuple[Union[Net, str], ...]
              ) -> Optional[Union[Net, str, Cell]]:
    """Local rewrite of one gate given resolved inputs.

    Returns a net/const the output aliases to, a replacement
    :data:`Cell`, or None to keep the gate as-is.
    """
    if kind == _BUF:
        return inputs[0]
    if kind == _INV:
        a = inputs[0]
        if a == "0":
            return "1"
        if a == "1":
            return "0"
        return None
    if kind in (_AND2, _NAND2):
        a, b = inputs
        inverting = kind == _NAND2
        if a == "0" or b == "0":
            return "1" if inverting else "0"
        if a == "1" and b == "1":
            return "0" if inverting else "1"
        if a == "1":
            return (_INV, b) if inverting else b
        if b == "1":
            return (_INV, a) if inverting else a
        if a == b:
            return (_INV, a) if inverting else a
        return None
    if kind in (_OR2, _NOR2):
        a, b = inputs
        inverting = kind == _NOR2
        if a == "1" or b == "1":
            return "0" if inverting else "1"
        if a == "0" and b == "0":
            return "1" if inverting else "0"
        if a == "0":
            return (_INV, b) if inverting else b
        if b == "0":
            return (_INV, a) if inverting else a
        if a == b:
            return (_INV, a) if inverting else a
        return None
    if kind in (_XOR2, _XNOR2):
        a, b = inputs
        inverting = kind == _XNOR2
        if isinstance(a, str) and isinstance(b, str):
            bit = (a == "1") ^ (b == "1")
            bit ^= inverting
            return "1" if bit else "0"
        if a == b:
            return "1" if inverting else "0"
        for x, y in ((a, b), (b, a)):
            if x == "0":
                return (_INV, y) if inverting else y
            if x == "1":
                return y if inverting else (_INV, y)
        return None
    if kind == _MUX2:
        sel, t, f = inputs
        if sel == "1":
            return t
        if sel == "0":
            return f
        if t == f:
            return t
        if t == "1" and f == "0":
            return sel
        if t == "0" and f == "1":
            return (_INV, sel)
        return None
    return None


#: Ternary values: 0, 1 and the unknown X (pessimistic).
_X = 2
_NOT = (1, 0, _X)
#: Two-input truth tables over {0, 1, X}, indexed by ``3 * a + b``.
_AND_TABLE = (0, 0, 0, 0, 1, _X, 0, _X, _X)
_OR_TABLE = (0, 1, _X, 1, 1, 1, _X, 1, _X)
_XOR_TABLE = (0, 1, _X, 1, 0, _X, _X, _X, _X)
_TABLE_OF = {
    _AND2: _AND_TABLE,
    _NAND2: tuple(_NOT[v] for v in _AND_TABLE),
    _OR2: _OR_TABLE,
    _NOR2: tuple(_NOT[v] for v in _OR_TABLE),
    _XOR2: _XOR_TABLE,
    _XNOR2: tuple(_NOT[v] for v in _XOR_TABLE),
}
#: The truth table of each two-input kind code (None for the others).
_TABLES = tuple(_TABLE_OF.get(code) for code in range(len(KINDS)))


def _ternary(kind: int, inputs: Tuple[Net, ...], value: List[int]) -> int:
    """Evaluate one gate over {0, 1, X}; *value* is indexed by net."""
    table = _TABLES[kind]
    if table is not None:
        a, b = inputs
        return table[3 * value[a] + value[b]]
    if kind == _INV:
        return _NOT[value[inputs[0]]]
    if kind == _MUX2:
        sel, t, f = inputs
        s = value[sel]
        if s == _X:
            t = value[t]
            return t if t == value[f] else _X
        return value[t] if s else value[f]
    if kind == _BUF:
        return value[inputs[0]]
    if kind == _CONST0:
        return 0
    if kind == _CONST1:
        return 1
    return _X


def sequential_constants(netlist: Netlist) -> Dict[Net, str]:
    """Nets provably constant on every cycle, by ternary fixpoint.

    Starts from the optimistic assumption that every DFF forever holds
    its initial value and simulates one symbolic cycle with primary
    inputs at X.  A DFF whose next state disagrees with its assumption is
    demoted to X, and X spreads from it along its fanout only, demoting
    in turn every DFF whose D becomes X.  Ternary evaluation is monotone
    — values only move known -> X, so each net changes at most once —
    and the result is the greatest fixpoint, the one a full re-sweep per
    demotion round reaches: a genuine invariant of the machine (the
    classic sequential-constant analysis).  Returns ``net -> "0"/"1"``
    for every net the final symbolic cycle pins down — DFF outputs and
    any combinational cone forced by them.
    """
    kinds = netlist.gate_kinds
    ins = netlist.gate_inputs
    outs = netlist.gate_outputs
    inits = netlist.gate_inits
    order = netlist.levelize_indices()
    dffs = netlist.indices(GateKind.DFF)
    value = [_X] * netlist._net_count
    for index in dffs:
        value[outs[index]] = 1 if inits[index] else 0
    # The first sweep.  A gate with a known value can only turn X through
    # one of its known inputs, so only those edges are watched.  The
    # gates watching a net form a chain through flat lists, not a list
    # per net: ``last[net]`` is the net's latest edge (or -1),
    # ``watcher[e]`` edge e's gate and ``earlier[e]`` the net's edge
    # before e.
    last = [-1] * netlist._net_count
    watcher: List[int] = []
    earlier: List[int] = []
    for index in order:
        inputs = ins[index]
        known = value[outs[index]] = _ternary(kinds[index], inputs, value)
        if known != _X:
            for net in inputs:
                if value[net] != _X:
                    earlier.append(last[net])
                    last[net] = len(watcher)
                    watcher.append(index)
    # Demote the registers the sweep contradicts; watch the others' D.
    turned: List[Net] = []
    for index in dffs:
        d, q = ins[index][0], outs[index]
        if value[d] == value[q]:
            earlier.append(last[d])
            last[d] = len(watcher)
            watcher.append(index)
        else:
            value[q] = _X
            turned.append(q)
    # Spread X along the fanout of every net that turned X.  The order
    # of the visits does not matter: each net turns X at most once.
    while turned:
        edge = last[turned.pop()]
        while edge >= 0:
            index = watcher[edge]
            edge = earlier[edge]
            out = outs[index]
            if value[out] == _X:
                continue
            kind = kinds[index]
            if kind == _DFF or _ternary(kind, ins[index], value) == _X:
                value[out] = _X
                turned.append(out)
    consts: Dict[Net, str] = {}
    for index in (*dffs, *order):
        out = outs[index]
        known = value[out]
        if known != _X:
            consts[out] = "1" if known else "0"
    return consts


#: False inside :func:`_python_optimizer`.
_NATIVE = True


@contextmanager
def _python_optimizer():
    """Netlists optimized inside this block run the Python optimizer.

    A private seam, as :func:`repro.synth.gatesim._python_kernel` is for
    the gate kernels: the tests hold the two optimizers to the same
    bytes, and patch this module's passes.
    """
    global _NATIVE
    saved, _NATIVE = _NATIVE, False
    try:
        yield
    finally:
        _NATIVE = saved


def optimize_netlist(netlist: Netlist, max_passes: int = 8,
                     validate: str = "off", seed: int = 0) -> Netlist:
    """Return an optimized copy of *netlist* (same PI/PO interface).

    One rewrite pass normally reaches the fixpoint; *max_passes* bounds
    the extra passes the local DFF rule can ask for.  With ``validate``
    set to ``"sampled"`` or ``"exhaustive"``, the result is checked
    against the input netlist with the miter construction
    (:func:`repro.synth.equiv.check_netlists`) and an inequivalent
    rewrite raises :class:`~repro.synth.equiv.NetlistEquivalenceError`
    carrying the divergent stimulus.
    """
    current = None
    if _NATIVE and max_passes > 0:
        lib = native.optimizer()
        if lib is not None:
            current = _native_optimize(lib, netlist, max_passes)
    if current is None:
        current = netlist
        for _pass in range(max_passes):
            # The ternary fixpoint seeds only the first pass: its
            # constants become CONST cells there, so later passes
            # rediscover nothing.  It and the pass share the input's
            # memoized levelization.
            seq_consts = sequential_constants(current) if _pass == 0 \
                else None
            current, again = _one_pass(current, seq_consts)
            if not again:
                break
    if validate != "off" and current is not netlist:
        from .equiv import NetlistEquivalenceError, check_netlists

        report = check_netlists(netlist, current, mode=validate, seed=seed)
        if not report.equivalent:
            raise NetlistEquivalenceError("netlist-optimize",
                                          report.counterexample)
    return current


def _one_pass(old: Netlist,
              seq_consts: Optional[Dict[Net, str]] = None
              ) -> Tuple[Netlist, bool]:
    """Rewrite *old* once; returns the result and whether to run again.

    Another pass is asked for only when the local DFF rule turned a
    register into a constant: its readers were rewritten before the rule
    ran.  Every other rewrite is final, because gates are visited in
    topological order and each one reads its inputs' rewritten form.
    """
    kinds = old.gate_kinds
    ins = old.gate_inputs
    outs = old.gate_outputs
    inits = old.gate_inits
    driver = old.driver_index
    alias: Dict[Net, Union[Net, str]] = {}
    #: Each kept gate's output -> the cell it is rebuilt from, in
    #: topological order.
    kept: Dict[Net, Cell] = {}
    hash_table: Dict[Cell, Net] = {}
    order = old.levelize_indices()
    dffs = old.indices(GateKind.DFF)

    if seq_consts:
        # Sequential-constant seeding: alias the proven-constant DFF
        # outputs (and the cones they force) before local rewriting, so
        # mutually-dependent constant registers dissolve in one pass.
        for net, value in seq_consts.items():
            index = driver(net)
            if index is None or kinds[index] not in (_CONST0, _CONST1):
                alias[net] = value

    # During the sweep every alias target is final: one lookup resolves.
    lookup = alias.get
    for index in order:
        kind = kinds[index]
        out = outs[index]
        if kind == _CONST0:
            alias[out] = "0"
            continue
        if kind == _CONST1:
            alias[out] = "1"
            continue
        inputs = ins[index]
        inputs = tuple(map(lookup, inputs, inputs))
        result = _simplify(kind, inputs)
        if result is None:
            cell = (kind, *inputs)
        elif type(result) is tuple:
            cell = result
            kind = cell[0]
        else:
            alias[out] = result
            continue
        if kind == _INV:
            # Double-inverter collapse, for an old inverter and for a gate
            # just rewritten to one alike.  The upstream gate is checked
            # in its rewritten kind: NAND(x, 1), XOR(x, 1), MUX(s, 0, 1)
            # and the like are inverters now.
            upstream = kept.get(cell[1])
            if upstream is not None and upstream[0] == _INV:
                alias[out] = upstream[1]
                continue
        first = hash_table.setdefault(cell, out)
        if first != out:
            alias[out] = first
        else:
            kept[out] = cell

    # Local sequential constant propagation: D constant and equal to init.
    again = False
    for index in dffs:
        d = _resolve(alias, ins[index][0])
        init = inits[index]
        if (d == "0" and init == 0) or (d == "1" and init == 1):
            q = outs[index]
            if q not in alias:
                again = True  # its readers saw a register, not a constant
            alias[q] = d

    # Liveness: walk back from primary outputs and live DFFs (a DFF is
    # traversed like any other cell, so its D cone is live too).
    live: Set[Net] = set()
    frontier: List[Union[Net, str]] = [
        net for bus in old.outputs.values() for net in bus]
    while frontier:
        net = _resolve(alias, frontier.pop())
        if not isinstance(net, int) or net in live:
            continue
        live.add(net)
        cell = kept.get(net)
        if cell is not None:
            frontier.extend(cell[1:])
        else:
            index = driver(net)
            if index is not None:
                frontier.extend(ins[index])

    # Rebuild.
    new = Netlist(old.name)
    net_map: Dict[Net, Net] = {}
    names = old.net_names

    def map_net(item: Union[Net, str]) -> Net:
        item = _resolve(alias, item)
        if item == "0":
            return new.const(0)
        if item == "1":
            return new.const(1)
        got = net_map.get(item)
        if got is None:
            got = net_map[item] = new.new_net(names.get(item))
        return got

    for name, bus in old.inputs.items():
        new.inputs[name] = [map_net(n) for n in bus]
    dff = KINDS[_DFF]
    for index in dffs:
        q = outs[index]
        if q in alias or q not in live:
            continue  # a constant, or dead
        new.add(dff, (map_net(ins[index][0]),), output=map_net(q),
                init=inits[index])
    for out, cell in kept.items():
        if out in live:
            new.add(KINDS[cell[0]], tuple(map(map_net, cell[1:])),
                    output=map_net(out))
    for name, bus in old.outputs.items():
        new.set_output(name, [map_net(n) for n in bus])
    return new, again


def _native_optimize(lib: ctypes.CDLL, netlist: Netlist,
                     max_passes: int) -> Optional[Netlist]:
    """:func:`optimize_netlist`'s passes in C, or None where the Python
    optimizer must run: a combinational cycle, or columns the C function
    cannot read (of unequal lengths, or past ``int32``)."""
    inputs, outputs, inits, pins = (array("i") for _ in range(4))
    try:
        inputs.fromlist(list(chain.from_iterable(netlist.gate_inputs)))
        outputs.fromlist(netlist.gate_outputs)
        inits.fromlist(netlist.gate_inits)
        pins.fromlist([net for bus in (*netlist.inputs.values(),
                                       *netlist.outputs.values())
                       for net in bus])
    except (TypeError, OverflowError):
        return None
    gates, nets = len(outputs), netlist._net_count
    if not len(netlist.gate_kinds) == len(netlist.gate_inputs) \
            == len(inits) == gates:
        return None
    in_pins = sum(map(len, netlist.inputs.values()))
    new_kinds = array("B", bytes(gates + 2))
    new_inputs = array("i", bytes(4 * len(inputs)))
    new_outputs = array("i", bytes(4 * (gates + 2)))
    new_inits = array("i", bytes(4 * (gates + 2)))
    new_pins = array("i", bytes(4 * len(pins)))
    new_of = array("i", bytes(4 * nets))
    kinds = array("B", netlist.gate_kinds)
    job = native.Job(
        gates, nets, len(inputs), in_pins, len(pins) - in_pins, max_passes,
        *(buffer.buffer_info()[0] for buffer in (
            kinds, inputs, outputs, inits, pins, new_kinds, new_inputs,
            new_outputs, new_inits, new_pins, new_of)))
    if lib.no_optimize(ctypes.byref(job)):
        return None

    new = Netlist(netlist.name)
    count = job.new_gates
    new._net_count = job.new_nets
    new.gate_kinds = bytearray(new_kinds[:count])
    # Each gate's input tuple, drawn in gate order from its arity's group.
    ones, twos = job.ones, job.twos
    single = zip(new_inputs[:ones])
    pair = iter(new_inputs[ones:ones + 2 * twos])
    pair = zip(pair, pair)
    triple = iter(new_inputs[ones + 2 * twos:])
    triple = zip(triple, triple, triple)
    none = repeat(())
    by_kind = (none, none, single, single, pair, pair, pair, pair, pair,
               pair, triple, single)
    new.gate_inputs = list(map(next, map(by_kind.__getitem__,
                                         new.gate_kinds)))
    new.gate_outputs = new_outputs[:count].tolist()
    new.gate_inits = new_inits[:count].tolist()
    # Each name stays with its net; a netlist's names go in net order.
    new.net_names = dict(sorted(
        (new_of[net], name) for net, name in netlist.net_names.items()
        if name and new_of[net] >= 0))
    pin_list = new_pins.tolist()
    at = 0
    for ports, old_ports in ((new.inputs, netlist.inputs),
                             (new.outputs, netlist.outputs)):
        for name, bus in old_ports.items():
            ports[name] = pin_list[at:at + len(bus)]
            at += len(bus)
    new._const0 = job.const0 if job.const0 >= 0 else None
    new._const1 = job.const1 if job.const1 >= 0 else None
    new._driver = dict(zip(new.gate_outputs, range(count)))
    return new
