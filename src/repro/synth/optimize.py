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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from .gates import GateKind
from .netlist import Gate, Net, Netlist

# Reading an enum member through its class costs a metaclass lookup; the
# per-gate loops below compare against module constants instead.
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
_DFF = GateKind.DFF


def _resolve(alias: Dict[Net, Union[Net, str]], net: Union[Net, str]
             ) -> Union[Net, str]:
    """Follow *net*'s aliases to a net or a constant "0"/"1"."""
    # Alias targets are final when written; only the DFF rule later
    # aliases a target (a register output) onward, to a constant, so
    # chains are short and acyclic.
    while net in alias:
        net = alias[net]
    return net


def _simplify(kind: GateKind, inputs: List[Union[Net, str]]
              ) -> Optional[Union[Net, str, Tuple[GateKind, List]]]:
    """Local rewrite of one gate given resolved inputs.

    Returns a net/const the output aliases to, a replacement (kind,
    inputs) pair, or None to keep the gate as-is.
    """
    if kind is _BUF:
        return inputs[0]
    if kind is _INV:
        a = inputs[0]
        if a == "0":
            return "1"
        if a == "1":
            return "0"
        return None
    if kind in (_AND2, _NAND2):
        a, b = inputs
        inverting = kind is _NAND2
        if a == "0" or b == "0":
            return "1" if inverting else "0"
        if a == "1" and b == "1":
            return "0" if inverting else "1"
        if a == "1":
            return (_INV, [b]) if inverting else b
        if b == "1":
            return (_INV, [a]) if inverting else a
        if a == b:
            return (_INV, [a]) if inverting else a
        return None
    if kind in (_OR2, _NOR2):
        a, b = inputs
        inverting = kind is _NOR2
        if a == "1" or b == "1":
            return "0" if inverting else "1"
        if a == "0" and b == "0":
            return "1" if inverting else "0"
        if a == "0":
            return (_INV, [b]) if inverting else b
        if b == "0":
            return (_INV, [a]) if inverting else a
        if a == b:
            return (_INV, [a]) if inverting else a
        return None
    if kind in (_XOR2, _XNOR2):
        a, b = inputs
        inverting = kind is _XNOR2
        if isinstance(a, str) and isinstance(b, str):
            bit = (a == "1") ^ (b == "1")
            bit ^= inverting
            return "1" if bit else "0"
        if a == b:
            return "1" if inverting else "0"
        for x, y in ((a, b), (b, a)):
            if x == "0":
                return (_INV, [y]) if inverting else y
            if x == "1":
                return y if inverting else (_INV, [y])
        return None
    if kind is _MUX2:
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
            return (_INV, [sel])
        return None
    return None


#: Ternary values: 0, 1 and the unknown X (pessimistic).
_X = 2
_NOT = (1, 0, _X)
#: Two-input truth tables over {0, 1, X}, indexed by ``3 * a + b``.
_AND_TABLE = (0, 0, 0, 0, 1, _X, 0, _X, _X)
_OR_TABLE = (0, 1, _X, 1, 1, 1, _X, 1, _X)
_XOR_TABLE = (0, 1, _X, 1, 0, _X, _X, _X, _X)
_TABLES = {
    _AND2: _AND_TABLE,
    _NAND2: tuple(_NOT[v] for v in _AND_TABLE),
    _OR2: _OR_TABLE,
    _NOR2: tuple(_NOT[v] for v in _OR_TABLE),
    _XOR2: _XOR_TABLE,
    _XNOR2: tuple(_NOT[v] for v in _XOR_TABLE),
}


def _ternary(gate: Gate, value: List[int]) -> int:
    """Evaluate one gate over {0, 1, X}; *value* is indexed by net."""
    kind = gate.kind
    table = _TABLES.get(kind)
    if table is not None:
        a, b = gate.inputs
        return table[3 * value[a] + value[b]]
    if kind is _INV:
        return _NOT[value[gate.inputs[0]]]
    if kind is _MUX2:
        sel, t, f = gate.inputs
        s = value[sel]
        if s == _X:
            t = value[t]
            return t if t == value[f] else _X
        return value[t] if s else value[f]
    if kind is _BUF:
        return value[gate.inputs[0]]
    if kind is _CONST0:
        return 0
    if kind is _CONST1:
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
    order = netlist.levelize()
    dffs = netlist.dffs()
    value = [_X] * netlist._net_count
    for dff in dffs:
        value[dff.output] = 1 if dff.init else 0
    # The first sweep.  A gate with a known value can only turn X through
    # one of its known inputs, so only those edges are watched.
    readers: Dict[Net, List[Gate]] = {}
    for gate in order:
        known = value[gate.output] = _ternary(gate, value)
        if known != _X:
            for net in gate.inputs:
                if value[net] != _X:
                    readers.setdefault(net, []).append(gate)
    # Demote the registers the sweep contradicts; watch the others' D.
    turned: List[Net] = []
    for dff in dffs:
        d, q = dff.inputs[0], dff.output
        if value[d] == value[q]:
            readers.setdefault(d, []).append(dff)
        else:
            value[q] = _X
            turned.append(q)
    # Spread X along the fanout of every net that turned X.
    while turned:
        for gate in readers.pop(turned.pop(), ()):
            out = gate.output
            if value[out] == _X:
                continue
            if gate.kind is _DFF or _ternary(gate, value) == _X:
                value[out] = _X
                turned.append(out)
    consts: Dict[Net, str] = {}
    for cell in (*dffs, *order):
        known = value[cell.output]
        if known != _X:
            consts[cell.output] = "1" if known else "0"
    return consts


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
    current = netlist
    for _pass in range(max_passes):
        # The ternary fixpoint seeds only the first pass: its constants
        # become CONST cells there, so later passes rediscover nothing.
        # It and the pass share the input's memoized levelization.
        seq_consts = sequential_constants(current) if _pass == 0 else None
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
    alias: Dict[Net, Union[Net, str]] = {}
    #: Each kept gate's output -> the (kind, resolved inputs) it is
    #: rebuilt from, in topological order.
    kept: Dict[Net, Tuple[GateKind, List[Union[Net, str]]]] = {}
    hash_table: Dict[tuple, Net] = {}
    order = old.levelize()
    dffs = old.dffs()

    if seq_consts:
        # Sequential-constant seeding: alias the proven-constant DFF
        # outputs (and the cones they force) before local rewriting, so
        # mutually-dependent constant registers dissolve in one pass.
        for net, value in seq_consts.items():
            driver = old.driver(net)
            if driver is None or driver.kind not in (_CONST0, _CONST1):
                alias[net] = value

    # During the sweep every alias target is final: one lookup resolves.
    lookup = alias.get
    for gate in order:
        kind = gate.kind
        if kind is _CONST0:
            alias[gate.output] = "0"
            continue
        if kind is _CONST1:
            alias[gate.output] = "1"
            continue
        inputs = [lookup(net, net) for net in gate.inputs]
        result = _simplify(kind, inputs)
        if result is not None:
            if not isinstance(result, tuple):
                alias[gate.output] = result
                continue
            kind, inputs = result
        if kind is _INV:
            # Double-inverter collapse, for an old inverter and for a gate
            # just rewritten to one alike.  The upstream gate is checked
            # in its rewritten kind: NAND(x, 1), XOR(x, 1), MUX(s, 0, 1)
            # and the like are inverters now.
            upstream = kept.get(inputs[0])
            if upstream is not None and upstream[0] is _INV:
                alias[gate.output] = upstream[1][0]
                continue
        first = hash_table.setdefault((kind, *inputs), gate.output)
        if first != gate.output:
            alias[gate.output] = first
        else:
            kept[gate.output] = (kind, inputs)

    # Local sequential constant propagation: D constant and equal to init.
    again = False
    for dff in dffs:
        d = _resolve(alias, dff.inputs[0])
        if (d == "0" and dff.init == 0) or (d == "1" and dff.init == 1):
            if dff.output not in alias:
                again = True  # its readers saw a register, not a constant
            alias[dff.output] = d

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
        rebuilt = kept.get(net)
        if rebuilt is not None:
            frontier.extend(rebuilt[1])
        else:
            driver = old.driver(net)
            if driver is not None:
                frontier.extend(driver.inputs)

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
    for dff in dffs:
        if dff.output in alias or dff.output not in live:
            continue  # a constant, or dead
        new.add(_DFF, [map_net(dff.inputs[0])],
                output=map_net(dff.output), init=dff.init)
    for out, (kind, inputs) in kept.items():
        if out in live:
            new.add(kind, [map_net(n) for n in inputs], output=map_net(out))
    for name, bus in old.outputs.items():
        new.set_output(name, [map_net(n) for n in bus])
    return new, again
