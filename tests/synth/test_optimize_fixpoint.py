"""The one-pass netlist optimizer reaches the fixpoint the rebuild loop did.

* The incremental ternary analysis returns what the sweep-to-fixpoint
  analysis it replaced returns (kept here as the oracle) on every HCOR
  and DECT component and on random sequential netlists.
* ``optimize_netlist``'s result is a fixpoint of ``_one_pass``: another
  pass asks for no further one and rebuilds the same bytes.
* Every rewrite that produces an inverter collapses with an inverter
  beside it in one pass; only the local DFF rule asks for another pass.
* The native optimizer builds the reference's bytes: on every HCOR and
  DECT component, on random sequential netlists and on each small case
  below.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SynthesisError
from repro.synth import GateKind, Netlist, native, optimize_netlist
from repro.synth.equiv import check_netlists
from repro.synth.gates import ARITY, KINDS
from repro.synth.optimize import (
    _one_pass,
    _python_optimizer,
    sequential_constants,
)

# -- the oracle: one full ternary sweep per demotion round ---------------------

_X = "x"


def _oracle_not(value):
    if value == _X:
        return _X
    return "0" if value == "1" else "1"


def _oracle_eval(kind, inputs):
    if kind is GateKind.CONST0:
        return "0"
    if kind is GateKind.CONST1:
        return "1"
    if kind is GateKind.BUF:
        return inputs[0]
    if kind is GateKind.INV:
        return _oracle_not(inputs[0])
    if kind in (GateKind.AND2, GateKind.NAND2):
        a, b = inputs
        if a == "0" or b == "0":
            value = "0"
        elif a == "1" and b == "1":
            value = "1"
        else:
            return _X
        return _oracle_not(value) if kind is GateKind.NAND2 else value
    if kind in (GateKind.OR2, GateKind.NOR2):
        a, b = inputs
        if a == "1" or b == "1":
            value = "1"
        elif a == "0" and b == "0":
            value = "0"
        else:
            return _X
        return _oracle_not(value) if kind is GateKind.NOR2 else value
    if kind in (GateKind.XOR2, GateKind.XNOR2):
        a, b = inputs
        if _X in (a, b):
            return _X
        value = "1" if (a == "1") ^ (b == "1") else "0"
        return _oracle_not(value) if kind is GateKind.XNOR2 else value
    if kind is GateKind.MUX2:
        sel, t, f = inputs
        if sel == "1":
            return t
        if sel == "0":
            return f
        return t if t == f else _X
    return _X


def oracle_sequential_constants(netlist):
    """Re-sweep the whole netlist until no register is demoted."""
    kinds, ins, outs = (netlist.gate_kinds, netlist.gate_inputs,
                        netlist.gate_outputs)
    order = netlist.levelize_indices()
    dffs = netlist.indices(GateKind.DFF)
    assumed = {outs[dff]: ("1" if netlist.gate_inits[dff] else "0")
               for dff in dffs}
    while True:
        value = dict(assumed)
        for gate in order:
            seen = [value.get(net, _X) for net in ins[gate]]
            value[outs[gate]] = _oracle_eval(KINDS[kinds[gate]], seen)
        demoted = False
        for dff in dffs:
            if outs[dff] not in assumed:
                continue
            if value.get(ins[dff][0], _X) != assumed[outs[dff]]:
                del assumed[outs[dff]]
                demoted = True
        if not demoted:
            return {net: v for net, v in value.items() if v != _X}


def assert_fixpoint(optimized):
    """One more pass finds nothing and rebuilds the same bytes."""
    again_netlist, again = _one_pass(optimized)
    assert not again, optimized.name
    assert pickle.dumps(again_netlist) == pickle.dumps(optimized), \
        optimized.name


def assert_reference_bytes(netlist, optimized):
    """*optimized* pickles to the bytes the Python optimizer builds from
    *netlist*."""
    with _python_optimizer():
        reference = optimize_netlist(netlist)
    assert pickle.dumps(optimized) == pickle.dumps(reference), netlist.name


@pytest.fixture
def native_optimizer():
    """The native optimizer; the test is skipped where it cannot be
    built."""
    if native.optimizer() is None:
        pytest.skip(f"no native optimizer: {native.optimizer_failure}")


# -- HCOR and DECT -----------------------------------------------------------------


@pytest.fixture(scope="module")
def raw_components():
    """Every distinct HCOR and DECT component, bit-blasted but not
    optimized.  DECT's io_q, coefadr, fir1 and fir2 repeat io_i, outadr
    and fir0 gate for gate, so they are left out."""
    from repro.designs.dect import build_transceiver
    from repro.designs.hcor import build_hcor
    from repro.synth import synthesize_process
    from repro.synth.flow import _repeat_names

    distinct = []
    for design in (build_hcor(), build_transceiver()):
        for process in design.system.timed_processes():
            raw = synthesize_process(process, optimize=False).netlist
            if all(_repeat_names(seen, raw) is None for seen in distinct):
                distinct.append(raw)
    return distinct


def test_ternary_matches_oracle_on_designs(raw_components):
    assert len(raw_components) == 1 + 20
    proven = 0
    for raw in raw_components:
        consts = sequential_constants(raw)
        assert consts == oracle_sequential_constants(raw), raw.name
        proven += len(consts)
    assert proven > 0


def test_designs_optimize_to_a_fixpoint_in_one_pass(raw_components,
                                                    monkeypatch):
    import repro.synth.optimize as optimize

    calls = []

    def counted(old, seq_consts=None):
        calls.append(old.name)
        return _one_pass(old, seq_consts)

    monkeypatch.setattr(optimize, "_one_pass", counted)
    with optimize._python_optimizer():
        optimized = [optimize_netlist(raw) for raw in raw_components]
    assert calls == [raw.name for raw in raw_components]
    assert optimized[0].gate_count() == 1657  # HCOR
    for netlist in optimized:
        assert_fixpoint(netlist)


def test_native_builds_the_reference_bytes_on_designs(raw_components,
                                                       native_optimizer):
    # hcor and pcctrl are not in topological gate order, so they take
    # the depth-first levelization.
    unordered = [raw.name for raw in raw_components
                 if raw.levelize_indices() != [
                     index for index, code in enumerate(raw.gate_kinds)
                     if code != GateKind.DFF.code]]
    assert unordered == ["hcor", "pcctrl"]
    for raw in raw_components:
        assert_reference_bytes(raw, optimize_netlist(raw))


# -- random sequential netlists ---------------------------------------------------

_COMBINATIONAL = [kind for kind in GateKind
                  if kind not in (GateKind.DFF, GateKind.CONST0,
                                  GateKind.CONST1)]


@st.composite
def sequential_netlists(draw):
    """Registers whose next states read each other, PIs and constants.

    Operands favour register outputs and constants, so many registers
    are provably constant and many are only until a neighbour is not.
    """
    nl = Netlist("random")
    pis = nl.add_input("a", draw(st.integers(1, 3)))
    qs = [nl.new_net(f"q{i}") for i in range(draw(st.integers(1, 6)))]
    state = qs + [nl.const(0), nl.const(1)]
    pool = list(pis) + state
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(_COMBINATIONAL))
        inputs = [draw(st.sampled_from(state) | st.sampled_from(pool))
                  for _ in range(ARITY[kind])]
        pool.append(nl.add(kind, inputs))
    for q in qs:
        nl.add(GateKind.DFF, [draw(st.sampled_from(pool[-8:] + qs))],
               output=q, init=draw(st.integers(0, 1)))
    outputs = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    nl.set_output("y", draw(outputs))
    return nl


@given(sequential_netlists())
@settings(max_examples=80, deadline=None)
def test_ternary_matches_oracle_on_random_netlists(netlist):
    assert sequential_constants(netlist) == \
        oracle_sequential_constants(netlist)


@given(sequential_netlists())
@settings(max_examples=40, deadline=None)
def test_random_netlists_optimize_to_an_equivalent_fixpoint(netlist):
    optimized = optimize_netlist(netlist)
    assert_fixpoint(optimized)
    assert check_netlists(netlist, optimized, mode="exhaustive").equivalent
    assert_reference_bytes(netlist, optimized)


# -- one pass collapses every inverter pair ----------------------------------------


def _inverter_rewrites():
    """Each rewrite that turns a gate into ``INV(x)``, as a builder."""
    return {
        "nand_1": lambda nl, x: nl.add(GateKind.NAND2, [x, nl.const(1)]),
        "nand_self": lambda nl, x: nl.add(GateKind.NAND2, [x, x]),
        "nor_0": lambda nl, x: nl.add(GateKind.NOR2, [nl.const(0), x]),
        "nor_self": lambda nl, x: nl.add(GateKind.NOR2, [x, x]),
        "xor_1": lambda nl, x: nl.add(GateKind.XOR2, [x, nl.const(1)]),
        "xnor_0": lambda nl, x: nl.add(GateKind.XNOR2, [nl.const(0), x]),
        "mux_0_1": lambda nl, x: nl.add(GateKind.MUX2,
                                        [x, nl.const(0), nl.const(1)]),
        "inv": lambda nl, x: nl.add(GateKind.INV, [x]),
    }


@pytest.mark.parametrize("outer", sorted(_inverter_rewrites()))
@pytest.mark.parametrize("inner", sorted(_inverter_rewrites()))
def test_inverter_pair_collapses_in_one_pass(inner, outer):
    """``outer(inner(a))`` is ``a``: an old or rewritten inverter reading
    an old or rewritten inverter collapses in the same pass."""
    rewrites = _inverter_rewrites()
    nl = Netlist("pair")
    a = nl.add_input("a", 1)[0]
    nl.set_output("y", [rewrites[outer](nl, rewrites[inner](nl, a))])
    optimized, again = _one_pass(nl)
    assert not again
    assert optimized.gate_count() == 0
    assert optimized.outputs["y"] == optimized.inputs["a"]


def test_native_collapses_inverter_pairs_as_the_reference(native_optimizer):
    rewrites = _inverter_rewrites()
    for inner in rewrites:
        for outer in rewrites:
            nl = Netlist(f"{outer}({inner})")
            a, b = nl.add_input("a", 2)
            pair = rewrites[outer](nl, rewrites[inner](nl, a))
            # A gate reading the pair keeps a constant cell in use.
            nl.set_output("y", [pair, nl.add(GateKind.MUX2,
                                             [b, pair, nl.const(0)])])
            assert_reference_bytes(nl, optimize_netlist(nl))


def test_native_raises_on_a_combinational_cycle(native_optimizer):
    nl = Netlist("loop")
    a = nl.add_input("a", 1)[0]
    n1, n2 = nl.new_net(), nl.new_net()
    nl.add(GateKind.AND2, [a, n1], output=n2)
    nl.add(GateKind.INV, [n2], output=n1)
    nl.set_output("y", [n2])
    with pytest.raises(SynthesisError, match="combinational cycle"):
        optimize_netlist(nl)


def test_columns_of_unequal_lengths_run_the_python_optimizer(monkeypatch):
    import repro.synth.optimize as optimize

    nl = Netlist("ragged")
    a, b = nl.add_input("a", 2)
    nl.set_output("y", [nl.add(GateKind.AND2, [a, b])])
    nl.gate_inits.pop()  # the C function would read past this column
    calls = []

    def counted(old, seq_consts=None):
        calls.append(old.name)
        return _one_pass(old, seq_consts)

    monkeypatch.setattr(optimize, "_one_pass", counted)
    assert optimize_netlist(nl).gate_count() == 1
    assert calls == ["ragged"]


def test_collapse_feeds_structural_hashing():
    """A reader of a collapsed pair merges with a reader of its source."""
    nl = Netlist("merge")
    a, b = nl.add_input("a", 2)
    twice = nl.add(GateKind.INV, [nl.add(GateKind.XOR2, [a, nl.const(1)])])
    nl.set_output("y", [nl.add(GateKind.AND2, [twice, b]),
                        nl.add(GateKind.AND2, [a, b])])
    optimized, again = _one_pass(nl)
    assert not again
    assert optimized.counts() == {GateKind.AND2: 1}
    y = optimized.outputs["y"]
    assert y[0] == y[1]


# -- the local DFF rule -----------------------------------------------------------


def _local_only_constant():
    """``r`` has D = XOR(a, a) and init 0.  The ternary analysis reads
    X ^ X as X; only the local rule sees a constant 0."""
    nl = Netlist("local")
    a, b = nl.add_input("a", 2)
    r = nl.new_net("r")
    nl.add(GateKind.DFF, [nl.add(GateKind.XOR2, [a, a])], output=r, init=0)
    nl.set_output("y", [nl.add(GateKind.OR2, [r, b])])
    return nl, r


def test_native_local_dff_rule_as_the_reference(native_optimizer):
    nl, _r = _local_only_constant()
    assert_reference_bytes(nl, optimize_netlist(nl))
    # One pass leaves the OR that read the register: it takes two.
    with _python_optimizer():
        first = optimize_netlist(nl, max_passes=1)
    assert first.gate_count() == 1
    assert pickle.dumps(optimize_netlist(nl, max_passes=1)) == \
        pickle.dumps(first)


def test_local_dff_rule_asks_for_another_pass():
    nl, r = _local_only_constant()
    assert r not in sequential_constants(nl)
    first, again = _one_pass(nl, sequential_constants(nl))
    assert again
    assert not first.indices(GateKind.DFF)
    assert first.counts()[GateKind.OR2] == 1


def test_local_dff_constant_fully_reduced(monkeypatch):
    import repro.synth.optimize as optimize

    calls = []

    def counted(old, seq_consts=None):
        calls.append(seq_consts)
        return _one_pass(old, seq_consts)

    monkeypatch.setattr(optimize, "_one_pass", counted)
    nl, _r = _local_only_constant()
    with optimize._python_optimizer():
        optimized = optimize_netlist(nl, validate="exhaustive")
    assert len(calls) == 2 and calls[1] is None
    assert optimized.gate_count() == 0
    assert optimized.outputs["y"] == [optimized.inputs["a"][1]]
    assert_fixpoint(optimized)


def test_constant_register_chain_takes_one_pass_per_link():
    """Each register of the chain is proven by the local rule only once
    the one before it is a constant cell."""
    nl = Netlist("chain")
    a, b = nl.add_input("a", 2)
    previous = nl.add(GateKind.XOR2, [a, a])
    for i in range(3):
        q = nl.new_net(f"r{i}")
        nl.add(GateKind.DFF, [previous], output=q, init=0)
        previous = nl.add(GateKind.AND2, [q, b])
    nl.set_output("y", [previous])
    assert not sequential_constants(nl)
    optimized = optimize_netlist(nl, validate="exhaustive")
    assert optimized.gate_count() == 0
    assert_fixpoint(optimized)
