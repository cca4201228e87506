"""The level-scheduled gate kernels against their references.

* Seeded random netlists over every :class:`GateKind` settle in
  :class:`GateSimulator` and, gate by gate, through
  :func:`evaluate_gate_word` in a reference simulator; every net must
  match after every settle, for several lane counts, with forces, flips,
  releases and checkpoints on pins, register outputs and internal nets.
  Both kernels run it: the native one (where it builds) and the Python
  one, chosen through the private seam :func:`_python_kernel`.
* Saboteurs on level-0 nets (pins, register outputs) change only what
  the logic sees while armed.
* A simulator of at most 64 lanes runs the native kernel wherever a C
  compiler exists, so a broken build cannot pass on the fallback.
* ``Netlist.levelize_indices`` yields the order of the recursive
  depth-first search it replaced (kept here as the reference); the level
  schedule is memoized per netlist, cleared by ``add`` and left out of
  pickles.
"""

import base64
import functools
import pickle
import random
import shutil
import sys
from contextlib import nullcontext

import pytest

from repro.core import SimulationError, SynthesisError
from repro.synth import GateKind, GateSimulator, Netlist, native
from repro.synth.gates import ARITY, KINDS, evaluate_gate_word
from repro.synth.gatesim import _NativeGateSimulator, _python_kernel

COMB_KINDS = [
    GateKind.CONST0, GateKind.CONST1, GateKind.BUF, GateKind.INV,
    GateKind.AND2, GateKind.OR2, GateKind.NAND2, GateKind.NOR2,
    GateKind.XOR2, GateKind.XNOR2, GateKind.MUX2,
]


def both_kernels(test):
    """Run *test* once on each gate kernel: native (where it builds),
    then Python."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for kernel in (nullcontext, _python_kernel):
            with kernel():
                test(*args, **kwargs)
    return run


def recursive_levelize(netlist):
    """The recursive depth-first levelization ``Netlist.levelize_indices``
    keeps, as gate indices."""
    kinds, ins = netlist.gate_kinds, netlist.gate_inputs
    dff = GateKind.DFF.code
    order = []
    state = {}

    def visit(gate):
        mark = state.get(gate)
        if mark == 2:
            return
        if mark == 1:
            raise AssertionError(
                f"cycle through net {netlist.gate_outputs[gate]}")
        state[gate] = 1
        for net in ins[gate]:
            upstream = netlist.driver_index(net)
            if upstream is not None and kinds[upstream] != dff:
                visit(upstream)
        state[gate] = 2
        order.append(gate)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(kinds) * 2 + 1000))
    try:
        for gate, code in enumerate(kinds):
            if code != dff:
                visit(gate)
    finally:
        sys.setrecursionlimit(old_limit)
    return order


def reference_depth(netlist):
    """Longest combinational path, computed gate by gate."""
    depth = {}
    for gate in recursive_levelize(netlist):
        level = 0
        for net in netlist.gate_inputs[gate]:
            level = max(level, depth.get(net, 0))
        depth[netlist.gate_outputs[gate]] = level + 1
    return max(depth.values(), default=0)


class ReferenceSimulator:
    """Gate-by-gate settles through :func:`evaluate_gate_word`.

    Pins and register outputs keep their driven values in ``driven``;
    each settle applies the armed saboteurs to what the logic reads.
    """

    def __init__(self, netlist, lanes):
        self.netlist = netlist
        self.mask = (1 << lanes) - 1
        self.order = recursive_levelize(netlist)
        self.dffs = netlist.indices(GateKind.DFF)
        self.values = [0] * netlist._net_count
        self.driven = {net: 0 for bus in netlist.inputs.values()
                       for net in bus}
        for dff in self.dffs:
            self.driven[netlist.gate_outputs[dff]] = \
                -(netlist.gate_inits[dff] & 1) & self.mask
        self.forces = {}
        self.flips = {}

    def drive(self, name, packed_bits):
        for net, bits in zip(self.netlist.inputs[name], packed_bits):
            self.driven[net] = bits

    def force(self, net, value, lanes):
        set_mask, bits = self.forces.get(net, (0, 0))
        self.forces[net] = (set_mask | lanes,
                            (bits & ~lanes) | (-(value & 1) & lanes))

    def flip(self, net, lanes):
        self.flips[net] = self.flips.get(net, 0) | lanes

    def release(self, net, lanes):
        targets = [net] if net is not None else \
            list(self.forces.keys() | self.flips.keys())
        for target in targets:
            set_mask, bits = self.forces.pop(target, (0, 0))
            if set_mask & ~lanes:
                self.forces[target] = (set_mask & ~lanes,
                                       bits & set_mask & ~lanes)
            flip = self.flips.pop(target, 0) & ~lanes
            if flip:
                self.flips[target] = flip

    def _seen(self, net, value):
        set_mask, bits = self.forces.get(net, (0, 0))
        flip = self.flips.get(net, 0) & ~set_mask
        return ((value & ~set_mask) | bits) ^ flip

    def settle(self):
        netlist, values = self.netlist, self.values
        kinds, ins, outs = (netlist.gate_kinds, netlist.gate_inputs,
                            netlist.gate_outputs)
        for net, value in self.driven.items():
            values[net] = self._seen(net, value)
        for gate in self.order:
            value = evaluate_gate_word(
                KINDS[kinds[gate]], [values[n] for n in ins[gate]],
                self.mask)
            values[outs[gate]] = self._seen(outs[gate], value)

    def clock(self):
        ins, outs = self.netlist.gate_inputs, self.netlist.gate_outputs
        sampled = [self.values[ins[dff][0]] for dff in self.dffs]
        for dff, value in zip(self.dffs, sampled):
            self.driven[outs[dff]] = value


def random_netlist(seed, n_gates=70):
    """Every combinational kind over pins and register state."""
    rng = random.Random(seed)
    nl = Netlist(f"kernel{seed}")
    pool = []
    for i in range(3):
        pool.extend(nl.add_input(f"in{i}", rng.randint(1, 4)))
    state = [nl.new_net(f"q{i}") for i in range(4)]
    pool.extend(state)
    kinds = COMB_KINDS + [rng.choice(COMB_KINDS)
                          for _ in range(n_gates - len(COMB_KINDS))]
    rng.shuffle(kinds)
    for kind in kinds:
        # Half the reads come from the newest nets, for deep cones.
        inputs = [pool[-rng.randint(1, min(8, len(pool)))]
                  if rng.random() < 0.5 else rng.choice(pool)
                  for _ in range(ARITY[kind])]
        pool.append(nl.add(kind, inputs))
    for q in state:
        nl.add(GateKind.DFF, [rng.choice(pool)], output=q,
               init=rng.randint(0, 1))
    nl.set_output("out", pool[-4:])
    nl.set_output("state", state)
    return nl


def _lane_set(rng, lanes):
    """A random lane subset: (lanes argument, lane mask)."""
    if rng.random() < 0.3:
        return None, (1 << lanes) - 1
    chosen = sorted(rng.sample(range(lanes), rng.randint(1, min(lanes, 4))))
    mask = 0
    for lane in chosen:
        mask |= 1 << lane
    return chosen, mask


@pytest.mark.parametrize("lanes", [1, 3, 5, 64, 65, 130])
@pytest.mark.parametrize("seed", [0, 1, 2])
@both_kernels
def test_kernel_matches_gate_by_gate_reference(seed, lanes):
    netlist = random_netlist(seed)
    rng = random.Random(seed * 1000 + lanes)
    sim = GateSimulator(netlist, lanes=lanes)
    ref = ReferenceSimulator(netlist, lanes)
    pins = [net for bus in netlist.inputs.values() for net in bus]
    state = [netlist.gate_outputs[dff]
             for dff in netlist.indices(GateKind.DFF)]
    comb = [netlist.gate_outputs[gate]
            for gate in recursive_levelize(netlist)]
    mask = (1 << lanes) - 1
    settled = []
    sim.monitors.append(lambda s: settled.append(list(s.values)))
    settles = 1  # the constructor settles once
    ref.settle()
    assert sim.values == ref.values
    checkpoint = None

    for cycle in range(40):
        # A force and a flip on one net and lane: the force wins.
        if cycle in (3, 17):
            net = rng.choice(pins + state + comb)
            sim.force(net, cycle & 1, lanes=[0])
            sim.flip(net, lanes=[0])
            ref.force(net, cycle & 1, 1)
            ref.flip(net, 1)
        for _ in range(rng.randint(0, 2)):
            net = rng.choice([rng.choice(pins), rng.choice(state),
                              rng.choice(comb)])
            chosen, lane_mask = _lane_set(rng, lanes)
            if rng.random() < 0.5:
                value = rng.randint(0, 1)
                sim.force(net, value, lanes=chosen)
                ref.force(net, value, lane_mask)
            else:
                sim.flip(net, lanes=chosen)
                ref.flip(net, lane_mask)
        roll = rng.random()
        if roll < 0.15:
            sim.release()
            ref.release(None, mask)
        elif roll < 0.3 and (sim._forces or sim._flips):
            net = rng.choice(sorted(sim._forces.keys() | sim._flips.keys()))
            chosen, lane_mask = _lane_set(rng, lanes)
            sim.release(net, lanes=chosen)
            ref.release(net, lane_mask)
        elif roll < 0.35:
            chosen, lane_mask = _lane_set(rng, lanes)
            sim.release(lanes=chosen)
            ref.release(None, lane_mask)

        if cycle == 12:
            checkpoint = (sim.save_state(), dict(ref.driven))
        if cycle in (20, 33):
            state_, driven = checkpoint
            sim.restore_state(state_)
            ref.driven = dict(driven)

        # Drive some pins (broadcast or per lane) and leave others alone.
        inputs = {}
        for name, bus in netlist.inputs.items():
            if rng.random() < 0.3:
                continue
            if rng.random() < 0.5:
                raw = rng.getrandbits(len(bus))
                inputs[name] = raw
                bits = [-((raw >> i) & 1) & mask for i in range(len(bus))]
            else:
                raws = [rng.getrandbits(len(bus)) for _ in range(lanes)]
                inputs[name] = raws
                bits = [sum(((raw >> i) & 1) << lane
                            for lane, raw in enumerate(raws))
                        for i in range(len(bus))]
            ref.drive(name, bits)

        sim.step(inputs)
        ref.settle()
        settles += 1
        assert settled.pop() == ref.values, f"cycle {cycle}"
        ref.clock()
        if rng.random() < 0.2:
            # A second settle without a clock edge changes nothing.
            sim._propagate()
            ref.settle()
            settles += 1
            assert sim.values == ref.values, f"cycle {cycle} re-settle"

    assert sim.gate_evals == settles * len(comb)


@pytest.mark.skipif(shutil.which(native._COMPILER) is None,
                    reason="no C compiler on this host")
def test_native_kernel_runs_up_to_64_lanes():
    netlist = random_netlist(0)
    assert type(GateSimulator(netlist)) is _NativeGateSimulator
    assert type(GateSimulator(netlist, lanes=64)) is _NativeGateSimulator
    assert type(GateSimulator(netlist, lanes=65)) is GateSimulator
    with _python_kernel():
        assert type(GateSimulator(netlist)) is GateSimulator


@pytest.mark.parametrize("lanes", [1, 64])
@both_kernels
def test_mismatches_raise_the_same_errors(lanes):
    netlist = random_netlist(0)
    sim = GateSimulator(netlist, lanes=lanes)
    with pytest.raises(SimulationError) as err:
        sim.set_input_lanes("in0", [0] * (lanes + 1))
    assert str(err.value) == \
        f"input 'in0': got {lanes + 1} values for {lanes} lanes"
    with pytest.raises(SimulationError) as err:
        sim.step({"nope": 1})
    assert str(err.value) == "netlist 'kernel0' has no input 'nope'"
    with pytest.raises(SimulationError) as err:
        sim.output("nope")
    assert str(err.value) == "netlist 'kernel0' has no output 'nope'"
    state = sim.save_state()
    other = GateSimulator(netlist, lanes=lanes + 1)
    with pytest.raises(SimulationError) as err:
        other.restore_state(state)
    assert str(err.value) == \
        f"checkpoint has {lanes} lanes, simulator has {lanes + 1}"
    short = dict(state, values=state["values"][:-1])
    with pytest.raises(SimulationError) as err:
        sim.restore_state(short)
    count = netlist._net_count
    assert str(err.value) == \
        f"checkpoint has {count - 1} nets, netlist 'kernel0' has {count}"
    with pytest.raises(SimulationError, match="has no net -1$"):
        sim.force(-1, 1)
    with pytest.raises(SimulationError, match="has no net -1$"):
        sim.flip(-1)
    assert sim.values == GateSimulator(netlist, lanes=lanes).values


# -- level-0 saboteurs --------------------------------------------------------


def _buffered_pin():
    nl = Netlist("bufpin")
    a = nl.add_input("a", 1)
    y = nl.add(GateKind.BUF, [a[0]])
    nl.set_output("y", [y])
    return nl, a[0]


def test_armed_flip_holds_undriven_pin_inverted():
    netlist, a = _buffered_pin()
    sim = GateSimulator(netlist)
    sim.set_input("a", 0)
    sim.flip(a)
    reads = []
    for _ in range(4):
        sim.step()
        reads.append(sim.output("y", signed=False))
    assert reads == [1, 1, 1, 1]


@pytest.mark.parametrize("arm", ["force", "flip"])
def test_release_restores_the_driven_pin_value(arm):
    netlist, a = _buffered_pin()
    sim = GateSimulator(netlist)
    sim.set_input("a", 0)
    if arm == "force":
        sim.force(a, 1)
    else:
        sim.flip(a)
    sim.step()
    assert sim.output("y", signed=False) == 1
    sim.release()
    sim.step()
    assert sim.output("y", signed=False) == 0


def test_flip_on_register_output_survives_a_second_settle():
    nl = Netlist("flipq")
    q = nl.new_net("q")
    y = nl.add(GateKind.BUF, [q])
    nl.add(GateKind.DFF, [y], output=q, init=0)
    nl.set_output("y", [y])
    sim = GateSimulator(nl)
    sim.flip(q)
    sim._propagate()
    sim._propagate()
    assert sim.output("y", signed=False) == 1
    sim.release()
    sim._propagate()
    assert sim.output("y", signed=False) == 0


def test_checkpoint_keeps_the_driven_pin_value():
    netlist, a = _buffered_pin()
    sim = GateSimulator(netlist)
    sim.set_input("a", 0)
    sim.flip(a)
    sim.step()
    state = sim.save_state()
    clean = GateSimulator(netlist)
    clean.restore_state(state)
    clean.step()
    assert clean.output("y", signed=False) == 0


# -- the memoized schedule ----------------------------------------------------


def _inverter_pair():
    nl = Netlist("pair")
    a = nl.add_input("a", 1)
    y = nl.add(GateKind.INV, [a[0]])
    nl.set_output("y", [y])
    return nl, y


def test_add_clears_the_memoized_schedule():
    nl, y = _inverter_pair()
    GateSimulator(nl).step({"a": 0})
    assert nl.logic_depth() == 1
    z = nl.add(GateKind.INV, [y])
    nl.set_output("z", [z])
    sim = GateSimulator(nl)
    sim.step({"a": 0})
    assert sim.output("z", signed=False) == 0
    assert nl.logic_depth() == 2
    assert [nl.gate_outputs[gate] for gate in nl.levelize_indices()] == \
        [y, z]


def test_simulators_share_one_schedule():
    nl, _y = _inverter_pair()
    assert GateSimulator(nl)._schedule is \
        GateSimulator(nl, lanes=64)._schedule is nl.schedule()


def test_schedule_reports_cycles_added_after_it_was_memoized():
    nl, y = _inverter_pair()
    nl.schedule()
    n1, n2 = nl.new_net(), nl.new_net()
    nl.add(GateKind.AND2, [y, n1], output=n2)
    nl.add(GateKind.INV, [n2], output=n1)
    with pytest.raises(SynthesisError, match=f"cycle through net {n2}$"):
        nl.schedule()


def test_levelize_matches_recursive_reference_on_designs(design_netlists):
    assert len(design_netlists) > 20
    for netlist in design_netlists:
        assert netlist.levelize_indices() == recursive_levelize(netlist), \
            netlist.name


def test_logic_depth_matches_reference_on_designs(design_netlists):
    for netlist in design_netlists:
        assert netlist.logic_depth() == reference_depth(netlist), \
            netlist.name


def test_levelize_deep_inverter_chain():
    """A 50 000-gate chain listed output first: the search nests 50 000
    drivers deep, with no recursion limit involved."""
    length = 50_000
    nl = Netlist("chain")
    nets = nl.add_input("a", 1) + [nl.new_net() for _ in range(length)]
    for i in range(length, 0, -1):
        nl.add(GateKind.INV, [nets[i - 1]], output=nets[i])
    nl.set_output("y", [nets[-1]])
    limit = sys.getrecursionlimit()
    order = nl.levelize_indices()
    assert sys.getrecursionlimit() == limit
    assert order == recursive_levelize(nl)
    assert nl.logic_depth() == length
    sim = GateSimulator(nl)
    sim.step({"a": 1})
    assert sim.output("y", signed=False) == 1


# -- pickling -----------------------------------------------------------------

#: ``pickle.dumps(_pickled_netlist(), protocol=4)`` as written before
#: netlists memoized their schedule (e.g. an existing artifact-cache
#: entry), on CPython 3.11.7.  How enum members pickle differs between
#: interpreters (3.11.7 and 3.12 by value, 3.11.2 by name), so these
#: bytes are compared only after a round trip through the running one.
OLD_PICKLE = base64.b64decode(
    "gASVygEAAAAAAACME3JlcHJvLnN5bnRoLm5ldGxpc3SUjAdOZXRsaXN0lJOUKYGU"
    "fZQojARuYW1llIwHcGlja2xlZJSMCl9uZXRfY291bnSUSwaMBWdhdGVzlF2UKGgA"
    "jARHYXRllJOUKYGUTn2UKIwEa2luZJSMEXJlcHJvLnN5bnRoLmdhdGVzlIwIR2F0"
    "ZUtpbmSUk5SMBHhvcjKUhZRSlIwGaW5wdXRzlEsASwKGlIwGb3V0cHV0lEsDjARp"
    "bml0lEsAdYaUYmgLKYGUTn2UKGgOaBGMBmNvbnN0MZSFlFKUaBUpaBdLBGgYSwB1"
    "hpRiaAspgZROfZQoaA5oEYwEbXV4MpSFlFKUaBVLAUsDSwSHlGgXSwVoGEsAdYaU"
    "YmgLKYGUTn2UKGgOaBGMA2RmZpSFlFKUaBVLBYWUaBdLAmgYSwF1hpRiZYwJbmV0"
    "X25hbWVzlH2UKEsAjARhWzBdlEsBjARhWzFdlEsCjAFxlHVoFX2UjAFhlF2UKEsA"
    "SwFlc4wHb3V0cHV0c5R9lIwBeZRdlChLBUsCZXOMB19jb25zdDCUTowHX2NvbnN0"
    "MZRLBIwHX2RyaXZlcpR9lChLA2gMSwRoGksFaCBLAmgndXViLg=="
)


def _pickled_netlist():
    nl = Netlist("pickled")
    a = nl.add_input("a", 2)
    q = nl.new_net("q")
    x = nl.add(GateKind.XOR2, [a[0], q])
    y = nl.add(GateKind.MUX2, [a[1], x, nl.const(1)])
    nl.add(GateKind.DFF, [y], output=q, init=1)
    nl.set_output("y", [y, q])
    return nl


def _replay(netlist):
    sim = GateSimulator(netlist)
    outputs = []
    sim.monitors.append(
        lambda s: outputs.append(s.output("y", signed=False)))
    sim.run(6, lambda cycle: {"a": cycle % 4})
    return outputs


def test_pickle_bytes_do_not_depend_on_simulation():
    netlist = _pickled_netlist()
    before = pickle.dumps(netlist, protocol=4)
    _replay(netlist)
    assert netlist._schedule is not None
    assert pickle.dumps(netlist, protocol=4) == before


def test_pickle_state_matches_the_old_pickle():
    old = pickle.loads(OLD_PICKLE)
    state = pickle.loads(pickle.dumps(_pickled_netlist(), protocol=4))
    assert vars(state).keys() == vars(old).keys()
    assert "_schedule" not in vars(state)
    assert pickle.dumps(old, protocol=4) == \
        pickle.dumps(_pickled_netlist(), protocol=4)


def test_old_pickle_unpickles_and_simulates():
    netlist = pickle.loads(OLD_PICKLE)
    assert _replay(netlist) == [3, 3, 3, 2, 1, 3]
    assert _replay(pickle.loads(pickle.dumps(netlist))) == \
        _replay(_pickled_netlist())
