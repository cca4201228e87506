"""Word-parallel gate simulation vs the scalar reference.

Seeded random netlists (combinational logic over DFF state) run with
lanes packed into machine-word ints and, lane by lane, against
independent scalar simulators over the same stimulus — every output,
every cycle, every lane must match bit for bit.  Saboteur masking
(per-lane force/flip, force-beats-flip) is differenced the same way.
Every simulator check runs on both gate kernels, native and Python.
"""

import random

import pytest

from repro.core.errors import SimulationError
from repro.synth import GateKind, Netlist
from repro.synth.gates import ARITY, evaluate_gate, evaluate_gate_word
from repro.synth.gatesim import GateSimulator

from .test_gate_kernel import both_kernels

COMB_KINDS = [
    GateKind.BUF, GateKind.INV, GateKind.AND2, GateKind.OR2,
    GateKind.NAND2, GateKind.NOR2, GateKind.XOR2, GateKind.XNOR2,
    GateKind.MUX2,
]


def build_random_netlist(seed, n_inputs=3, width=4, n_gates=40, n_dffs=5):
    """A seeded random netlist: comb cloud over inputs and DFF state."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    pool = []
    for i in range(n_inputs):
        pool.extend(nl.add_input(f"in{i}", width))
    # DFF outputs join the pool first so the comb cloud can read state;
    # the DFFs themselves are added once the cloud exists.
    dffs = []
    for _ in range(n_dffs):
        rng.randrange(len(pool))  # unused; keeps each seed's netlist fixed
        q = nl.new_net()
        dffs.append((q, rng.randint(0, 1)))
        pool.append(q)
    for _ in range(n_gates):
        kind = rng.choice(COMB_KINDS)
        inputs = [pool[rng.randrange(len(pool))]
                  for _ in range(ARITY[kind])]
        pool.append(nl.add(kind, inputs))
    # Each DFF's D is a random net of the whole pool (keeps the graph
    # acyclic: DFF inputs never feed levelization).
    for q, init in dffs:
        nl.add(GateKind.DFF, [pool[rng.randrange(len(pool))]], output=q,
               init=init)
    nl.set_output("out", pool[-width:])
    nl.set_output("probe", [dffs[0][0], pool[-1]])
    return nl


def _random_program(seed, netlist, cycles):
    rng = random.Random(seed)
    return [
        {name: rng.getrandbits(len(bus))
         for name, bus in netlist.inputs.items()}
        for _ in range(cycles)
    ]


@pytest.mark.parametrize("seed", range(8))
@both_kernels
def test_word_parallel_matches_scalar(seed):
    lanes = 7  # deliberately not a power of two
    cycles = 30
    netlist = build_random_netlist(seed)
    programs = [_random_program(seed * 100 + lane, netlist, cycles)
                for lane in range(lanes)]

    wide = GateSimulator(netlist, lanes=lanes)
    scalars = [GateSimulator(netlist) for _ in range(lanes)]
    for cycle in range(cycles):
        wide.step({
            name: [programs[lane][cycle][name] for lane in range(lanes)]
            for name in netlist.inputs
        })
        for lane, sim in enumerate(scalars):
            sim.step(programs[lane][cycle])
        for name in netlist.outputs:
            got = wide.output_lanes(name)
            want = [sim.output(name) for sim in scalars]
            assert got == want, f"seed {seed} cycle {cycle} output {name}"


@pytest.mark.parametrize("seed", range(4))
@both_kernels
def test_lane_faults_match_scalar_faults(seed):
    """Per-lane saboteurs behave exactly like scalar saboteurs."""
    cycles = 20
    netlist = build_random_netlist(seed)
    program = _random_program(seed + 77, netlist, cycles)
    rng = random.Random(seed + 5)
    nets = sorted({netlist.gate_outputs[gate]
                   for gate in netlist.levelize_indices()})
    lanes = 4
    # lane 0: clean; lane 1: stuck-at-0; lane 2: stuck-at-1; lane 3: flip
    forced0, forced1, flipped = (rng.choice(nets) for _ in range(3))

    wide = GateSimulator(netlist, lanes=lanes)
    wide.force(forced0, 0, lanes=[1])
    wide.force(forced1, 1, lanes=[2])
    wide.flip(flipped, lanes=[3])

    scalars = [GateSimulator(netlist) for _ in range(lanes)]
    scalars[1].force(forced0, 0)
    scalars[2].force(forced1, 1)
    scalars[3].flip(flipped)

    for cycle in range(cycles):
        wide.step(program[cycle])
        for sim in scalars:
            sim.step(program[cycle])
        for name in netlist.outputs:
            got = wide.output_lanes(name)
            want = [sim.output(name) for sim in scalars]
            assert got == want, f"seed {seed} cycle {cycle} output {name}"


@both_kernels
def test_force_beats_flip_per_lane():
    """On the same (net, lane), a force wins over a flip — as in scalar."""
    nl = Netlist("fb")
    a = nl.add_input("a", 1)
    y = nl.add(GateKind.BUF, [a[0]])
    nl.set_output("y", [y])

    sim = GateSimulator(nl, lanes=2)
    sim.force(y, 1, lanes=[0])
    sim.flip(y, lanes=[0, 1])
    sim.step({"a": 0})
    # lane 0: forced to 1 (flip suppressed); lane 1: 0 flipped to 1.
    assert sim.output_lanes("y", signed=False) == [1, 1]
    sim.release(y, lanes=[1])
    sim.step({"a": 0})
    assert sim.output_lanes("y", signed=False) == [1, 0]


@both_kernels
def test_lane_aware_checkpoint_round_trip():
    netlist = build_random_netlist(1)
    sim = GateSimulator(netlist, lanes=5)
    sim.run(7, lambda c: {name: c + 1 for name in netlist.inputs})
    state = sim.save_state()
    before = sim.settled_outputs_lanes()
    sim.run(5, lambda c: {name: 3 * c for name in netlist.inputs})
    sim.restore_state(state)
    sim.step({name: 8 for name in netlist.inputs})
    sim.restore_state(state)
    assert sim.settled_outputs_lanes() == before
    assert state["lanes"] == 5
    with pytest.raises(SimulationError):
        GateSimulator(netlist, lanes=3).restore_state(state)


@both_kernels
def test_broadcast_equals_per_lane_duplicate():
    netlist = build_random_netlist(2)
    program = _random_program(9, netlist, 15)
    wide = GateSimulator(netlist, lanes=8)
    for pins in program:
        wide.step(pins)  # scalar ints broadcast
        outs = wide.settled_outputs_lanes()
        for name, per_lane in outs.items():
            assert len(set(per_lane)) == 1, f"{name} diverged on broadcast"


def test_word_evaluator_degenerates_to_scalar():
    rng = random.Random(0)
    for kind in COMB_KINDS + [GateKind.CONST0, GateKind.CONST1]:
        for _ in range(16):
            bits = [rng.randint(0, 1) for _ in range(ARITY[kind])]
            assert evaluate_gate_word(kind, bits, 1) == \
                evaluate_gate(kind, bits), (kind, bits)


@both_kernels
def test_gate_eval_counter_counts_word_ops():
    netlist = build_random_netlist(3)
    gates = len(netlist.levelize_indices())
    narrow = GateSimulator(netlist)
    wide = GateSimulator(netlist, lanes=64)
    narrow.run(10, lambda c: {})
    wide.run(10, lambda c: {})
    # Same word-op count regardless of lanes: that is the whole win.
    assert narrow.gate_evals == wide.gate_evals == gates * 11  # +1 init
