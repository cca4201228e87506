"""Gate-level checkpoints on either kernel.

A native simulator saves its net words as one buffer copy and restores
a native checkpoint as one more.  The checkpoint still records the lane
count, is checked against the simulator it is restored into, restores
into a fresh simulator on either kernel, and never shares the live
buffer; its ``values`` equal the list of net words.
"""

import random
from contextlib import nullcontext

import pytest

from repro.core import SimulationError
from repro.synth import GateSimulator
from repro.synth.gatesim import _python_kernel

from tests.synth.test_gate_kernel import random_netlist

KERNELS = {"native": nullcontext, "python": _python_kernel}


def _simulator(kernel, netlist, lanes):
    with KERNELS[kernel]():
        return GateSimulator(netlist, lanes=lanes)


def _program(netlist, lanes, cycles, seed):
    rng = random.Random(seed)
    return [{name: [rng.getrandbits(len(bus)) for _ in range(lanes)]
             for name, bus in netlist.inputs.items()}
            for _ in range(cycles)]


def _drive(sim, program):
    outputs = []
    for pins in program:
        sim.step(pins)
        outputs.append(sim.settled_outputs_lanes())
    return outputs


@pytest.mark.parametrize("lanes", [1, 64])
@pytest.mark.parametrize("saver", sorted(KERNELS))
@pytest.mark.parametrize("restorer", sorted(KERNELS))
def test_checkpoint_restores_into_a_fresh_simulator_on_either_kernel(
        restorer, saver, lanes):
    netlist = random_netlist(4)
    program = _program(netlist, lanes, 10, seed=lanes)
    first = _simulator(saver, netlist, lanes)
    _drive(first, program[:5])
    snap = first.save_state()
    reference = _drive(first, program[5:])

    second = _simulator(restorer, netlist, lanes)
    second.restore_state(snap)
    assert second.cycle == 5
    assert _drive(second, program[5:]) == reference
    assert second.values == first.values


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_checkpoint_does_not_share_the_live_buffer(kernel):
    netlist = random_netlist(5)
    program = _program(netlist, 64, 12, seed=5)
    sim = _simulator(kernel, netlist, 64)
    _drive(sim, program[:4])
    snap = sim.save_state()
    words = list(sim.values)
    _drive(sim, program[4:8])
    assert list(sim.values) != words
    assert snap["values"] == words
    sim.restore_state(snap)
    assert sim.values == words
    _drive(sim, program[8:])
    assert snap["values"] == words
    sim.restore_state(snap)
    assert sim.values == words


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_checkpoint_values_equal_the_list_of_net_words(kernel):
    sim = _simulator(kernel, random_netlist(6), 64)
    sim.step({"in0": 1})
    snap = sim.save_state()
    words = [int(word) for word in sim.values]
    assert snap["values"] == words and words == snap["values"]
    assert not snap["values"] != words
    assert snap["values"] != words[:-1] + [words[-1] ^ 1]
    assert snap["lanes"] == 64


@pytest.mark.parametrize("saver", sorted(KERNELS))
@pytest.mark.parametrize("restorer", sorted(KERNELS))
def test_mismatched_checkpoints_raise_on_either_kernel(restorer, saver):
    netlist = random_netlist(7)
    snap = _simulator(saver, netlist, 4).save_state()
    with pytest.raises(SimulationError) as err:
        _simulator(restorer, netlist, 2).restore_state(snap)
    assert str(err.value) == "checkpoint has 4 lanes, simulator has 2"
    short = _simulator(saver, random_netlist(7, n_gates=60), 4).save_state()
    with pytest.raises(SimulationError, match="nets, netlist 'kernel7'"):
        _simulator(restorer, netlist, 4).restore_state(short)
