"""``GateSimulator.replay`` against the per-cycle ``step()`` loop.

A replay runs a range of cycles of a packed broadcast pin program and
either records lane 0's output words (a golden run) or claims each
lane's first divergence from them.  On seeded random netlists (the
builder of ``test_gate_kernel.py``, plus a pin and an output bus wider
than 64 nets) the replay must leave exactly what a ``step()`` loop that
reads every output lane by lane leaves: the recorded words, each lane's
first (cycle, output), the lanes left undetected, ``cycle``,
``gate_evals`` and every net value.  Faults sit on pins, register
outputs and internal nets; transients split the replay at the first
cycle, at the last one and past the end, as a fault campaign splits it.
Programs leave pins out on some cycles; chunks fill only part of the
lanes; one case stops early.  Both kernels run every case.
"""

import random

import pytest

from repro.core import SimulationError
from repro.synth import GateKind, GateSimulator
from repro.synth.gatesim import Detections, PinProgram

from .test_gate_kernel import both_kernels, random_netlist

CYCLES = 12


def replay_netlist(seed):
    """A random netlist with a 70-net pin and a 70-net output bus."""
    netlist = random_netlist(seed)
    wide = netlist.add_input("wide", 70)
    logic = list(netlist.gate_outputs)
    netlist.set_output("wide", [
        netlist.add(GateKind.XOR2, [wide[i], logic[i % len(logic)]])
        for i in range(70)])
    return netlist


def random_program(netlist, rng, cycles=CYCLES):
    """Broadcast pins; about a quarter of the drives left out."""
    program = []
    for _ in range(cycles):
        pins = {}
        for name, bus in netlist.inputs.items():
            if rng.random() < 0.25:
                continue
            raw = rng.getrandbits(len(bus))
            pins[name] = raw - (1 << len(bus)) if rng.random() < 0.2 else raw
        program.append(pins)
    return program


def output_words(netlist, outputs):
    """``{output: unsigned raw}`` as a replay records it: 64-net chunks,
    LSB first, outputs in netlist order."""
    words = []
    for name, bus in netlist.outputs.items():
        raw = outputs[name]
        for _ in range(0, len(bus), 64):
            words.append(raw & ((1 << 64) - 1))
            raw >>= 64
    return words


def step_golden(netlist, program):
    """Lane 0's unsigned outputs on every cycle, and the simulator."""
    sim = GateSimulator(netlist)
    outputs = []
    sim.monitors.append(lambda s: outputs.append(
        {name: s.output(name, signed=False) for name in netlist.outputs}))
    for pins in program:
        sim.step(pins)
    return outputs, sim


def nets_by_role(netlist):
    pins = [net for bus in netlist.inputs.values() for net in bus]
    state = [netlist.gate_outputs[i]
             for i in netlist.indices(GateKind.DFF)]
    logic = [net for net in netlist.gate_outputs if net not in set(state)]
    return pins, state, logic


def random_faults(netlist, rng, count):
    """One stuck-at fault per lane, on a pin, a register output or an
    internal net."""
    roles = nets_by_role(netlist)
    return [(rng.choice(rng.choice(roles)), rng.randint(0, 1))
            for _ in range(count)]


def segmented_replay(sim, program, detections, transients):
    """Replay *program* split at the transient cycles, as a campaign
    chunk does: flip, run that cycle, release."""
    start = 0
    for cycle in sorted(c for c in transients if c < len(program)):
        sim.replay(program, start, cycle, detections)
        for lane, net in transients[cycle]:
            sim.flip(net, lanes=[lane])
        sim.replay(program, cycle, cycle + 1, detections)
        for lane, net in transients[cycle]:
            sim.release(net, lanes=[lane])
        start = cycle + 1
    sim.replay(program, start, len(program), detections)


def step_claims(sim, netlist, program, golden, count, transients):
    """Each lane's first (cycle, output index) whose output, read lane by
    lane, differs from *golden*; steps until no lane is left."""
    names = list(netlist.outputs)
    claims = {}
    undetected = set(range(count))
    now = {}

    def monitor(s):
        for index, name in enumerate(names):
            for lane in sorted(undetected):
                if s.output(name, signed=False, lane=lane) \
                        != golden[now["cycle"]][name]:
                    claims[lane] = (now["cycle"], index)
                    undetected.discard(lane)

    sim.monitors.append(monitor)
    for cycle, pins in enumerate(program):
        if not undetected:
            break
        now["cycle"] = cycle
        armed = transients.get(cycle, ())
        for lane, net in armed:
            sim.flip(net, lanes=[lane])
        sim.step(pins)
        for lane, net in armed:
            sim.release(net, lanes=[lane])
    sim.monitors.remove(monitor)
    return claims


@pytest.mark.parametrize("seed", [0, 1, 2])
@both_kernels
def test_recorded_golden_run_matches_the_step_loop(seed):
    netlist = replay_netlist(seed)
    program = random_program(netlist, random.Random(seed))
    outputs, stepped = step_golden(netlist, program)
    packed = PinProgram(netlist, program)

    expected = [word for cycle in outputs
                for word in output_words(netlist, cycle)]
    columns = len(expected) // CYCLES
    sim = GateSimulator(netlist)
    head = sim.replay(packed, 0, 5)
    tail = sim.replay(packed, 5, CYCLES)
    split = 5 * columns
    # Each replay records its own cycles; the rest of its rows read 0.
    assert list(head[:split]) + list(tail[split:]) == expected
    assert not any(head[split:]) and not any(tail[:split])
    assert (sim.cycle, sim.gate_evals) == (stepped.cycle, stepped.gate_evals)
    assert sim.values == stepped.values
    for name in netlist.outputs:
        assert sim.output(name) == stepped.output(name)

    whole = GateSimulator(netlist).replay(packed, 0, CYCLES)
    assert list(whole) == expected
    signed = []
    stepped = GateSimulator(netlist)
    stepped.monitors.append(lambda s: signed.append(s.settled_outputs()))
    for pins in program:
        stepped.step(pins)
    assert sim.recorded_outputs(whole, CYCLES) == signed

    # A simulator with a monitor steps the replay, and its monitor sees
    # every settle.
    seen = []
    watched = GateSimulator(netlist)
    watched.monitors.append(lambda s: seen.append(s.cycle))
    assert list(watched.replay(packed, 0, CYCLES)) == list(whole)
    assert seen == list(range(CYCLES))


@pytest.mark.parametrize("lanes,count", [(1, 1), (3, 2), (64, 64), (64, 41),
                                         (65, 65), (130, 97)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@both_kernels
def test_checked_replay_matches_the_step_loop(seed, lanes, count):
    netlist = replay_netlist(seed)
    rng = random.Random(seed * 1000 + lanes)
    program = random_program(netlist, rng)
    golden, _ = step_golden(netlist, program)
    packed = PinProgram(netlist, program)
    record = GateSimulator(netlist).replay(packed, 0, CYCLES)

    faults = random_faults(netlist, rng, count)
    pins, state, logic = nets_by_role(netlist)
    transients = {}
    for cycle in (0, CYCLES - 1, CYCLES + 3):
        lane = rng.randrange(count)
        net = rng.choice(rng.choice((pins, state, logic)))
        transients.setdefault(cycle, []).append((lane, net))

    sim = GateSimulator(netlist, lanes=lanes)
    ref = GateSimulator(netlist, lanes=lanes)
    masks = {}
    for lane, (net, value) in enumerate(faults):
        ref.force(net, value, lanes=[lane])
        set_mask, bits = masks.get(net, (0, 0))
        masks[net] = (set_mask | 1 << lane, bits | value << lane)
    sim.force_many(masks)
    assert sim._forces == ref._forces

    detections = Detections(record, count)
    segmented_replay(sim, packed, detections, transients)
    claims = step_claims(ref, netlist, program, golden, count, transients)

    assert [detections.first(lane) for lane in range(count)] \
        == [claims.get(lane) for lane in range(count)]
    assert detections.undetected == sum(
        1 << lane for lane in range(count) if lane not in claims)
    assert (sim.cycle, sim.gate_evals) == (ref.cycle, ref.gate_evals)
    assert sim.values == ref.values


@pytest.mark.parametrize("lanes", [1, 64, 65])
@both_kernels
def test_replay_stops_after_the_cycle_that_detects_every_lane(lanes):
    netlist = replay_netlist(3)
    program = random_program(netlist, random.Random(3))
    packed = PinProgram(netlist, program)
    record = GateSimulator(netlist).replay(packed, 0, CYCLES)
    out = netlist.outputs["out"][0]
    transients = {2: [(lane, out) for lane in range(lanes)]}

    sim = GateSimulator(netlist, lanes=lanes)
    detections = Detections(record, lanes)
    segmented_replay(sim, packed, detections, transients)
    assert detections.undetected == 0
    assert {detections.first(lane) for lane in range(lanes)} \
        == {(2, list(netlist.outputs).index("out"))}
    assert sim.cycle == 3
    settles = 1 + 3
    assert sim.gate_evals == settles * netlist.schedule().size
    # Nothing is left to detect: a later replay runs no cycle.
    sim.replay(packed, 3, CYCLES, detections)
    assert sim.cycle == 3


@both_kernels
def test_replay_rejects_what_does_not_fit():
    netlist = replay_netlist(0)
    other = replay_netlist(1)
    program = random_program(netlist, random.Random(0))
    packed = PinProgram(netlist, program)
    sim = GateSimulator(netlist, lanes=4)
    record = GateSimulator(netlist).replay(packed, 0, CYCLES)
    with pytest.raises(SimulationError, match="not packed for netlist"):
        sim.replay(PinProgram(other, program), 0, 1)
    with pytest.raises(SimulationError, match=r"cycles \[3, 2\) outside"):
        sim.replay(packed, 3, 2)
    with pytest.raises(SimulationError, match=r"cycles \[0, 13\) outside"):
        sim.replay(packed, 0, CYCLES + 1)
    with pytest.raises(SimulationError, match="golden run does not match"):
        sim.replay(packed, 0, 1, Detections(record[:-1], 4))
    with pytest.raises(SimulationError, match="5 lanes checked"):
        sim.replay(packed, 0, 1, Detections(record, 5))
    with pytest.raises(SimulationError, match="has no input 'nope'"):
        PinProgram(netlist, [{"nope": 1}])
    with pytest.raises(SimulationError, match="has no net -1$"):
        sim.force_many({-1: (1, 1)})
    assert (sim.cycle, sim.gate_evals) == (0, netlist.schedule().size)
