"""One-lane gate simulation in lockstep with its references.

These checks were written for the selective-trace settle, which the
native kernel replaced (DESIGN.md §21); their value assertions stay, and
each runs on both kernels.  Every net of a one-lane
:class:`GateSimulator` after every settle must equal

* a gate-by-gate reference (``ReferenceSimulator`` of the kernel tests),
* and a two-lane simulator driven with the same value on both lanes.

The seeded random netlists hold their registers while pin ``en`` is low,
so idle stretches (every pin rewritten with its old value) are quiet and
busy stretches are not.  Saboteurs, checkpoints, settles without a clock
edge and list-valued pins are mixed in; the DECT FIR, discriminator and
ALU netlists replay seeded stimulus, and scalar fault campaigns must
reproduce the lane-packed reports.
"""

import random

import pytest

from repro.core import SimulationError
from repro.synth import GateKind, GateSimulator, Netlist
from repro.synth.gates import ARITY
from repro.verify import (
    FaultCampaign, TransientFault, collapse_faults, random_stimulus,
)

from .test_gate_kernel import COMB_KINDS, ReferenceSimulator, both_kernels


def gated_netlist(seed, n_gates=80):
    """Random logic over pins and registers that hold while ``en`` is 0."""
    rng = random.Random(seed)
    nl = Netlist(f"gated{seed}")
    en = nl.add_input("en", 1)[0]
    pool = []
    for i in range(3):
        pool.extend(nl.add_input(f"in{i}", rng.randint(1, 4)))
    state = [nl.new_net(f"q{i}") for i in range(5)]
    pool.extend(state)
    kinds = COMB_KINDS + [rng.choice(COMB_KINDS)
                          for _ in range(n_gates - len(COMB_KINDS))]
    rng.shuffle(kinds)
    for kind in kinds:
        inputs = [pool[-rng.randint(1, min(8, len(pool)))]
                  if rng.random() < 0.5 else rng.choice(pool)
                  for _ in range(ARITY[kind])]
        pool.append(nl.add(kind, inputs))
    for q in state:
        d = nl.add(GateKind.MUX2, [en, rng.choice(pool), q])
        nl.add(GateKind.DFF, [d], output=q, init=rng.randint(0, 1))
    nl.set_output("out", pool[-4:])
    nl.set_output("state", state)
    return nl


class Lockstep:
    """The simulator under test, a two-lane twin and the reference."""

    def __init__(self, netlist):
        self.netlist = netlist
        self.sim = GateSimulator(netlist)
        self.level = GateSimulator(netlist, lanes=2)
        self.ref = ReferenceSimulator(netlist, 1)
        self.ref.settle()
        self.settles = 1
        self.sim.monitors.append(self._snap)
        self.snaps = []
        self.level.monitors.append(
            lambda s: self.snaps.append([v & 1 for v in s.values]))
        self.check("construction")

    def _snap(self, sim):
        self.snaps.append(list(sim.values))

    def check(self, where):
        assert self.sim.values == self.ref.values, where
        assert self.sim.values == [v & 1 for v in self.level.values], where

    def step(self, inputs, where):
        """One cycle on all three; *inputs* maps pins to int or [int]."""
        self.sim.step(inputs)
        self.level.step({name: raw * 2 if isinstance(raw, list) else raw
                         for name, raw in inputs.items()})
        for name, raw in inputs.items():
            raw = raw[0] if isinstance(raw, list) else raw
            bus = self.netlist.inputs[name]
            self.ref.drive(name, [(raw >> i) & 1 for i in range(len(bus))])
        self.ref.settle()
        self.settles += 1
        level_snap, sim_snap = self.snaps.pop(), self.snaps.pop()
        assert sim_snap == self.ref.values, where
        assert sim_snap == level_snap, where
        self.ref.clock()

    def settle_again(self, where):
        """A second settle without a clock edge."""
        self.sim._propagate()
        self.level._propagate()
        self.ref.settle()
        self.settles += 1
        self.check(where)

    def save(self):
        return (self.sim.save_state(), self.level.save_state(),
                dict(self.ref.driven))

    def restore(self, checkpoint):
        sim_state, level_state, driven = checkpoint
        self.sim.restore_state(sim_state)
        self.level.restore_state(level_state)
        self.ref.driven = dict(driven)

    def arm(self, how, net, value):
        if how == "force":
            self.sim.force(net, value)
            self.level.force(net, value)
            self.ref.force(net, value, 1)
        else:
            self.sim.flip(net)
            self.level.flip(net)
            self.ref.flip(net, 1)

    def release(self, net):
        self.sim.release(net)
        self.level.release(net)
        self.ref.release(net, 1)


#: The run: quiet stretches with a one-cycle burst every ``BURST``
#: cycles, a busy stretch from ``BUSY_FROM`` to ``BUSY_TO``, and a quiet
#: stretch up to ``CYCLES``.
BURST = 24
BUSY_FROM, BUSY_TO = 240, 280
CYCLES = 360


@pytest.mark.parametrize("seed", range(4))
@both_kernels
def test_traced_settles_match_references(seed):
    netlist = gated_netlist(seed)
    rng = random.Random(seed)
    run = Lockstep(netlist)
    sim = run.sim
    pin = rng.choice(netlist.inputs["in0"])
    q_nets = [netlist.gate_outputs[dff]
              for dff in netlist.indices(GateKind.DFF)]
    register = rng.choice(q_nets)
    internal = netlist.outputs["out"][0]
    # (cycle, saboteur, net, cycles armed): six in the first quiet
    # stretch, one of them across a burst, and two after the busy one.
    events = {
        30: ("force", pin, 3), 50: ("flip", register, 1),
        70: ("flip", internal, 1), 94: ("force", register, 3),
        130: ("force", internal, 3), 150: ("flip", pin, 1),
        300: ("force", internal, 2), 320: ("flip", register, 1),
    }
    restores = (170, 200, 340)
    releases = {}
    held = {name: 0 for name in netlist.inputs}
    checkpoint = last_registers = None
    burst = False
    for cycle in range(CYCLES):
        where = f"cycle {cycle}"
        # A checkpoint right after a clock edge that changed a register:
        # the logic reading it still holds the old value.
        registers = [sim.values[net] for net in q_nets]
        if checkpoint is None and burst and registers != last_registers:
            checkpoint = run.save()
        last_registers = registers
        if cycle in events:
            how, net, span = events[cycle]
            run.arm(how, net, 1 - sim.values[net])
            releases[cycle + span] = net
        if cycle in releases:
            run.release(releases.pop(cycle))
        if cycle in restores:
            assert checkpoint is not None
            run.restore(checkpoint)
        burst = BUSY_FROM <= cycle < BUSY_TO or (
            cycle < BUSY_FROM and cycle % BURST == BURST // 2)
        inputs = {}
        for name, bus in netlist.inputs.items():
            if name == "en":
                raw = int(burst)
            elif burst and rng.random() < 0.8:
                raw = rng.getrandbits(len(bus))
            else:
                raw = held[name]  # a quiet pin repeats its old value
            held[name] = raw
            inputs[name] = [raw] if rng.random() < 0.3 else raw
        run.step(inputs, where)
        if rng.random() < 0.1:
            run.settle_again(where + " re-settle")

    size = netlist.schedule().size
    assert sim.gate_evals == run.settles * size


def _toggle():
    """q toggles while ``en`` is 1; y buffers q."""
    nl = Netlist("toggle")
    en = nl.add_input("en", 1)[0]
    q = nl.new_net("q")
    d = nl.add(GateKind.MUX2, [en, nl.add(GateKind.INV, [q]), q])
    nl.add(GateKind.DFF, [d], output=q, init=0)
    nl.set_output("y", [nl.add(GateKind.BUF, [q])])
    return nl


@both_kernels
def test_restore_settles_every_net():
    netlist = _toggle()
    sim = GateSimulator(netlist)
    sim.step({"en": 1})
    state = sim.save_state()  # q is 1, y still shows 0
    for _ in range(3):
        sim.step({"en": 0})
    sim.restore_state(state)
    sim._propagate()
    assert sim.output("y", signed=False) == 1


@both_kernels
def test_restore_rejects_a_checkpoint_of_another_netlist():
    small, large = gated_netlist(0), gated_netlist(1, n_gates=90)
    state = GateSimulator(large).save_state()
    sim = GateSimulator(small)
    with pytest.raises(SimulationError) as err:
        sim.restore_state(state)
    assert str(err.value) == (
        f"checkpoint has {large._net_count} nets, netlist 'gated0' has "
        f"{small._net_count}")
    assert len(sim.values) == small._net_count


# -- DECT netlists --------------------------------------------------------------


@pytest.fixture(scope="module")
def dect_netlists():
    """The FIR slice, discriminator and ALU of the DECT transceiver."""
    from repro.designs.dect import build_transceiver
    from repro.synth.flow import synthesize_process

    processes = {p.name: p
                 for p in build_transceiver().system.timed_processes()}
    return {name: synthesize_process(processes[name]).netlist
            for name in ("fir0", "disc", "alu")}


@pytest.mark.parametrize("name", ["fir0", "disc", "alu"])
@both_kernels
def test_dect_replay_matches_level_kernel(dect_netlists, name):
    netlist = dect_netlists[name]
    program = [pins for pins in random_stimulus(netlist, 20, seed=17)
               for _ in range(3)]
    sim = GateSimulator(netlist)
    level = GateSimulator(netlist, lanes=2)
    snaps = []
    sim.monitors.append(lambda s: snaps.append(list(s.values)))
    level.monitors.append(
        lambda s: snaps.append([v & 1 for v in s.values]))
    for cycle, pins in enumerate(program):
        if cycle == 21:
            checkpoint = sim.save_state(), level.save_state()
        if cycle == 40:
            sim.restore_state(checkpoint[0])
            level.restore_state(checkpoint[1])
        sim.step(pins)
        level.step(pins)
        assert snaps.pop() == snaps.pop(), f"{name} cycle {cycle}"


# -- fault campaigns --------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_netlists(dect_netlists):
    from repro.designs.hcor import build_hcor
    from repro.synth.flow import synthesize_process

    return {"hcor": synthesize_process(build_hcor().process).netlist,
            "alu": dect_netlists["alu"]}


@pytest.mark.parametrize("name", ["hcor", "alu"])
@both_kernels
def test_scalar_campaign_reports_match_lane_packed(campaign_netlists, name):
    netlist = campaign_netlists[name]
    stimuli = [pins for pins in random_stimulus(netlist, 8, seed=29)
               for _ in range(4)]
    rng = random.Random(29)
    faults = rng.sample(sorted(collapse_faults(netlist).classes, key=str),
                        24)
    nets = sorted({net for inputs in netlist.gate_inputs for net in inputs})
    faults += [TransientFault(rng.choice(nets), rng.randrange(len(stimuli)))
               for _ in range(24)]
    scalar = FaultCampaign(netlist, stimuli, faults=faults).run()
    packed = FaultCampaign(netlist, stimuli, faults=faults, lanes=64).run()
    assert scalar == packed
    assert scalar.report(netlist) == packed.report(netlist)
