"""The DECT ALU and LMS lanes through their RAMs on every clocked engine.

The burst program issues no ALU instruction and no LMS update, so the
paths from the scratch RAM into the ALU registers and from the
coefficient RAMs into the LMS outputs, the values that enter the
compiled step at an untimed output, never run in it.  This program
issues every one of the 57 ALU instructions around a scratch-RAM write
and its read-back, and a LOADE/UPDRE/UPDIM/WR update of four
coefficient taps, with the RAMs preloaded past their consumers'
formats.  The cycle scheduler runs it in lockstep with the compiled
engine and with the event engine, compared on every producer channel
every cycle; every RAM then holds the same words after the same number
of writes.
"""

import random

import pytest

from repro.designs.dect import formats as F
from repro.designs.dect.irom import Program
from repro.designs.dect.program import ALL_FIR_SHIFT
from repro.designs.dect.transceiver import build_transceiver
from repro.fixpt import Fx
from repro.verify import CompiledAdapter, CycleAdapter, EventAdapter, Lockstep

pytestmark = pytest.mark.both_steps

#: Scratch word 2 lies past WORD16: the ALU must read it saturated.
SCRATCH = [0, 0, 40000.0, -7]
#: Coefficient taps, one past COEF's range (-4, 4).
COEF_RE = [0.3, -1.2, 5.0, 0.7]
COEF_IM = [-0.5, 0.9, -2.1, 3.99]


def _program() -> Program:
    program = Program()
    program.step(coefadr="CLR", disc="CLR", lms="CLR",
                 **{f"fir{i}": "CLRD" for i in range(4)})
    push = dict(io_i="LOAD", io_q="LOAD", agc="PASS", disc="SOFTRAW",
                **ALL_FIR_SHIFT)
    for _ in range(16):                       # fill the FIR delay line
        program.step(**push)
    for _ in range(4):                        # one tap per five words
        program.step(lms="LOADE", **push)
        program.step(lms="UPDRE")
        program.step(lms="UPDIM")
        program.step(lms="WR")
        program.step(coefadr="INC")
    # From reset (every register 0): r0 = 2, r3 = 1, then the flag
    # (the scratch write enable) is 1 for two cycles, writing r0 = 2
    # and 3 to scratch[1].  PASS1/PASS2 read the 3 back; PASS0/PASS3
    # read the saturated preload of scratch[2].
    for op in ["INC0", "INC0", "INC3", "CMPEQ1", "INC0", "CMPLT0",
               "PASS1", "PASS2", "INC3", "PASS0", "PASS3"]:
        program.step(alu=op)
    for op in F.ALU_OPS:
        program.step(alu=op)
    program.label("idle")
    program.step(pc_op="JMP", target="idle")
    return program


def _stimulus(cycles):
    rng = random.Random(2026)
    return [{
        "sample_i": Fx(rng.uniform(-3.5, 3.5), F.SAMPLE),
        "sample_q": Fx(rng.uniform(-3.5, 3.5), F.SAMPLE),
        "hold_request": 0,
        "ctl_coef_re": 0.0,
        "ctl_coef_im": 0.0,
    } for _ in range(cycles)]


class _Recording(CompiledAdapter):
    """The compiled adapter, keeping every observation."""

    def __init__(self, system):
        super().__init__(system)
        self.trace = []

    def observe(self):
        observation = super().observe()
        self.trace.append(observation)
        return observation


def _lockstep(other):
    """Run the program on the cycle scheduler in lockstep with *other*;
    the two chips and adapters."""
    program = _program()
    chips, adapters = [], []

    def build(adapter):
        def make():
            chip = build_transceiver(program=program)
            chip.rams["scratch"].load(SCRATCH)
            chip.rams["coef_re"].load(COEF_RE)
            chip.rams["coef_im"].load(COEF_IM)
            chips.append(chip)
            adapters.append(adapter(chip.system))
            return adapters[-1]
        return make

    stimulus = _stimulus(len(program) + 4)
    divergence = Lockstep(build(CycleAdapter), build(other),
                          stimulus).run()
    assert divergence is None, str(divergence)
    return chips, adapters, stimulus


def test_alu_and_lms_ram_paths_in_lockstep():
    chips, adapters, stimulus = _lockstep(_Recording)

    interpreted, compiled = chips
    for chip in chips:
        # The write paths ran: two scratch writes in the preamble and
        # two set up by the sweep's compares, four taps per RAM.
        assert chip.rams["scratch"].writes == 4
        assert chip.rams["coef_re"].writes == chip.rams["coef_im"].writes \
            == 4
        assert all(p.firings == len(stimulus)
                   for p in chip.system.untimed_processes())
    for name in ("scratch", "coef_re", "coef_im"):
        assert [float(v) for v in interpreted.rams[name].dump()] == \
            [float(v) for v in compiled.rams[name].dump()]
    # The read paths ran: the written 3 and the saturated preload came
    # back into the ALU, and the updated taps differ from their reads.
    trace = adapters[1].trace
    assert any(o["alu_r1"] == o["alu_r2"] == 3 for o in trace)
    assert any(o["alu_r0"] == 32767 for o in trace)
    written = [float(v) for v in compiled.rams["coef_re"].dump()[:4]]
    assert written != COEF_RE and written[2] < 4


def test_event_engine_ram_paths_match():
    """The event engine writes each RAM once per cycle, at the clock
    edge, from the settled nets: the same words and write counts."""
    (interpreted, event), _adapters, stimulus = _lockstep(EventAdapter)
    for name, ram in interpreted.rams.items():
        other = event.rams[name]
        assert [(type(t), t) for t in ram.dump()] == \
            [(type(t), t) for t in other.dump()], name
        assert (other.writes, other.firings) == \
            (ram.writes, len(stimulus)), name
    assert interpreted.rams["scratch"].writes == 4
