"""Acceptance: zero lockstep divergence on the DECT transceiver with
the IR pass pipeline enabled.

The full 22-datapath VLIW machine runs its burst program while the
interpreted scheduler and the IR-optimized compiled simulator are
compared on every producer channel, every cycle.
"""

import random

import pytest

from repro.designs.dect import formats as F
from repro.designs.dect.transceiver import build_transceiver
from repro.fixpt import Fx
from repro.verify import CompiledAdapter, CycleAdapter, Lockstep

pytestmark = pytest.mark.both_steps

CYCLES = 150


def _stimulus():
    rng = random.Random(1998)
    stim = []
    for cycle in range(CYCLES):
        stim.append({
            "sample_i": Fx(rng.uniform(-3.5, 3.5), F.SAMPLE),
            "sample_q": Fx(rng.uniform(-3.5, 3.5), F.SAMPLE),
            "hold_request": Fx(0, F.BIT),
            "ctl_coef_re": Fx(rng.uniform(-1.0, 1.0), F.COEF),
            "ctl_coef_im": Fx(rng.uniform(-1.0, 1.0), F.COEF),
        })
    return stim


def test_transceiver_lockstep_with_passes():
    stim = _stimulus()

    def interpreted():
        return CycleAdapter(build_transceiver().system)

    def compiled_opt():
        return CompiledAdapter(build_transceiver().system)

    div = Lockstep(interpreted, compiled_opt, stim).run()
    assert div is None, f"IR passes diverged on the transceiver: {div}"


def test_transceiver_passes_shrink_program():
    from repro.sim import CompiledSimulator

    sim = CompiledSimulator(build_transceiver().system)
    assert sim.ir_op_count < sim.ir_op_count_raw
