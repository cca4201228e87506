"""Engine checkpoints carry every memory's contents.

A RAM's words are simulation state as much as its registers: a restore
that rewound the registers but kept the words would replay a run whose
reads see writes from its own future.  Both the cycle scheduler and the
compiled engine record each :class:`~repro.core.Ram`'s contents in
``save_state`` and write them back in place in ``restore_state``, into
the engine that saved them or into a fresh engine of a fresh design.
"""

import pytest

from repro.designs.dect import build_transceiver
from repro.designs.dect.irom import Program
from repro.verify import CompiledAdapter, CycleAdapter, checkpoint, restore

PINS = {"sample_i": 0.5, "sample_q": -0.25, "hold_request": 0,
        "ctl_coef_re": 0.0, "ctl_coef_im": 0.0}

#: Each engine's lockstep adapter and the attribute holding the engine.
ENGINES = {"interpreted": (CycleAdapter, "scheduler"),
           "compiled": (CompiledAdapter, "sim")}


def _build(kind, program=None):
    """A fresh DECT chip, its engine's adapter and the engine."""
    chip = build_transceiver(program=program)
    adapter_class, attribute = ENGINES[kind]
    adapter = adapter_class(chip.system)
    return chip, adapter, getattr(adapter, attribute)


def _run(adapter, cycles):
    for _ in range(cycles):
        adapter.step(PINS)


def _contents(chip):
    return {name: ram.dump() for name, ram in chip.rams.items()}


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_restore_writes_every_memory_back(kind):
    chip, adapter, engine = _build(kind)
    _run(adapter, 120)
    saved = _contents(chip)
    assert any(saved["samp_i"])
    snap = checkpoint(engine)
    _run(adapter, 180)
    assert _contents(chip) != saved
    restore(engine, snap)
    assert _contents(chip) == saved


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_restore_into_a_fresh_engine_of_a_fresh_design(kind):
    chip, adapter, engine = _build(kind)
    _run(adapter, 120)
    saved = _contents(chip)
    snap = checkpoint(engine)

    fresh, fresh_adapter, fresh_engine = _build(kind)
    restore(fresh_engine, snap)
    assert _contents(fresh) == saved
    for _ in range(60):
        adapter.step(PINS)
        fresh_adapter.step(PINS)
        assert fresh_adapter.observe() == adapter.observe()
    assert _contents(fresh) == _contents(chip)


def _scratch_program():
    """From reset: r0 = 2, r3 = 1, then two scratch[1] writes (2, 3)."""
    program = Program()
    for op in ("INC0", "INC0", "INC3", "CMPEQ1", "INC0", "CMPLT0", "PASS1",
               "PASS2"):
        program.step(alu=op)
    program.label("idle")
    program.step(pc_op="JMP", target="idle")
    return program


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_replay_from_before_a_scratch_write_reads_what_a_fresh_run_reads(
        kind):
    program = _scratch_program()
    cycles = len(program) + 4

    def reads(adapter):
        values = []
        for _ in range(cycles):
            adapter.step(PINS)
            values.append(adapter.observe()["scratch_q"])
        return values

    chip, adapter, _engine = _build(kind, program)
    fresh = reads(adapter)
    assert chip.rams["scratch"].writes == 2
    assert 0 in fresh and 3 in fresh

    chip, adapter, engine = _build(kind, program)
    snap = checkpoint(engine)
    reads(adapter)
    assert chip.rams["scratch"].dump()[1] == 3
    restore(engine, snap)
    assert reads(adapter) == fresh
