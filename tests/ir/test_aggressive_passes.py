"""The aggressive pipeline: strength reduction and mux restructuring.

Golden per-pass tests on hand-built blocks (histogram before/after plus
bit-exact equivalence), fixpoint/idempotence of the whole pipeline, and
the acceptance differential: 12 seeded random systems run through the
interpreted, compiled and gate-level engines with the aggressive
pipeline on and translation validation active.
"""

import random

import pytest

from repro.core import Clock, Sig
from repro.fixpt import Fx, FxFormat
from repro.ir import (
    AGGRESSIVE_PASSES,
    IRBlock,
    IROp,
    PassManager,
    Store,
    check_blocks,
    dce,
    resolve_pipeline,
    restructure_mux,
    strength_reduce,
)
from repro.verify import CompiledAdapter, CycleAdapter, GateAdapter, Lockstep

from tests.ir.test_random_differential import _stimulus, build_random_system

F84 = FxFormat(8, 4)
X_SIG = Sig("x", F84)
Y_SIG = Sig("y", FxFormat(16, 8))


def _finish(block: IRBlock, vid: int) -> IRBlock:
    block.stores.append(Store(Y_SIG, vid))
    return block


def _x(block: IRBlock) -> int:
    return block.emit(IROp("read", (), (X_SIG,), 4, 8))


class TestStrengthReduce:
    def _mul_by(self, const_raw: int) -> IRBlock:
        block = IRBlock()
        x = _x(block)
        c = block.emit(IROp("const", (), (const_raw,), 0, 8))
        return _finish(block, block.emit(IROp("mul", (x, c), (), 4, 16)))

    def test_csd_decomposition_replaces_mul(self):
        before = self._mul_by(10)  # 10 = 8 + 2: two shifts, one add
        after, changed = strength_reduce(before)
        after, _ = dce(after)
        assert changed
        counts = after.counts()
        assert "mul" not in counts
        assert counts.get("shl", 0) >= 2
        assert check_blocks(before, after, mode="exhaustive").equivalent

    def test_csd_uses_two_terms_for_dense_constants(self):
        before = self._mul_by(7)  # 7 = 8 - 1: two CSD terms, not three
        after, changed = strength_reduce(before)
        after, _ = dce(after)
        assert changed
        counts = after.counts()
        assert "mul" not in counts
        assert counts.get("add", 0) + counts.get("sub", 0) == 1
        assert check_blocks(before, after, mode="exhaustive").equivalent

    def test_negative_constant(self):
        before = self._mul_by(-4)
        after, changed = strength_reduce(before)
        after, _ = dce(after)
        assert changed
        assert "mul" not in after.counts()
        assert check_blocks(before, after, mode="exhaustive").equivalent

    def test_wide_constant_left_alone(self):
        # 0b01010101 needs 4 CSD terms: above the default budget.
        before = self._mul_by(0b1010101)
        after, changed = strength_reduce(before, max_terms=3)
        assert not changed

    def test_power_of_two_left_to_algebraic_simplify(self):
        before = self._mul_by(8)
        after, changed = strength_reduce(before)
        assert not changed


class TestRestructureMux:
    def _chain(self, opcode: str) -> IRBlock:
        """mux(s1, f(a,b), mux(s2, f(c,d), 0)) with honest labels."""
        block = IRBlock()
        leaves = [block.emit(IROp("read", (), (Sig(n, F84),), 4, 8))
                  for n in "abcd"]
        frac = 8 if opcode == "mul" else 4
        width = 16 if opcode == "mul" else 9
        f1 = block.emit(IROp(opcode, (leaves[0], leaves[1]), (), frac, width))
        f2 = block.emit(IROp(opcode, (leaves[2], leaves[3]), (), frac, width))
        sel_sig = Sig("sel", FxFormat(4, 4, signed=False))
        sel = block.emit(IROp("read", (), (sel_sig,), 0, 4))
        one = block.emit(IROp("const", (), (1,), 0, 2))
        two = block.emit(IROp("const", (), (2,), 0, 2))
        s1 = block.emit(IROp("cmp", (sel, one), ("==",), 0, 2))
        s2 = block.emit(IROp("cmp", (sel, two), ("==",), 0, 2))
        zero = block.emit(IROp("const", (), (0,), frac, 2))
        inner = block.emit(IROp("mux", (s2, f2, zero), (), frac, width))
        outer = block.emit(IROp("mux", (s1, f1, inner), (), frac, width))
        return _finish(block, outer)

    @pytest.mark.parametrize("opcode", ["add", "sub", "mul"])
    def test_chain_hoist_leaves_one_operator(self, opcode):
        before = self._chain(opcode)
        after, changed = restructure_mux(before)
        after, _ = dce(after)
        assert changed
        assert after.counts().get(opcode) == 1
        assert check_blocks(before, after, mode="sampled",
                            seed=5, trials=200).equivalent

    def test_bool_mux_collapses_to_selector(self):
        block = IRBlock()
        x = _x(block)
        c = block.emit(IROp("const", (), (3,), 4, 8))
        s = block.emit(IROp("cmp", (x, c), ("<",), 0, 2))
        one = block.emit(IROp("const", (), (1,), 0, 2))
        zero = block.emit(IROp("const", (), (0,), 0, 2))
        m = block.emit(IROp("mux", (s, one, zero), (), 0, 2))
        before = _finish(block, m)
        after, changed = restructure_mux(before)
        after, _ = dce(after)
        assert changed
        assert "mux" not in after.counts()
        assert check_blocks(before, after, mode="exhaustive").equivalent

    def test_nested_same_selector_collapses(self):
        block = IRBlock()
        a = _x(block)
        b = block.emit(IROp("read", (), (Sig("b", F84),), 4, 8))
        c = block.emit(IROp("const", (), (3,), 4, 8))
        s = block.emit(IROp("cmp", (a, c), ("<",), 0, 2))
        inner = block.emit(IROp("mux", (s, a, b), (), 4, 8))
        outer = block.emit(IROp("mux", (s, inner, b), (), 4, 8))
        before = _finish(block, outer)
        after, changed = restructure_mux(before)
        after, _ = dce(after)
        assert changed
        assert after.counts().get("mux") == 1
        assert check_blocks(before, after, mode="exhaustive").equivalent


class TestPipeline:
    def test_registry_resolves_names(self):
        assert resolve_pipeline("aggressive") == tuple(AGGRESSIVE_PASSES)
        with pytest.raises(ValueError):
            resolve_pipeline("no-such-pipeline")

    def test_aggressive_pipeline_is_idempotent(self):
        chain = TestRestructureMux()._chain("sub")
        once = PassManager("aggressive").run(chain)
        twice = PassManager("aggressive").run(once)
        assert [op.opcode for op in twice.ops] == \
            [op.opcode for op in once.ops]


DIFFERENTIAL_CYCLES = 60


@pytest.mark.parametrize("seed", range(12))
def test_four_engines_agree_with_aggressive_pipeline(seed):
    """Interpreted, compiled and gate-level lockstep, aggressive pipeline
    on and translation validation sampling every pass."""
    from repro.synth import synthesize_process

    stim = _stimulus(seed, build_random_system(seed)[1])[:DIFFERENTIAL_CYCLES]

    def interpreted():
        return CycleAdapter(build_random_system(seed)[0])

    def compiled_aggressive():
        return CompiledAdapter(build_random_system(seed)[0],
                               name="compiled_aggressive",
                               passes="aggressive", validate="sampled")

    def gate_aggressive():
        system, _fmt = build_random_system(seed)
        process = system.timed_processes()[0]
        synthesis = synthesize_process(process, passes="aggressive",
                                       validate="off")
        return GateAdapter.from_synthesis(synthesis, name="gate_aggressive")

    reference = Lockstep(interpreted, compiled_aggressive, stim).run()
    assert reference is None, f"seed {seed}: compiled diverged: {reference}"
    gate = Lockstep(interpreted, gate_aggressive, stim).run()
    assert gate is None, f"seed {seed}: gate level diverged: {gate}"
