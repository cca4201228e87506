"""The ``elide_quantize`` pass and the compiled engines' ``engine`` pipeline.

A quantize whose shifted source range provably lies inside its format
can never saturate, wrap or raise, so the pass rewrites it into the
plain shift ``quantize_raw_at`` performs.  Checked here:

1. **The safety boundary** — for every Rounding x Overflow mode, a
   source range that exactly fits is rewritten and ranges one LSB past
   either end are not (an independent ``Fraction`` oracle confirms each
   table row); ROUND's half-LSB pushes the truncation-exact range one
   LSB past ``raw_max``.
2. **Shift directions** — positive, zero and negative shifts become
   ``ashr``, ``retag`` and ``shl``.
3. **Float-domain sources** are unknown and never rewritten.
4. **Equivalence** — rewritten and original blocks agree under
   :func:`repro.ir.ops.execute` on every leaf valuation (a raise on
   both sides counts as agreement), on the boundary blocks and on
   seeded random trees at small wordlengths.
5. **The engines** — the compiled simulators default to ``engine``,
   synthesis and HDL keep ``default``; a proved ``Overflow.ERROR``
   store leaves no ``_check_overflow`` in the generated step, an
   unproved one still raises; the DECT and HCOR steps keep at most
   26 and 1 clamps, and the DECT step converts each boundary (channel,
   format) pair once and stores nothing in the float domain.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from repro.core import (
    SFG,
    Clock,
    Register,
    Sig,
    System,
    TimedProcess,
    cast,
    gt,
    mux,
)
from repro.fixpt import FxFormat, FxOverflowError, Overflow, Rounding
from repro.ir import (
    DEFAULT_PASSES,
    ENGINE_PASSES,
    PIPELINES,
    IRBlock,
    IROp,
    PassManager,
    Store,
    check_blocks,
    elide_quantize,
    lower_sfg,
)
from repro.ir.ops import execute
from repro.lint.bits import elide_quantize_block
from repro.sim import CompiledSimulator

MODES = list(itertools.product(Rounding, Overflow))
S4 = FxFormat(4, 4)                      # raw [-8, 7] at frac 0
U4 = FxFormat(4, 4, signed=False)        # raw [0, 15] at frac 0
#: Leaf of the boundary blocks: raw [0, 63] at binary point 2.
U6F2 = FxFormat(6, 4, signed=False)
U3 = FxFormat(3, 3, signed=False)


def _target(base: FxFormat, rounding: Rounding, overflow: Overflow):
    return FxFormat(base.wl, base.iwl, base.signed, rounding, overflow)


def _range_block(lo: int, src_frac: int, fmt: FxFormat, leaf_fmt=U6F2):
    """``quantize(read(x) + lo, fmt)``: a source of raw range exactly
    ``[lo, lo + leaf range]`` at *src_frac*, with every value reachable."""
    x = Sig("x", leaf_fmt)
    y = Sig("y", fmt)
    assert leaf_fmt.frac_bits == src_frac
    block = IRBlock()
    read = block.emit(IROp("read", (), (x,), src_frac, leaf_fmt.wl + 1))
    offset = block.emit(IROp("const", (), (lo,), src_frac, 8))
    total = block.emit(IROp("add", (read, offset), (), src_frac, 9))
    quant = block.emit(IROp("quantize", (total,), (fmt,), fmt.frac_bits,
                            fmt.wl + (0 if fmt.signed else 1)))
    block.stores.append(Store(y, quant))
    return block, x


def _run(block, env):
    try:
        values = execute(block, lambda sig: env[sig])
    except FxOverflowError:
        return "raised"
    return tuple(values[s.value] for s in block.stores) + \
        tuple(values[r] for r in block.roots)


def _assert_same_everywhere(before, after, leaves):
    ranges = [range(s.fmt.raw_min, s.fmt.raw_max + 1) for s in leaves]
    for raws in itertools.product(*ranges):
        env = dict(zip(leaves, raws))
        assert _run(before, env) == _run(after, env), (
            f"rewrite diverges under leaves {raws}")


def _oracle_fits(lo: int, hi: int, src_frac: int, fmt: FxFormat) -> bool:
    """Independent check: every source raw rounds into the format."""
    for raw in range(lo, hi + 1):
        scaled = Fraction(raw, 1 << src_frac) * Fraction(2) ** fmt.frac_bits
        if fmt.rounding is Rounding.ROUND:
            scaled += Fraction(1, 2)
        if not fmt.raw_min <= math.floor(scaled) <= fmt.raw_max:
            return False
    return True


def _fitting_lo(fmt: FxFormat) -> int:
    """Low end of the frac-2 source range that exactly fills *fmt*."""
    return fmt.raw_min * 4 - (2 if fmt.rounding is Rounding.ROUND else 0)


def _pin_system(target_fmt, build, pin_fmt=U3):
    """One register fed from one input pin: ``y <<= build(a)``."""
    clk = Clock()
    a = Sig("a", pin_fmt)
    y = Register("y", clk, target_fmt)
    sfg = SFG("s")
    with sfg:
        y <<= build(a)
    sfg.inp(a)
    process = TimedProcess("p", clk, sfgs=[sfg])
    process.add_input("a", a)
    process.add_output("y", y)
    system = System("pin_sys")
    system.add(process)
    system.connect(None, process.port("a"), name="a")
    out = system.connect(process.port("y"), name="y")
    return system, out


class TestSafetyBoundary:
    @pytest.mark.parametrize("base", [S4, U4], ids=["signed", "unsigned"])
    @pytest.mark.parametrize("rounding,overflow", MODES,
                             ids=[f"{r.name}-{o.name}" for r, o in MODES])
    def test_exact_fit_is_rewritten(self, base, rounding, overflow):
        fmt = _target(base, rounding, overflow)
        lo = _fitting_lo(fmt)
        assert _oracle_fits(lo, lo + 63, 2, fmt)
        block, x = _range_block(lo, 2, fmt)
        after, changed = elide_quantize_block(block)
        assert changed
        assert "quantize" not in after.counts()
        _assert_same_everywhere(block, after, [x])

    @pytest.mark.parametrize("base", [S4, U4], ids=["signed", "unsigned"])
    @pytest.mark.parametrize("step", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("rounding,overflow", MODES,
                             ids=[f"{r.name}-{o.name}" for r, o in MODES])
    def test_one_lsb_past_is_kept(self, base, step, rounding, overflow):
        fmt = _target(base, rounding, overflow)
        lo = _fitting_lo(fmt) + step
        assert not _oracle_fits(lo, lo + 63, 2, fmt)
        block, _x = _range_block(lo, 2, fmt)
        after, changed = elide_quantize_block(block)
        assert not changed and after is block

    @pytest.mark.parametrize("overflow", list(Overflow),
                             ids=[o.name for o in Overflow])
    def test_round_pushes_the_truncation_fit_past_raw_max(self, overflow):
        truncate = _target(S4, Rounding.TRUNCATE, overflow)
        rounded = _target(S4, Rounding.ROUND, overflow)
        lo = _fitting_lo(truncate)           # source raw [-32, 31]
        assert _oracle_fits(lo, lo + 63, 2, truncate)
        assert not _oracle_fits(lo, lo + 63, 2, rounded)
        assert elide_quantize_block(_range_block(lo, 2, truncate)[0])[1]
        block, x = _range_block(lo, 2, rounded)
        after, changed = elide_quantize_block(block)
        assert not changed and after is block
        # The kept quantize really fires at the top of the range, where
        # the bare shift would give raw 8.
        assert _run(block, {x: 63}) != (8,)


class TestShiftDirections:
    def test_positive_round_shift_adds_half_an_lsb(self):
        fmt = _target(S4, Rounding.ROUND, Overflow.SATURATE)
        block, x = _range_block(_fitting_lo(fmt), 2, fmt)
        after, _ = elide_quantize_block(block)
        tail = [op.opcode for op in after.ops[-3:]]
        assert tail == ["const", "add", "ashr"]
        assert after.ops[-3].attrs == (2,)      # half of a 4-raw LSB
        _assert_same_everywhere(block, after, [x])

    def test_positive_truncate_shift_is_an_ashr(self):
        fmt = _target(S4, Rounding.TRUNCATE, Overflow.WRAP)
        block, x = _range_block(_fitting_lo(fmt), 2, fmt)
        after, _ = elide_quantize_block(block)
        assert after.ops[-1].opcode == "ashr" and after.ops[-1].attrs == (2,)
        assert after.op_count() == block.op_count()
        _assert_same_everywhere(block, after, [x])

    @pytest.mark.parametrize("overflow", list(Overflow),
                             ids=[o.name for o in Overflow])
    def test_zero_shift_is_a_retag(self, overflow):
        fmt = _target(FxFormat(5, 5), Rounding.ROUND, overflow)  # [-16, 15]
        leaf = FxFormat(4, 4, signed=False)                      # [0, 15]
        fits, x = _range_block(0, 0, fmt, leaf_fmt=leaf)
        after, changed = elide_quantize_block(fits)
        assert changed and after.ops[-1].opcode == "retag"
        _assert_same_everywhere(fits, after, [x])
        past, _ = _range_block(1, 0, fmt, leaf_fmt=leaf)         # hi 16
        assert elide_quantize_block(past)[0] is past

    @pytest.mark.parametrize("overflow", list(Overflow),
                             ids=[o.name for o in Overflow])
    def test_negative_shift_is_a_shl(self, overflow):
        fmt = _target(FxFormat(6, 4), Rounding.ROUND, overflow)  # frac 2
        leaf = FxFormat(4, 4, signed=False)                      # frac 0
        fits, x = _range_block(-8, 0, fmt, leaf_fmt=leaf)        # [-8, 7]
        after, changed = elide_quantize_block(fits)
        assert changed
        assert after.ops[-1].opcode == "shl" and after.ops[-1].attrs == (2,)
        _assert_same_everywhere(fits, after, [x])
        past, _ = _range_block(-7, 0, fmt, leaf_fmt=leaf)        # 8 << 2
        assert elide_quantize_block(past)[0] is past


class TestFloatDomain:
    @pytest.mark.parametrize("leaf_fmt", [None, U3],
                             ids=["unformatted", "formatted-float-read"])
    def test_float_source_is_never_rewritten(self, leaf_fmt):
        # A float-domain read of a signal that carries a format is how
        # the compiled engines see an untimed producer's output.
        x, y = Sig("x", leaf_fmt), Sig("y", S4)
        block = IRBlock()
        read = block.emit(IROp("read", (), (x,), None, 0))
        quant = block.emit(IROp("quantize", (read,), (S4,), 0, 4))
        block.stores.append(Store(y, quant))
        after, changed = elide_quantize_block(block)
        assert not changed and after is block

    def test_unformatted_pin_keeps_its_quantize(self):
        system, out = _pin_system(
            FxFormat(8, 8, overflow=Overflow.SATURATE), lambda a: a,
            pin_fmt=None)
        sim = CompiledSimulator(system, watch=[out])
        assert "_quantize_raw(" in sim.source
        sim.step({"a": 1000.7})
        sim.step({"a": 0})
        assert int(sim.output(out)) == 127   # the clamp still fires

    def test_untimed_outputs_keep_their_quantize(self):
        from repro.designs.dect.transceiver import build_transceiver

        for passes in ("default", "engine"):
            sim = CompiledSimulator(build_transceiver().system, passes=passes)
            pairs = sum(len(fmts) for fmts in sim.layout.formats.values())
            # Pins and untimed outputs (the scratch RAM, the coefficient
            # RAMs, the instruction ROM) are quantized once per consumer
            # format where they enter; no store is left in the float
            # domain.
            conversions = re.findall(r"(\w+) = _quantize_raw\(",
                                     sim.source)
            assert len(conversions) == \
                sim.source.count("_quantize_raw(") == pairs == 9
            assert all(re.fullmatch(r"q\d+_(pin|u)_\w+", var)
                       for var in conversions)


class TestRandomEquivalence:
    """Seeded random trees: rewritten == original on every valuation."""

    LEAF_FMTS = (FxFormat(3, 3), U3, FxFormat(4, 3))
    TARGETS = tuple(FxFormat(wl, iwl, True, r, o)
                    for wl, iwl in ((4, 4), (5, 3), (3, 4))
                    for r, o in MODES)

    def _random_expr(self, rng, leaves, depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.25:
                return rng.randrange(-2, 4)
            return rng.choice(leaves)
        kind = rng.randrange(7)
        a = self._random_expr(rng, leaves, depth - 1)
        b = self._random_expr(rng, leaves, depth - 1)
        if isinstance(a, int):
            a = rng.choice(leaves)  # keep a signal on the left
        if kind == 0:
            return a + b
        if kind == 1:
            return a - b
        if kind == 2:
            return a * b
        if kind == 3:
            return mux(gt(a, b), a, b)
        if kind == 4:
            return a >> 1
        if kind == 5:
            return cast(a * b, rng.choice(self.TARGETS))
        return cast(a + b, rng.choice(self.TARGETS))

    def _lowered_tree(self, seed):
        rng = random.Random(seed)
        a = Sig("a", rng.choice(self.LEAF_FMTS))
        b = Sig("b", rng.choice(self.LEAF_FMTS))
        y = Sig("y", rng.choice(self.TARGETS))
        sfg = SFG(f"rand{seed}")
        with sfg:
            y <<= self._random_expr(rng, [a, b], 3)
        sfg.inp(a, b).out(y)
        return lower_sfg(sfg), [a, b]

    @pytest.mark.parametrize("seed", range(24))
    def test_random_tree(self, seed):
        before, leaves = self._lowered_tree(seed)
        after, _changed = elide_quantize_block(before)
        _assert_same_everywhere(before, after, leaves)

    def test_random_trees_do_get_rewritten(self):
        rewritten = sum(elide_quantize_block(self._lowered_tree(seed)[0])[1]
                        for seed in range(24))
        assert rewritten >= 12  # 15 of the 24 seeds rewrite a quantize


class TestEngines:
    def test_engine_pipeline_registered(self):
        assert PIPELINES["engine"] is ENGINE_PASSES
        names = [name for name, _fn in ENGINE_PASSES]
        assert sorted(names) == sorted(
            [name for name, _fn in DEFAULT_PASSES] + ["elide_quantize"])
        assert dict(ENGINE_PASSES)["elide_quantize"] is elide_quantize

    def test_simulators_default_to_engine_hdl_and_synth_do_not(self):
        from repro.hdl.verilog import VerilogGenerator
        from repro.hdl.vhdl import VhdlGenerator
        from repro.synth.datapath import ExprSynthesizer

        system, _out = _pin_system(FxFormat(8, 8), lambda a: a + a)
        assert CompiledSimulator(system).pass_manager.passes == ENGINE_PASSES
        system, _out = _pin_system(FxFormat(8, 8), lambda a: a + a)
        for generator in (VhdlGenerator(system), VerilogGenerator(system)):
            assert generator.pass_manager.passes == DEFAULT_PASSES
        synthesizer = ExprSynthesizer(None, None, None)
        assert synthesizer.pass_manager.passes == DEFAULT_PASSES

    def test_proved_error_quantize_leaves_no_overflow_check(self):
        err8 = FxFormat(8, 8, overflow=Overflow.ERROR)
        system, out = _pin_system(err8, lambda a: a + a)   # [0, 14]
        sim = CompiledSimulator(system, watch=[out])
        assert "_check_overflow(" not in sim.source
        baseline = CompiledSimulator(
            _pin_system(err8, lambda a: a + a)[0], passes="default")
        assert "_check_overflow(" in baseline.source
        sim.step({"a": 7})
        sim.step({"a": 0})
        assert int(sim.output(out)) == 14

    def test_unproved_error_quantize_still_raises(self):
        err3 = FxFormat(3, 3, overflow=Overflow.ERROR)     # [-4, 3]
        system, _out = _pin_system(err3, lambda a: a + 1)  # [1, 8]
        sim = CompiledSimulator(system)
        assert "_check_overflow(" in sim.source
        sim.step({"a": 2})
        with pytest.raises(FxOverflowError):
            sim.step({"a": 3})

    def test_hcor_pipeline_proves_exhaustively(self):
        from repro.designs.hcor import build_hcor

        manager = PassManager("engine", validate="exhaustive")
        for sfg in build_hcor().process.all_sfgs():
            before = lower_sfg(sfg)
            after = manager.run(before)
            assert check_blocks(before, after, mode="exhaustive").equivalent
        stats = manager.stats["elide_quantize"]
        assert stats["changed"] > 0 and stats["validated"] == stats["changed"]

    @pytest.mark.parametrize("design,limit", [("hcor", 1), ("dect", 26)])
    def test_generated_step_clamp_counts(self, design, limit):
        if design == "hcor":
            from repro.designs.hcor import build_hcor

            def build():
                return build_hcor().system
        else:
            from repro.designs.dect.transceiver import build_transceiver

            def build():
                return build_transceiver().system
        default = CompiledSimulator(build(), passes="default")
        engine = CompiledSimulator(build())
        # SATURATE renders as compare-and-branch, one walrus per clamp.
        clamps = engine.source.count("(_q := ")
        assert clamps <= limit < default.source.count("(_q := ")
        assert "min(max(" not in engine.source + default.source
        assert engine.ir_op_count < default.ir_op_count
