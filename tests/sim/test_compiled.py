"""Tests for compiled-code simulation and its equivalence to the
interpreted cycle scheduler (paper section 5 / Fig. 7)."""

import pytest

from repro.core import (
    BOOL,
    FSM,
    SFG,
    Clock,
    CodegenError,
    Register,
    Sig,
    System,
    TimedProcess,
    actor,
    always,
    bits,
    cnd,
    concat,
    eq,
    mux,
)
from repro.fixpt import Fx, FxFormat, Overflow, Rounding
from repro.sim import CompiledSimulator, CycleScheduler, Recorder

from tests.conftest import build_counter_system, build_hold_system, build_loop_system

pytestmark = pytest.mark.both_steps

W = FxFormat(16, 16)


def as_float(value):
    return float(value) if value is not None else None


class TestBasicCodegen:
    def test_counter(self):
        system, out, _count = build_counter_system()
        sim = CompiledSimulator(system, watch=[out])
        sim.run(5)
        assert float(sim.output(out)) == 4.0  # pre-edge value of cycle 4

    def test_source_is_python(self):
        system, out, _ = build_counter_system()
        sim = CompiledSimulator(system)
        compile(sim.source, "<test>", "exec")  # must be valid Python

    def test_snapshot(self):
        system, out, _ = build_counter_system()
        sim = CompiledSimulator(system)
        sim.run(3)
        assert float(sim.snapshot()["count"]) == 3.0

    def test_fsm_state_in_snapshot(self):
        system, pin, out, count, fsm = build_hold_system()
        sim = CompiledSimulator(system)
        sim.step({"req": 0})
        assert sim.snapshot()["ctl.state"] == "execute"

    def test_combinational_loop_rejected(self):
        clk = Clock()

        def passthrough(name):
            i, o = Sig(f"{name}_i", W), Sig(f"{name}_o", W)
            sfg = SFG(name)
            with sfg:
                o <<= i + 1
            sfg.inp(i).out(o)
            p = TimedProcess(name, clk, sfgs=[sfg])
            p.add_input("i", i)
            p.add_output("o", o)
            return p

        p1, p2 = passthrough("p1"), passthrough("p2")
        system = System("s")
        system.add(p1)
        system.add(p2)
        system.connect(p1.port("o"), p2.port("i"))
        system.connect(p2.port("o"), p1.port("i"))
        with pytest.raises(CodegenError, match="combinational loop"):
            CompiledSimulator(system)


class TestEquivalence:
    """The compiled simulator must match the interpreted scheduler bit-true."""

    def test_hold_controller_trace(self):
        requests = [0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0]

        system_i, pin_i, _out, count_i, _ = build_hold_system()
        scheduler = CycleScheduler(system_i)
        interp = []
        for req in requests:
            scheduler.step({pin_i: req})
            interp.append(float(count_i.current))

        system_c, _pin, _out, _count, _ = build_hold_system()
        sim = CompiledSimulator(system_c)
        compiled = []
        for req in requests:
            sim.step({"req": req})
            compiled.append(float(sim.snapshot()["count"]))

        assert interp == compiled

    def test_watched_signal_of_one_transition(self):
        """A plain output assigned only in the FSM's second transition
        has a token every other cycle; the compiled watch reads None in
        the cycles the cycle scheduler's channel holds none."""

        def build():
            clk = Clock()
            count = Register("count", clk, W)
            y = Sig("y", W)
            tick = SFG("tick")
            with tick:
                count <<= count + 1
            drive = SFG("drive")
            with drive:
                y <<= count * 2
            drive.out(y)
            fsm = FSM("f")
            first = fsm.initial("first")
            second = fsm.state("second")
            first << always << tick << second
            second << always << drive << first
            process = TimedProcess("p", clk, fsm=fsm)
            process.add_output("y", y)
            system = System("one_transition")
            system.add(process)
            return system, system.connect(process.port("y"), name="y")

        system_i, chan_i = build()
        scheduler = CycleScheduler(system_i)
        interp = []
        for _ in range(6):
            scheduler.step()
            interp.append(as_float(chan_i.value) if chan_i.valid else None)

        system_c, chan_c = build()
        sim = CompiledSimulator(system_c, watch=[chan_c])
        compiled = []
        for _ in range(6):
            sim.step()
            compiled.append(as_float(sim.output(chan_c)))

        assert interp == [None, 2.0, None, 4.0, None, 6.0]
        assert compiled == interp

    def test_untimed_loop(self):
        system_i, chans_i, reg_i = build_loop_system()
        CycleScheduler(system_i).run(8)

        system_c, chans_c, _reg = build_loop_system()
        sim = CompiledSimulator(system_c)
        sim.run(8)
        assert float(sim.snapshot()["data_reg"]) == float(reg_i.current)

    def test_fractional_arithmetic_bit_true(self):
        def build():
            clk = Clock()
            fmt = FxFormat(12, 4, rounding=Rounding.ROUND)
            x = Sig("x", FxFormat(8, 4))
            acc = Register("acc", clk, fmt)
            y = Sig("y", FxFormat(10, 6))
            sfg = SFG("dsp")
            with sfg:
                y <<= x * 3 - (acc >> 1)
                acc <<= acc + x
            sfg.inp(x).out(y)
            p = TimedProcess("dsp", clk, sfgs=[sfg])
            p.add_input("x", x)
            p.add_output("y", y)
            system = System("dsp_sys")
            system.add(p)
            pin = system.connect(None, p.port("x"), name="x")
            out = system.connect(p.port("y"), name="y")
            return system, pin, out, acc

        stimulus = [0.5, -1.25, 3.75, 7.9375, -8.0, 0.0625, 2.5, -0.0625]

        system_i, pin_i, out_i, acc_i = build()
        scheduler = CycleScheduler(system_i)
        recorder = Recorder(out_i)
        scheduler.monitors.append(recorder)
        for value in stimulus:
            scheduler.step({pin_i: value})
        interp_y = [v.raw for v in recorder["y"]]
        interp_acc = acc_i.current.raw

        system_c, _pin, out_c, _acc = build()
        sim = CompiledSimulator(system_c, watch=[out_c])
        compiled_y = []
        for value in stimulus:
            sim.step({"x": value})
            compiled_y.append(sim.output(out_c).raw)
        assert compiled_y == interp_y
        assert sim.snapshot()["acc"].raw == interp_acc

    def test_saturation_and_wrap_match(self):
        def build(overflow):
            clk = Clock()
            fmt = FxFormat(6, 6, overflow=overflow)
            x = Sig("x", FxFormat(8, 8))
            r = Register("r", clk, fmt)
            sfg = SFG("s")
            with sfg:
                r <<= r + x
            sfg.inp(x)
            p = TimedProcess("p", clk, sfgs=[sfg])
            p.add_input("x", x)
            p.add_output("r", r)
            system = System("sys")
            system.add(p)
            pin = system.connect(None, p.port("x"), name="x")
            system.connect(p.port("r"), name="r")
            return system, pin, r

        for overflow in (Overflow.SATURATE, Overflow.WRAP):
            stim = [20, 20, 20, -50, -50, -50]
            system_i, pin_i, reg_i = build(overflow)
            scheduler = CycleScheduler(system_i)
            for value in stim:
                scheduler.step({pin_i: value})
            system_c, _p, _r = build(overflow)
            sim = CompiledSimulator(system_c)
            for value in stim:
                sim.step({"x": value})
            assert sim.snapshot()["r"].raw == reg_i.current.raw, overflow


class TestOperators:
    """Each operator kind must compile and match the interpreter."""

    def _roundtrip(self, build_expr, fmt_in, fmt_out, stimulus):
        def build():
            clk = Clock()
            x = Sig("x", fmt_in)
            y = Sig("y", fmt_out)
            dummy = Register("dummy", clk, BOOL)
            sfg = SFG("op")
            with sfg:
                y <<= build_expr(x)
                dummy <<= dummy
            sfg.inp(x).out(y)
            p = TimedProcess("p", clk, sfgs=[sfg])
            p.add_input("x", x)
            p.add_output("y", y)
            system = System("sys")
            system.add(p)
            pin = system.connect(None, p.port("x"), name="x")
            out = system.connect(p.port("y"), name="y")
            return system, pin, out

        system_i, pin_i, out_i = build()
        scheduler = CycleScheduler(system_i)
        recorder = Recorder(out_i)
        scheduler.monitors.append(recorder)
        for value in stimulus:
            scheduler.step({pin_i: value})
        interp = [v.raw if isinstance(v, Fx) else v for v in recorder["y"]]

        system_c, _pin, out_c = build()
        sim = CompiledSimulator(system_c, watch=[out_c])
        compiled = []
        for value in stimulus:
            sim.step({"x": value})
            result = sim.output(out_c)
            compiled.append(result.raw if isinstance(result, Fx) else result)
        assert compiled == interp

    def test_mux(self):
        from repro.core import gt

        self._roundtrip(
            lambda x: mux(gt(x, 0), x, -x),
            FxFormat(8, 4), FxFormat(10, 5),
            [1.5, -2.25, 0.0, -7.5],
        )

    def test_comparison_chain(self):
        self._roundtrip(
            lambda x: eq(x, 3),
            FxFormat(8, 8), BOOL,
            [1, 3, 5, 3],
        )

    def test_abs_neg(self):
        self._roundtrip(
            lambda x: abs(x) - x,
            FxFormat(8, 4), FxFormat(10, 4),
            [1.5, -1.5, -7.9375],
        )

    def test_shifts(self):
        self._roundtrip(
            lambda x: (x << 2) + (x >> 1),
            FxFormat(8, 4), FxFormat(12, 7),
            [1.0, -2.5, 3.75],
        )

    def test_bitwise_and_slices(self):
        U8 = FxFormat(8, 8, signed=False)
        self._roundtrip(
            lambda x: (x & 0x0F) | (bits(x, 7, 4) << 4),
            U8, U8,
            [0xA5, 0x3C, 0xFF, 0x00],
        )

    def test_concat(self):
        U4 = FxFormat(4, 4, signed=False)
        U8 = FxFormat(8, 8, signed=False)
        self._roundtrip(
            lambda x: concat(bits(x, 1, 0), bits(x, 3, 2)),
            U4, U8,
            [0b1101, 0b0110],
        )

    def test_cast(self):
        from repro.core import cast

        self._roundtrip(
            lambda x: cast(x * x, FxFormat(8, 4)),
            FxFormat(8, 4), FxFormat(8, 4),
            [1.5, 2.0, -2.5],
        )


class TestPerformance:
    def test_compiled_faster_than_interpreted(self):
        """The whole point of Fig. 7: compiled ≫ interpreted."""
        import time

        def build():
            return build_counter_system()

        cycles = 3000
        system_i, _out, _count = build()
        scheduler = CycleScheduler(system_i)
        start = time.perf_counter()
        scheduler.run(cycles)
        interp_time = time.perf_counter() - start

        system_c, _out2, _count2 = build()
        sim = CompiledSimulator(system_c)
        start = time.perf_counter()
        sim.run(cycles)
        compiled_time = time.perf_counter() - start

        assert compiled_time < interp_time
