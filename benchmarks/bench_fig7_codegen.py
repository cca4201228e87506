"""Figure 7 — code generation and simulation strategy.

The dual-path claim: the same control/data-flow data structure drives
(a) an interpreted simulator, (b) a regenerated, compiled simulator used
for extensive verification, and (c) HDL code generation.  Benchmarks
measure the codegen cost, the compiled-vs-interpreted speedup across
design sizes, and the equivalence of the two paths.
"""

import pytest

from repro.core import SFG, Clock, Register, Sig, System, TimedProcess
from repro.fixpt import FxFormat
from repro.hdl import generate_verilog, generate_vhdl
from repro.sim import CompiledSimulator, CycleScheduler

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from common import _timed_rate  # noqa: E402

W = FxFormat(16, 8)


def datapath_system(n_ops: int):
    """A single component with an n-operation arithmetic pipeline."""
    clk = Clock()
    x = Sig("x", W)
    regs = [Register(f"r{i}", clk, W, init=i % 5) for i in range(n_ops)]
    sfg = SFG("dp")
    with sfg:
        for i, reg in enumerate(regs):
            source = x if i == 0 else regs[i - 1]
            if i % 3 == 0:
                reg <<= source + reg
            elif i % 3 == 1:
                reg <<= source * 2 - reg
            else:
                reg <<= (source >> 1) + (reg << 1)
    sfg.inp(x)
    process = TimedProcess("dp", clk, sfgs=[sfg])
    process.add_input("x", x)
    process.add_output("y", regs[-1])
    system = System(f"dp{n_ops}")
    system.add(process)
    pin = system.connect(None, process.port("x"), name="x")
    system.connect(process.port("y"), name="y")
    return system, pin, regs


class TestEquivalence:
    @pytest.mark.parametrize("size", [4, 32])
    def test_compiled_matches_interpreted(self, size):
        system_i, pin_i, regs_i = datapath_system(size)
        scheduler = CycleScheduler(system_i)
        for value in range(40):
            scheduler.step({pin_i: value % 13})
        system_c, _pin, _regs = datapath_system(size)
        simulator = CompiledSimulator(system_c)
        for value in range(40):
            simulator.step({"x": value % 13})
        snapshot = simulator.snapshot()
        for reg in regs_i:
            assert snapshot[reg.name].raw == reg.current.raw, reg.name


class TestGeneratedArtifacts:
    def test_all_three_outputs_from_one_structure(self):
        """One captured structure => compiled sim + VHDL + Verilog."""
        system, _pin, _regs = datapath_system(8)
        simulator = CompiledSimulator(system)
        vhdl = generate_vhdl(system)
        verilog = generate_verilog(system)
        # The step that runs, in its backend's spelling; the Python
        # reference is rendered either way.
        if simulator.backend == "native":
            assert "step(Step *self, PyObject *const *args" \
                in simulator.c_source
        assert "def step(" in simulator.source
        assert any("entity dp is" in text for text in vhdl.values())
        assert any("module dp (" in text for text in verilog.values())


@pytest.mark.parametrize("size", [8, 64])
def test_bench_codegen_cost(benchmark, size):
    """Generating + compiling the specialized simulator is cheap."""
    system, _pin, _regs = datapath_system(size)
    benchmark.pedantic(lambda: CompiledSimulator(system),
                       rounds=3, iterations=1)


@pytest.mark.parametrize("size", [8, 64])
def test_bench_interpreted_step(benchmark, size):
    system, pin, _regs = datapath_system(size)
    scheduler = CycleScheduler(system)
    inputs = {pin: 3}
    benchmark(lambda: scheduler.step(inputs))


@pytest.mark.parametrize("size", [8, 64])
def test_bench_compiled_step(benchmark, size):
    system, _pin, _regs = datapath_system(size)
    simulator = CompiledSimulator(system)
    pins = {"x": 3}
    benchmark(lambda: simulator.step(pins))


def test_speedup_grows_with_design_size():
    """The compiled advantage grows as designs get bigger, because the
    interpreted scheduler re-walks the data structure each cycle.  The
    compiled row is the native step where the host builds it."""
    ratios = {}
    for size in (8, 64):
        system_i, pin_i, _r = datapath_system(size)
        scheduler = CycleScheduler(system_i)
        interp = _timed_rate(lambda: scheduler.step({pin_i: 3}),
                             min_seconds=0.3)
        system_c, _pin, _r2 = datapath_system(size)
        simulator = CompiledSimulator(system_c)
        pins = {"x": 3}
        compiled = _timed_rate(lambda: simulator.step(pins), min_seconds=0.3)
        ratios[size] = compiled / interp
    assert ratios[8] > 3
    assert ratios[64] > ratios[8]
