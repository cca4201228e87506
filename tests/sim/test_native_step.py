"""The native compiled step against the Python step it is spelled from.

One schedule walk renders every :class:`~repro.sim.CompiledSimulator`'s
step twice, as Python and as a CPython extension module in C (DESIGN.md
§24).  Here the two spellings run in lockstep over a chip-paced DECT
burst and an HCOR stream, compared every cycle on every channel, the
registers, every RAM word and every untimed process's counters; a
checkpoint of one restores into the other; errors leave both at the
same cycle with the same exception; and each condition under which the
Python step runs instead is checked.
"""

import shutil
import sysconfig
import time
import warnings
from contextlib import nullcontext
from operator import is_not
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    FSM, SFG, Clock, FxOverflowError, Ram, Register, Sig, SimulationError,
    System, TimedProcess, actor, always, cast, cnd, gt,
)
from repro.designs.dect import DectTransceiver, build_transceiver
from repro.designs.hcor import build_hcor
from repro.dsp import (
    ComplexLmsEqualizer, build_burst, modulate, random_payloads,
)
from repro.dsp.dect import SYNC_RFP
from repro.fixpt import Fx, FxFormat, Overflow
from repro.obs import Capture
from repro.sim import CompiledSimulator, cbuild, compiled
from repro.sim.compiled import _python_step

from tests.conftest import build_counter_system, build_hold_system

needs_compiler = pytest.mark.skipif(
    shutil.which(cbuild._COMPILER) is None, reason="no C compiler")


def _simulator(system, python, **kwargs):
    """A compiled simulator of *system* on the Python step or not."""
    with _python_step() if python else nullcontext():
        return CompiledSimulator(system, **kwargs)


def _pair(build):
    """A native and a Python simulator of two instances of one design,
    every channel watched, with their designs."""
    designs = [build(), build()]
    sims = [_simulator(design.system, python,
                       watch=list(design.system.channels))
            for design, python in zip(designs, (False, True))]
    return designs, sims


#: Format -> a comparable key, by identity (the format kept alive).
_FORMAT_KEYS = {}


def _token(value):
    """A token as a comparable (type, raw value, format) triple."""
    if value.__class__ is Fx:
        fmt = value.fmt
        seen = _FORMAT_KEYS.get(id(fmt))
        if seen is None:
            seen = _FORMAT_KEYS[id(fmt)] = (fmt, (
                fmt.wl, fmt.iwl, fmt.signed, fmt.rounding, fmt.overflow))
        return ("Fx", value.raw, seen[1])
    return (type(value).__name__, value, None)


class _Observer:
    """Everything a cycle of one simulator leaves behind, comparably.

    A RAM word changes only by a write, which stores a new token: each
    look re-reads the words whose token object changed since the last.
    """

    def __init__(self, design, sim):
        self.sim = sim
        self.untimed = design.system.untimed_processes()
        self.rams = sim.layout.memories
        self.seen = [list(ram.data) for ram in self.rams]
        self.words = [[_token(t) for t in ram.data] for ram in self.rams]

    def __call__(self):
        for ram, seen, words in zip(self.rams, self.seen, self.words):
            data = ram.data
            if any(map(is_not, data, seen)):
                for index, (token, old) in enumerate(zip(data, seen)):
                    if token is not old:
                        seen[index] = token
                        words[index] = _token(token)
        sim = self.sim
        return {
            "outputs": {name: _token(v) for name, v in sim.outputs.items()},
            "snapshot": {name: _token(v)
                         for name, v in sim.snapshot().items()},
            "memories": self.words,
            "counts": [(p.firings, getattr(p, "writes", None))
                       for p in self.untimed],
        }


def _lockstep(designs, sims, program):
    observers = [_Observer(d, s) for d, s in zip(designs, sims)]
    for cycle, pins in enumerate(program):
        for sim in sims:
            sim.step(pins)
        native, python = (observe() for observe in observers)
        assert native == python, f"cycle {cycle}"
    for ram_a, ram_b in zip(*(s.layout.memories for s in sims)):
        assert [_token(t) for t in ram_a.dump()] == \
            [_token(t) for t in ram_b.dump()], ram_a.name


def _dect_program(seed, cycles=6000):
    """A chip-paced DECT burst: the pins of every cycle, paced by the
    LOAD acks of a Python-step run."""
    rng = np.random.default_rng(seed)
    a_payload, b_payload = random_payloads(rng)
    burst = build_burst(a_payload, b_payload)
    samples = modulate(burst.bits, 8)
    equalizer = ComplexLmsEqualizer()
    equalizer.train(samples, burst.bits[:32])
    coefficients = DectTransceiver.chip_coefficients(equalizer.weights)
    grid = list(samples[::4])
    chip = build_transceiver()
    sim = _simulator(chip.system, python=True, watch=[chip.ack, chip.pc])
    done_pc = len(chip.irom.words) - 1
    pointer = coef_index = 0
    program = []
    for _cycle in range(cycles):
        sample = grid[pointer] if pointer < len(grid) else 0j
        coef = coefficients[min(coef_index, len(coefficients) - 1)]
        pins = {"sample_i": float(sample.real),
                "sample_q": float(sample.imag), "hold_request": 0,
                "ctl_coef_re": float(coef.real),
                "ctl_coef_im": float(coef.imag)}
        program.append(pins)
        sim.step(pins)
        pointer += int(sim.output(chip.ack))
        coef_index = int(sim.snapshot()["coefadr_addr"])
        if int(sim.output(chip.pc)) == done_pc and pointer > 16:
            break
    return program


def _hcor_program(seed, bursts=3):
    """Soft symbols on the s<6,3> grid: noise, then sync words."""
    rng = np.random.default_rng(seed)
    eighths = []
    for _ in range(bursts):
        eighths.extend(rng.integers(-8, 9, size=40).tolist())
        eighths.extend((8 if bit else -8) + int(rng.integers(-1, 2))
                       for bit in SYNC_RFP)
        eighths.extend(rng.integers(-8, 9, size=400).tolist())
    return [{"soft": value / 8} for value in eighths]


@pytest.fixture(scope="module")
def dect_program():
    return _dect_program(5)


@needs_compiler
class TestLockstep:
    def test_dect_burst(self, dect_program):
        designs, sims = _pair(build_transceiver)
        assert [s.backend for s in sims] == ["native", "python"]
        _lockstep(designs, sims, dect_program)
        # The burst ran to its end: the decoded fields were written.
        rams = {ram.name: ram for ram in sims[0].layout.memories}
        assert rams["out_a"].writes and rams["out_b"].writes

    def test_hcor_stream(self):
        designs, sims = _pair(build_hcor)
        assert [s.backend for s in sims] == ["native", "python"]
        program = _hcor_program(3)
        _lockstep(designs, sims, program)
        assert sims[0].cycle == len(program)

    def test_checkpoints_restore_across_spellings(self, dect_program):
        designs, sims = _pair(build_transceiver)
        native, python = sims
        head, tail = dect_program[:300], dect_program[300:700]
        for pins in head:
            native.step(pins)
        saved = native.save_state()
        # The native checkpoint restores into the Python step and the
        # Python one into a fresh native step: both continue alike.
        python.restore_state(saved)
        for pins in tail[:150]:
            python.step(pins)
        back = python.save_state()
        fresh = CompiledSimulator(build_transceiver().system)
        fresh.restore_state(back)
        native.restore_state(back)
        assert fresh.backend == "native"
        assert fresh.snapshot() == native.snapshot() == python.snapshot()
        for pins in tail[150:]:
            fresh.step(pins)
            python.step(pins)
            assert fresh.save_state()["state"] == \
                python.save_state()["state"]
        assert fresh.cycle == python.cycle == len(dect_program[:700])

    def test_model_names_shadowing_runtime_and_header_names(self):
        designs, sims = _pair(_shadowing_names)
        assert [s.backend for s in sims] == ["native", "python"]
        source = sims[0].c_source
        for name in ("s_firings", "s_writes", "s_get", "s_raw", "s_fmt",
                     "s_frac_bits", "pin_get", "_atime"):
            assert name in source, name
        _lockstep(designs, sims, [{"get": k % 5} for k in range(24)])
        ram = sims[0].layout.memories[0]
        assert ram.firings == 24 and ram.writes == 12

    def test_two_live_simulators_keep_their_own_state(self, dect_program):
        first = CompiledSimulator(build_transceiver().system)
        for pins in dect_program[:100]:
            first.step(pins)
        before = first.save_state()
        # A second build of the design loads the same module: a new
        # step of its own, from reset.
        second = CompiledSimulator(build_transceiver().system)
        assert second.backend == first.backend == "native"
        assert first.save_state() == before
        reference = _simulator(build_transceiver().system, python=True)
        assert second.save_state() == reference.save_state()
        for pins in dect_program[:40]:
            second.step(pins)
            reference.step(pins)
        assert second.save_state() == reference.save_state()
        assert first.save_state() == before


def _shadowing_names():
    """A design whose step variables are named like the runtime's
    interned names and pin lookup (``s_firings``, ``s_writes``,
    ``pin_get``), with a RAM that bumps ``firings`` and ``writes``, and
    an FSM process named after a ``struct stat`` field that the system
    headers define as a macro (``st_atime``)."""
    byte = FxFormat(8, 8, overflow=Overflow.WRAP)
    clk = Clock()
    x = Sig("x", byte)
    q = Sig("q", byte)
    acc = Register("acc", clk, byte)
    addr = Register("addr", clk, byte)
    we = Register("we", clk, FxFormat(1, 1, signed=False))
    plain = {name: Sig(name, byte) for name in (
        "firings", "writes", "get", "raw", "fmt", "frac_bits")}
    work = SFG("work")
    with work:
        plain["firings"] <<= x + acc
        plain["writes"] <<= plain["firings"] + q
        plain["get"] <<= plain["writes"] + 1
        plain["raw"] <<= plain["get"] + 2
        plain["fmt"] <<= plain["raw"] + 3
        plain["frac_bits"] <<= plain["fmt"] + 4
        acc <<= plain["frac_bits"]
        addr <<= addr + 1
        we <<= 1 - we
    work.inp(x, q)
    fsm = FSM("ctl")
    even = fsm.initial("even")
    odd = fsm.state("odd")
    even << always << work << odd
    odd << always << work << even
    process = TimedProcess("atime", clk, fsm=fsm)
    process.add_input("x", x)
    process.add_input("q", q)
    for name, sig in (("addr", addr), ("we", we), ("acc", acc)):
        process.add_output(name, sig)
    ram = Ram("m", depth=4)
    system = System("shadowing")
    system.add(process)
    system.add(ram)
    system.connect(None, process.port("x"), name="get")
    system.connect(process.port("addr"), ram.port("addr"),
                   ram.port("waddr"))
    system.connect(process.port("we"), ram.port("we"))
    system.connect(process.port("acc"), ram.port("wdata"))
    system.connect(ram.port("q"), process.port("q"))
    return SimpleNamespace(system=system)


def _errors(build, program):
    """(exception type, message, cycle, snapshot) of the native step and
    of the Python step."""
    outcomes = []
    backends = []
    for python in (False, True):
        sim = _simulator(build(), python)
        outcome = None
        for cycle, pins in enumerate(program):
            try:
                sim.step(pins)
            except Exception as error:  # noqa: BLE001 - compared below
                outcome = (type(error), str(error), cycle, sim.snapshot())
                break
        outcomes.append(outcome)
        backends.append(sim.backend)
    assert backends == ["native", "python"]
    return outcomes


@needs_compiler
class TestErrors:
    def test_overflow_error(self):
        strict = FxFormat(4, 4, overflow=Overflow.ERROR)

        def build():
            return build_counter_system(strict)[0]

        native, python = _errors(build, [{}] * 12)
        assert native == python
        assert native[0] is FxOverflowError and native[2] == 7

    def test_overflow_error_of_a_pin(self):
        strict = FxFormat(4, 2, overflow=Overflow.ERROR)

        def build():
            clk = Clock()
            x = Sig("x", strict)
            acc = Register("acc", clk, FxFormat(8, 4))
            sfg = SFG("s")
            with sfg:
                acc <<= acc + x
            sfg.inp(x)
            process = TimedProcess("p", clk, sfgs=[sfg])
            process.add_input("x", x)
            system = System("pin_error")
            system.add(process)
            system.connect(None, process.port("x"), name="x")
            return system

        program = [{"x": 0.25 * k} for k in range(12)]
        native, python = _errors(build, program)
        assert native == python
        assert native[0] is FxOverflowError and native[2] == 8

    def test_stuck_fsm(self):
        def build():
            clk = Clock()
            count = Register("count", clk, FxFormat(8, 8))
            step = SFG("step")
            with step:
                count <<= count + 1
            fsm = FSM("ctl")
            go = fsm.initial("go")
            wait = fsm.state("wait")
            stop = fsm.state("stop")
            go << always << step << wait
            wait << cnd(gt(count, 2)) << step << stop
            wait << ~cnd(gt(count, 2)) << step << wait
            process = TimedProcess("p", clk, fsm=fsm)
            system = System("stuck")
            system.add(process)
            return system

        native, python = _errors(build, [{}] * 8)
        assert native == python
        assert native[0] is RuntimeError and "is stuck" in native[1]
        assert native[2] == 4

    def test_overflow_error_in_a_transition_condition(self):
        strict = FxFormat(4, 4, overflow=Overflow.ERROR)

        def build():
            clk = Clock()
            count = Register("count", clk, FxFormat(8, 8))
            step = SFG("step")
            with step:
                count <<= count + 1
            fsm = FSM("ctl")
            go = fsm.initial("go")
            wait = fsm.state("wait")
            go << always << step << wait
            # The state's only transition is conditional: the condition
            # overflows, not the FSM's lack of a transition, at count 8.
            wait << cnd(gt(cast(count, strict), -1)) << step << wait
            process = TimedProcess("p", clk, fsm=fsm)
            system = System("condition_error")
            system.add(process)
            return system

        native, python = _errors(build, [{}] * 12)
        assert native == python
        assert native[0] is FxOverflowError and native[2] == 8

    def test_missing_behaviour_token(self):
        def build():
            clk = Clock()
            x = Sig("x", FxFormat(8, 8))
            acc = Register("acc", clk, FxFormat(8, 8))
            sfg = SFG("s")
            with sfg:
                acc <<= acc + x
            sfg.inp(x)
            process = TimedProcess("p", clk, sfgs=[sfg])
            process.add_input("x", x)
            calls = []

            def source():
                calls.append(None)
                return {"y": len(calls)} if len(calls) < 5 else {}

            src = actor("src", source, inputs={}, outputs={"y": 1})
            system = System("tokens")
            system.add(src)
            system.add(process)
            system.connect(src.port("y"), process.port("x"))
            return system

        native, python = _errors(build, [{}] * 8)
        assert native == python
        assert native[0] is SimulationError and native[2] == 4
        assert "'src' produced no token for output 'y'" in native[1]


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """An empty step cache and no build failure yet in this process."""
    monkeypatch.setattr(cbuild, "_cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(compiled, "_native_failure", None)
    return tmp_path / "cache"


def _hold():
    return build_hold_system()[0]


def _late_store(both):
    """``acc <<= acc + w`` in every cycle of a two-state FSM, where
    ``w`` is stored in state s0 only, or in s1 too when *both*."""
    word = FxFormat(16, 16)
    clk = Clock()
    acc = Register("acc", clk, word)
    w = Sig("w", word)
    a = SFG("a")
    with a:
        w <<= 5
    b = SFG("b")
    with b:
        acc <<= acc + w
    c = SFG("c")
    with c:
        w <<= 7
    fsm = FSM("ctl")
    s0 = fsm.initial("s0")
    s1 = fsm.state("s1")
    s0 << always << a << b << s1
    if both:
        s1 << always << c << b << s0
    else:
        s1 << always << b << s0
    process = TimedProcess("p", clk, fsm=fsm)
    system = System("late_store")
    system.add(process)
    return system


def _quiet_backend(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CompiledSimulator(build()).backend


class TestFallbacks:
    @needs_compiler
    def test_float_domain_design_runs_python(self):
        clk = Clock()
        x = Sig("x")
        acc = Register("acc", clk, None, init=0.0)
        sfg = SFG("s")
        with sfg:
            acc <<= acc + x * 0.5
        sfg.inp(x)
        process = TimedProcess("p", clk, sfgs=[sfg])
        process.add_input("x", x)
        system = System("floats")
        system.add(process)
        system.connect(None, process.port("x"), name="x")
        sim = CompiledSimulator(system)
        assert sim.backend == "python" and sim.c_source is None
        sim.run(3, lambda cycle: {"x": 2.0})
        assert sim.snapshot()["acc"] == 3.0

    @needs_compiler
    def test_value_over_127_bits_runs_python(self):
        wide = FxFormat(130, 130)

        def build():
            return build_counter_system(wide)[0]

        assert _quiet_backend(build) == "python"
        assert _quiet_backend(lambda: build_counter_system()[0]) == "native"

    @needs_compiler
    def test_wide_values_up_to_127_bits_run_native(self):
        wide = FxFormat(120, 120)
        sims = []
        for python in (False, True):
            system, out, _count = build_counter_system(wide)
            sims.append(_simulator(system, python, watch=[out]))
        assert [s.backend for s in sims] == ["native", "python"]
        big = 1 << 110
        for sim in sims:
            sim.restore_state({"cycle": 0, "state": {"count": big - 2},
                               "memories": []})
            sim.run(5)
        assert sims[0].save_state() == sims[1].save_state()
        assert sims[0].snapshot()["count"].raw == big + 3

    @needs_compiler
    def test_read_in_a_cycle_that_may_not_store_it_runs_python(self):
        # Stored by ``a`` only in state s0, read by ``b`` in both.
        assert _quiet_backend(lambda: _late_store(both=False)) == "python"
        sim = CompiledSimulator(_late_store(both=False))
        sim.step()
        with pytest.raises(UnboundLocalError):
            sim.step()
        # Stored by ``a`` in s0 and by ``c`` in s1: every cycle stores
        # it before ``b`` reads it, so the design runs native.
        sims = [_simulator(_late_store(both=True), python)
                for python in (False, True)]
        assert [s.backend for s in sims] == ["native", "python"]
        for sim in sims:
            sim.run(6)
        assert sims[0].snapshot() == sims[1].snapshot()
        assert sims[0].snapshot()["acc"] == 5 + 7 + 5 + 7 + 5 + 7

    def test_host_without_a_compiler_warns_once(self, fresh_build,
                                                monkeypatch):
        monkeypatch.setattr(cbuild, "_COMPILER", "no-such-compiler-here")
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            sim = CompiledSimulator(_hold())
        assert sim.backend == "python"
        assert _quiet_backend(_hold) == "python"
        assert not fresh_build.exists()

    def test_host_without_python_headers(self, fresh_build, monkeypatch,
                                         tmp_path):
        abi = sysconfig.get_config_var("EXT_SUFFIX")
        monkeypatch.setattr(cbuild, "_headers", (str(tmp_path / "none"), abi))
        with pytest.warns(RuntimeWarning, match="no Python headers"):
            assert CompiledSimulator(_hold()).backend == "python"
        assert _quiet_backend(_hold) == "python"

    @needs_compiler
    def test_build_failure(self, fresh_build, monkeypatch):
        monkeypatch.setattr(compiled, "_prelude_text", "#error broken\n")
        with pytest.warns(RuntimeWarning, match="exited with status"):
            sim = CompiledSimulator(_hold())
        assert sim.backend == "python"
        sim.run(4, lambda cycle: {"req": 0})
        assert float(sim.snapshot()["count"]) == 4.0
        # Nothing half-built is left in the cache.
        assert not any(fresh_build.glob("*.so"))

    @needs_compiler
    def test_cold_build_is_cached(self, fresh_build):
        assert CompiledSimulator(_hold()).backend == "native"
        entries = list(fresh_build.iterdir())
        assert len(entries) == 1 and entries[0].name.startswith("step-")
        assert CompiledSimulator(_hold()).backend == "native"
        assert list(fresh_build.iterdir()) == entries

    @needs_compiler
    def test_cache_keeps_the_most_recently_used_steps(self, fresh_build,
                                                      monkeypatch):
        monkeypatch.setattr(cbuild, "_CACHE_LIMIT", 2)

        def counter(wl):
            return lambda: build_counter_system(FxFormat(wl, wl))[0]

        def libraries():
            return {entry.name for entry in fresh_build.glob("step-*.so")}

        assert _quiet_backend(counter(16)) == "native"
        first = libraries()
        time.sleep(0.05)
        assert _quiet_backend(counter(17)) == "native"
        second = libraries() - first
        time.sleep(0.05)
        # Loading the first marks it used: the third build removes the
        # second, the least recently used.
        assert _quiet_backend(counter(16)) == "native"
        assert _quiet_backend(counter(18)) == "native"
        assert len(libraries()) == 2
        assert first <= libraries() and not second & libraries()
        # A removed step is built again when its design comes back.
        assert _quiet_backend(counter(17)) == "native"
        assert second <= libraries() and len(libraries()) == 2

    @needs_compiler
    def test_capture_with_instrumentation_runs_python(self):
        capture = Capture()
        sim = CompiledSimulator(_hold(), obs=capture)
        assert sim.backend == "python"
        assert capture.metrics["compiled/backend/python"].value == 1
        disabled = Capture(activity=False, fsm=False, events=False)
        sim = CompiledSimulator(_hold(), obs=disabled)
        assert sim.backend == "native"
        assert disabled.metrics["compiled/backend/native"].value == 1
        profiled = Capture(activity=False, fsm=False, events=False,
                           profile=True)
        assert CompiledSimulator(_hold(), obs=profiled).backend == "python"

    def test_python_step_seam(self):
        with _python_step():
            sim = CompiledSimulator(_hold())
        assert sim.backend == "python" and sim.c_source is None
