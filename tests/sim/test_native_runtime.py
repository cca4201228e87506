"""What the native compiled step keeps outside Python objects, against
the Python step and the cycle scheduler.

The native step reads an instruction ROM from tables in its context,
counts ``firings`` and ``writes`` in each process's count array, and
reads and builds ``Fx`` tokens through their slots (DESIGN.md §24).
Here: the counts on every engine over the DECT program, counts that are
read and assigned between steps, RAM tokens of other formats, a ROM word
past the C spelling's reach, step names that sanitize alike, and a
design whose C source does not compile.
"""

import shutil
import warnings
from types import SimpleNamespace

import pytest

from repro.core import (
    FSM, SFG, Clock, Ram, Register, Rom, Sig, System, TimedProcess, actor,
    always,
)
from repro.designs.dect import build_transceiver
from repro.fixpt import Fx, FxFormat, Overflow
from repro.sim import (
    CompiledSimulator, CycleScheduler, EventSimulator, cbuild, compiled,
)

from tests.conftest import build_hold_system
from tests.sim.test_native_step import _dect_program, _simulator, needs_compiler

S8_4 = FxFormat(8, 4)
S12_6 = FxFormat(12, 6)
U4 = FxFormat(4, 4, signed=False)
BIT = FxFormat(1, 1, signed=False)


def _counts(system):
    """Every untimed process's firings and every RAM's writes."""
    return {process.name: (process.firings, getattr(process, "writes", None))
            for process in system.untimed_processes()}


@needs_compiler
def test_dect_counts_agree_on_every_engine():
    """Over the chip-paced DECT burst: the cycle scheduler, both steps
    and the event engine fire every untimed process once per cycle and
    commit the same RAM writes (the event engine fired the instruction
    ROM once per change of the PC)."""
    program = _dect_program(5)
    chips = [build_transceiver() for _ in range(4)]
    scheduler = CycleScheduler(chips[0].system)
    channels = {chan.name: chan for chan in chips[0].system.channels}
    native = _simulator(chips[1].system, python=False)
    python = _simulator(chips[2].system, python=True)
    event = EventSimulator(chips[3].system)
    assert (native.backend, python.backend) == ("native", "python")
    for pins in program:
        scheduler.step({channels[name]: v for name, v in pins.items()})
        native.step(pins)
        python.step(pins)
        event.step(pins)
    counts = [_counts(chip.system) for chip in chips]
    assert counts[1] == counts[0] and counts[2] == counts[0]
    assert counts[3] == counts[0]
    assert {firings for firings, _writes in counts[0].values()} \
        == {len(program)}
    assert counts[0]["out_a"][1] and counts[0]["out_b"][1]


def _ram_loop(preload):
    """A RAM of eight words, preloaded with *preload*, that ``ctl``
    writes every other cycle, at the address it reads, with ``k`` in
    s<8,4>; ``rd`` reads it in s<12,6> into register ``w``."""
    clk = Clock()
    k = Register("k", clk, FxFormat(8, 4, overflow=Overflow.WRAP))
    we = Register("we", clk, BIT)
    addr = Register("addr", clk, U4)
    ctl_sfg = SFG("ctl_s")
    with ctl_sfg:
        k <<= k + Fx(0.75, S8_4)
        we <<= 1 - we
        addr <<= addr + 1
    ctl = TimedProcess("ctl", clk, sfgs=[ctl_sfg])
    for name, sig in (("k", k), ("we", we), ("addr", addr)):
        ctl.add_output(name, sig)
    ram = Ram("m", depth=8)
    ram.load(preload)
    v, w = Sig("v", S12_6), Register("w", clk, S12_6)
    rd_sfg = SFG("rd_s")
    with rd_sfg:
        w <<= v
    rd_sfg.inp(v)
    rd = TimedProcess("rd", clk, sfgs=[rd_sfg])
    rd.add_input("q", v)
    system = System("ram_loop")
    for process in (ctl, ram, rd):
        system.add(process)
    system.connect(ctl.port("k"), ram.port("wdata"), name="k")
    system.connect(ctl.port("we"), ram.port("we"), name="we")
    system.connect(ctl.port("addr"), ram.port("addr"), ram.port("waddr"),
                   name="addr")
    system.connect(ram.port("q"), rd.port("q"), name="q")
    return SimpleNamespace(system=system, ram=ram)


class _Tagged(Fx):
    """An Fx subclass: not an exact Fx, so never read through slots."""

    __slots__ = ()


def _tagged(value, fmt):
    token = _Tagged.__new__(_Tagged)
    token._raw, token._fmt = Fx(value, fmt).raw, fmt
    return token


@needs_compiler
def test_ram_tokens_of_other_formats_read_alike():
    # The step's writes store Fx tokens in s<8,4>.  The preload holds a
    # token in another format, one in an equal but distinct format
    # object, an Fx subclass, an int and a float: each is read into the
    # reader's s<12,6> as quantize_raw reads it, on both steps.
    preload = [Fx(-3.375, FxFormat(10, 3)), Fx(2.5, FxFormat(8, 4)),
               _tagged(-1.25, S8_4), 7, 1.4375]
    runs = []
    for python in (False, True, None):
        loop = _ram_loop(preload)
        if python is None:
            engine = CycleScheduler(loop.system)
            state = _state
        else:
            engine = _simulator(loop.system, python)
            assert engine.backend == ("python" if python else "native")
            state = _snapshot
        trace = []
        for _ in range(20):
            engine.step({})
            trace.append(state(engine)["w"])
        runs.append((trace, [(type(t), t.raw, t.fmt) if isinstance(t, Fx)
                             else (type(t), t, None)
                             for t in loop.ram.dump()]))
    assert runs[0] == runs[1] == runs[2]
    # The first reads see the preload; the odd words were rewritten.
    assert runs[0][0][:5] == [-3.375, 2.5, -1.25, 7.0, 1.4375]
    assert all(kind is Fx and fmt.frac_bits == 4
               for kind, _raw, fmt in runs[0][1][1::2])


@needs_compiler
def test_counts_are_ints_to_read_and_assign_between_steps():
    sims = [_simulator(_ram_loop([]).system, python)
            for python in (False, True)]
    for sim in sims:
        ram = sim.layout.memories[0]
        sim.run(5)
        assert (ram.firings, ram.writes) == (5, 2)
        assert type(ram.firings) is int and type(ram.writes) is int
        ram.firings, ram.writes = 100, -1
        sim.run(4)
        assert (ram.firings, ram.writes) == (104, 1)
    assert sims[0].backend == "native"


def _state(scheduler):
    """The cycle scheduler's registers and FSM states, as ``snapshot()``
    names them."""
    state = {reg.name: float(reg.current)
             for reg in scheduler.elaboration.registers}
    state.update({f"{p.name}.state": p.fsm.current.name
                  for p in scheduler.timed if p.fsm is not None})
    return state


def _snapshot(sim):
    return {name: value if isinstance(value, str) else float(value)
            for name, value in sim.snapshot().items()}


def _wide_rom(word):
    """A counter addressing ROM ``(1, word, -word)``, read into s<8,8>
    WRAP and held in register ``w``."""
    clk = Clock()
    pc = Register("pc", clk, U4)
    sfg = SFG("s")
    with sfg:
        pc <<= pc + 1
    ctl = TimedProcess("ctl", clk, sfgs=[sfg])
    ctl.add_output("pc", pc)
    rom = Rom("m", (1, word, -word))
    v = Sig("v", FxFormat(8, 8, overflow=Overflow.WRAP))
    w = Register("w", clk, FxFormat(8, 8))
    rd_sfg = SFG("rd_s")
    with rd_sfg:
        w <<= v
    rd_sfg.inp(v)
    rd = TimedProcess("rd", clk, sfgs=[rd_sfg])
    rd.add_input("q", v)
    system = System("wide_rom")
    for process in (ctl, rom, rd):
        system.add(process)
    system.connect(ctl.port("pc"), rom.port("addr"), name="pc")
    system.connect(rom.port("q"), rd.port("q"), name="q")
    return system


@needs_compiler
@pytest.mark.parametrize("bits, backend", [(130, "python"),
                                           (120, "native")])
def test_rom_word_over_127_bits_runs_the_python_step(bits, backend):
    word = (1 << bits) + 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = CompiledSimulator(_wide_rom(word))
    assert sim.backend == backend
    reference = CycleScheduler(_wide_rom(word))
    trace = []
    for _cycle in range(5):
        sim.step()
        reference.step({})
        assert _snapshot(sim) == _state(reference)
        trace.append(_snapshot(sim)["w"])
    assert trace == [1.0, 3.0, -3.0, 0.0, 0.0]


def _alike_names():
    """Processes, pins and untimed outputs whose step names sanitize
    alike: FSM processes ``a-b`` (period 2) and ``a_b`` (period 3),
    pins ``p-q`` and ``p_q``, and untimed outputs ``u.v_w`` and
    ``u_v.w``, each read into a register of its own."""
    word = FxFormat(12, 12)
    clk = Clock()
    system = System("alike")
    for name, period in (("a-b", 2), ("a_b", 3)):
        tick = SFG(f"tick_{period}")
        count = Register(f"count_{period}", clk, word)
        with tick:
            count <<= count + period
        fsm = FSM(f"ring_{period}")
        states = [fsm.initial("s0")] + [fsm.state(f"s{i}")
                                        for i in range(1, period)]
        for index, state in enumerate(states):
            state << always << tick << states[(index + 1) % period]
        system.add(TimedProcess(name, clk, fsm=fsm))
    inputs = [Sig(f"x{i}", word) for i in range(4)]
    held = [Register(f"h{i}", clk, word) for i in range(4)]
    sample = SFG("sample")
    with sample:
        for x, h in zip(inputs, held):
            h <<= x
    sample.inp(*inputs)
    reader = TimedProcess("rd", clk, sfgs=[sample])
    for i, x in enumerate(inputs):
        reader.add_input(f"i{i}", x)
    system.add(reader)
    u = actor("u", lambda i: {"v_w": i + 1}, inputs={"i": 1},
              outputs={"v_w": 1})
    u_v = actor("u_v", lambda i: {"w": i * 3}, inputs={"i": 1},
                outputs={"w": 1})
    system.add(u)
    system.add(u_v)
    system.connect(None, reader.port("i0"), u.port("i"), name="p-q")
    system.connect(None, reader.port("i1"), u_v.port("i"), name="p_q")
    system.connect(u.port("v_w"), reader.port("i2"), name="y0")
    system.connect(u_v.port("w"), reader.port("i3"), name="y1")
    return system


@pytest.mark.parametrize("python", [False, True], ids=["native", "python"])
def test_names_that_sanitize_alike_stay_apart(python):
    if not python and shutil.which(cbuild._COMPILER) is None:
        pytest.skip("no C compiler")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = _simulator(_alike_names(), python)
    assert sim.backend == ("python" if python else "native")
    reference = CycleScheduler(_alike_names())
    pins = {chan.name: chan for chan in reference.elaboration.pins}
    for cycle in range(7):
        values = {"p-q": cycle, "p_q": 10 * cycle}
        sim.step(values)
        reference.step({pins[name]: v for name, v in values.items()})
        assert _snapshot(sim) == _state(reference), cycle
    assert _snapshot(sim)["h3"] == 3 * 60 and _snapshot(sim)["h2"] == 7


@needs_compiler
def test_a_compile_error_falls_back_for_its_own_design(monkeypatch):
    """A source the compiler rejects warns once and runs the Python step
    for its design; the next design still builds natively."""
    monkeypatch.setattr(compiled, "_native_failure", None)
    monkeypatch.setattr(compiled, "_failed_sources", set())
    end = compiled._CEmitter.end

    def end_broken_for_hold(self):
        end(self)
        if self.layout.system.name == "hold_sys":
            self.source += "#error this design does not compile\n"

    monkeypatch.setattr(compiled._CEmitter, "end", end_broken_for_hold)
    with pytest.warns(RuntimeWarning, match="this design runs the Python "
                                            "step: cc exited"):
        sim = CompiledSimulator(build_hold_system()[0])
    assert sim.backend == "python"
    sim.run(3, lambda cycle: {"req": 0})
    assert float(sim.snapshot()["count"]) == 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = CompiledSimulator(build_hold_system()[0])
        dect = CompiledSimulator(build_transceiver().system)
    assert again.backend == "python"
    assert dect.backend == "native"
    assert compiled._native_failure is None
