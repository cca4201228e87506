"""The ROM primitive: ``Rom.behavior`` under the cycle scheduler against
the compiled step's inline table read and the event engine's
combinational read.

A :class:`~repro.core.Rom` reads the word at ``int(address)`` and 0
outside its table.  The compiled step reads it inline (DESIGN.md §22);
the event engine reads it combinationally and counts one firing per
cycle at the clock edge.  Each case wires a ROM between a timed process
that drives its address and a timed reader, runs the compiled and the
event engine in lockstep with the cycle scheduler over every producer
channel (:class:`~repro.verify.Lockstep`), and compares the firings.
"""

import pytest

from repro.core import (
    SFG, Clock, ModelError, Rom, Sig, System, TimedProcess,
)
from repro.designs.dect.irom import InstructionRom
from repro.fixpt import Fx, FxFormat, Overflow
from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator
from repro.verify import CompiledAdapter, CycleAdapter, EventAdapter, Lockstep

pytestmark = pytest.mark.both_steps

S8 = FxFormat(8, 8)             # signed integer addresses
S8_3 = FxFormat(8, 5)           # an address with three fraction bits
S16_4 = FxFormat(16, 12)        # data, binary point 4
U76 = FxFormat(76, 76, signed=False)
S6_WRAP = FxFormat(6, 6, overflow=Overflow.WRAP)

#: Words of every kind a consumer format takes: ints, a float, an Fx,
#: one past the reader's format and one over 63 bits.
WORDS = (5, -3, 2.75, Fx(-1.5, S16_4), 40000, (1 << 70) + 9)


def _rom_system(rom, address, reads):
    """*rom*, its address driven through a timed ``ctl`` process in
    format *address* (or by pin ``addr`` itself, for ``"pin"``) and read
    by a timed reader ``rd`` once per format in *reads*."""
    clk = Clock()
    system = System("rom")
    system.add(rom)
    address_port = rom.port(rom.address_port)
    if address == "pin":
        system.connect(None, address_port, name="addr")
    else:
        x, y = Sig("x", address), Sig("y", address)
        sfg = SFG("ctl_s")
        with sfg:
            y <<= x
        sfg.inp(x).out(y)
        ctl = TimedProcess("ctl", clk, sfgs=[sfg])
        ctl.add_input("i", x)
        ctl.add_output("o", y)
        system.add(ctl)
        system.connect(None, ctl.port("i"), name="addr")
        system.connect(ctl.port("o"), address_port, name="address")
    rd_sfg = SFG("rd_s")
    ports = []
    with rd_sfg:
        for index, fmt in enumerate(reads):
            v, w = Sig(f"v{index}", fmt), Sig(f"w{index}", fmt)
            w <<= v
            ports.append((index, v, w))
    rd_sfg.inp(*(v for _, v, _ in ports)).out(*(w for _, _, w in ports))
    rd = TimedProcess("rd", clk, sfgs=[rd_sfg])
    for index, v, w in ports:
        rd.add_input(f"i{index}", v)
        rd.add_output(f"o{index}", w)
    system.add(rd)
    system.connect(rom.port(rom.data_port),
                   *(rd.port(f"i{index}") for index, _, _ in ports),
                   name="word")
    for index, _, _ in ports:
        system.connect(rd.port(f"o{index}"), name=f"rd{index}")
    return system


def _lockstep(build, stimulus, event=True):
    """Run *build* under the cycle scheduler in lockstep with the compiled
    engine and, with *event*, the event engine; every instance's ROM."""
    roms = []

    def engine(adapter):
        def make():
            rom, system = build()
            roms.append(rom)
            return adapter(system)
        return make

    for other in (CompiledAdapter, EventAdapter) if event \
            else (CompiledAdapter,):
        divergence = Lockstep(engine(CycleAdapter), engine(other),
                              stimulus).run()
        assert divergence is None, str(divergence)
    return roms


def _sweep(values):
    return [{"addr": value} for value in values]


def test_read_past_the_end_is_zero_on_every_engine():
    def build():
        rom = Rom("m", WORDS)
        return rom, _rom_system(rom, S8, [S16_4, U76, S6_WRAP])

    # Every word, then past the end, before the start and back.
    addresses = [0, 1, 2, 3, 4, 5, 6, 7, 100, 127, -1, -128, 5, 0, 6, 3]
    roms = _lockstep(build, _sweep(addresses))
    for rom in roms:
        assert rom.firings == len(addresses)
    rom, system = build()
    channel = next(chan for chan in system.channels if chan.name == "word")
    sim = CompiledSimulator(system, watch=[channel])
    for address in addresses:
        sim.step({"addr": address})
        word = sim.output(channel)
        expected = WORDS[address] if 0 <= address < len(WORDS) else 0
        assert word is expected or word == expected, address


def test_address_with_fraction_bits_and_from_a_pin():
    # int() truncates toward zero: 2.875 -> 2, -0.5 -> 0; a pin's
    # address is handed to int() as driven, 2**70 is past the end.
    def build_formatted():
        rom = Rom("m", WORDS)
        return rom, _rom_system(rom, S8_3, [S16_4, U76])

    def build_pin():
        rom = Rom("m", WORDS)
        return rom, _rom_system(rom, "pin", [S16_4, U76])

    addresses = [2.875, -0.5, 3.25, -3.875, 5.0, 1.125, 0.0]
    _lockstep(build_formatted, _sweep(addresses))
    pins = addresses + [1 << 70, -(1 << 70), 4, Fx(3, S8), 7.75]
    _lockstep(build_pin, _sweep(pins))


def test_instruction_rom_is_a_rom():
    rom = InstructionRom([7, 9, 11])
    assert isinstance(rom, Rom)
    assert [port.name for port in rom.ports.values()] == ["pc", "word"]
    assert rom.words == (7, 9, 11)
    assert rom.behavior(pc=Fx(2, S8)) == {"word": 11}
    assert rom.behavior(pc=3) == {"word": 0}
    with pytest.raises(AttributeError):
        rom.words = [1, 2]


class _Offset(Rom):
    """A ROM that adds one to every word it reads, and counts its calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def behavior(self, **inputs):
        self.calls += 1
        word = super().behavior(**inputs)[self.data_port]
        return {self.data_port: word + 1}


def test_subclass_overriding_behavior_is_called():
    def build():
        rom = _Offset("m", (10, 20, 30))
        return rom, _rom_system(rom, S8, [S16_4])

    addresses = [0, 1, 2, 3, -1, 2, 1]
    roms = _lockstep(build, _sweep(addresses))
    interpreted, compiled, _, event = roms
    assert interpreted.calls == compiled.calls == len(addresses)
    assert interpreted.firings == compiled.firings == len(addresses)
    # The event engine runs an overriding behaviour as any untimed
    # process's, on every change of its inputs (DESIGN.md §23).
    assert event.firings == event.calls > len(addresses)
    _rom, system = build()
    source = CompiledSimulator(system).source
    assert "beh_m(" in source and "rom_m" not in source


def test_one_firing_per_cycle_on_every_engine():
    """The event engine used to run the ROM on every change of its
    address, so it counted more firings than cycles."""
    def build():
        rom = Rom("m", (1, 2, 3, 4))
        return rom, _rom_system(rom, S8, [S16_4])

    addresses = [0, 3, 1, 1, 2, 9, 0, 2]
    for rom in _lockstep(build, _sweep(addresses)):
        assert rom.firings == len(addresses)
    rom, system = build()
    simulator = EventSimulator(system)
    simulator.run(5, lambda cycle: {"addr": cycle % 4})
    assert rom.firings == 5


def test_clocked_engines_reject_an_unconnected_address():
    clk = Clock()
    v, w = Sig("v", S16_4), Sig("w", S16_4)
    sfg = SFG("rd_s")
    with sfg:
        w <<= v
    sfg.inp(v).out(w)
    rd = TimedProcess("rd", clk, sfgs=[sfg])
    rd.add_input("i", v)
    rd.add_output("o", w)
    rom = Rom("m", (1, 2))
    system = System("rom")
    system.add(rom)
    system.add(rd)
    system.connect(rom.port("q"), rd.port("i"), name="word")
    for engine in (CycleScheduler, CompiledSimulator, EventSimulator):
        with pytest.raises(ModelError, match=r"^untimed process 'm' port "
                                             r"'addr' is unconnected$"):
            engine(system)
