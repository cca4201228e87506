"""The RAM primitive: the compiled step's inline accesses and the event
engine's edge writes against ``Ram.behavior`` under the cycle scheduler.

The compiled step fires a :class:`~repro.core.Ram` inline over its raw
values (DESIGN.md §22): it reads, writes the token the behaviour would
have been handed, and counts writes and firings.  The event engine
reads it combinationally and writes once per cycle, at the clock edge
(DESIGN.md §23).  Each case wires one or two RAMs into a small system,
runs the compiled and the event engine in lockstep with the cycle
scheduler over every producer channel
(:class:`~repro.verify.Lockstep`), then compares every memory token by
token (type, raw value and format), its ``writes`` and its ``firings``.
"""

import random
import re

import pytest

from repro.core import (
    SFG, Clock, ModelError, Ram, Register, Sig, System, TimedProcess, actor,
)
from repro.fixpt import Fx, FxFormat, Overflow
from repro.sim import (
    CompiledSimulator, CycleScheduler, DataflowScheduler, EventSimulator,
)
from repro.verify import CompiledAdapter, CycleAdapter, EventAdapter, Lockstep

pytestmark = pytest.mark.both_steps

U4 = FxFormat(4, 4, signed=False)
BIT = FxFormat(1, 1, signed=False)
S6 = FxFormat(6, 6)             # signed integer addresses
S8_4 = FxFormat(8, 4)           # data, binary point 4
S8_5 = FxFormat(8, 5)           # an address with three fraction bits
S4_2 = FxFormat(4, 2)           # a write enable with two fraction bits
S6_4_WRAP = FxFormat(6, 4, overflow=Overflow.WRAP)


def _ram_system(rams, feeds, reads):
    """A system of *rams*, a timed process ``ctl`` feeding their inputs
    and a timed reader ``rd``.

    ``feeds[(ram, port)]`` drives one RAM input: a format is the output
    of a timed ``ctl`` process passing pin ``<ram>_<port>`` through in
    that format; ``"pin"`` is pin ``<ram>_<port>`` itself; a
    ``(ram, port)`` pair is that RAM's output.  ``reads[(ram, port)]``
    is the format in which a timed reader ``rd`` takes that RAM output
    onto channel ``rd_<ram>_<port>``.
    """
    clk = Clock()
    system = System("rams")
    by_name = {ram.name: ram for ram in rams}
    for ram in rams:
        system.add(ram)

    passed = [(key, fmt) for key, fmt in feeds.items()
              if isinstance(fmt, FxFormat)]
    sfg = SFG("ctl_s")
    ctl_ports = []
    with sfg:
        for (ram, port), fmt in passed:
            x = Sig(f"x_{ram}_{port}", fmt)
            y = Sig(f"y_{ram}_{port}", fmt)
            y <<= x
            ctl_ports.append((f"{ram}_{port}", x, y))
    sfg.inp(*(x for _, x, _ in ctl_ports)).out(*(y for _, _, y in ctl_ports))
    if ctl_ports:
        ctl = TimedProcess("ctl", clk, sfgs=[sfg])
        for name, x, y in ctl_ports:
            ctl.add_input(f"i_{name}", x)
            ctl.add_output(f"o_{name}", y)
        system.add(ctl)

    rd_sfg = SFG("rd_s")
    rd_ports = []
    with rd_sfg:
        for (ram, port), fmt in reads.items():
            v = Sig(f"v_{ram}_{port}", fmt)
            w = Sig(f"w_{ram}_{port}", fmt)
            w <<= v
            rd_ports.append((f"{ram}_{port}", v, w))
    rd_sfg.inp(*(v for _, v, _ in rd_ports)).out(*(w for _, _, w in rd_ports))
    rd = TimedProcess("rd", clk, sfgs=[rd_sfg])
    for name, v, w in rd_ports:
        rd.add_input(f"i_{name}", v)
        rd.add_output(f"o_{name}", w)
    system.add(rd)

    consumers = {}
    for (ram, port), feed in feeds.items():
        target = by_name[ram].port(port)
        if isinstance(feed, FxFormat):
            system.connect(None, ctl.port(f"i_{ram}_{port}"),
                           name=f"{ram}_{port}")
            system.connect(ctl.port(f"o_{ram}_{port}"), target)
        elif feed == "pin":
            system.connect(None, target, name=f"{ram}_{port}")
        else:
            consumers.setdefault(feed, []).append(target)
    outputs = set(reads) | set(consumers)
    for ram, port in sorted(outputs):
        targets = list(consumers.get((ram, port), ()))
        if (ram, port) in reads:
            targets.append(rd.port(f"i_{ram}_{port}"))
        system.connect(by_name[ram].port(port), *targets,
                       name=f"{ram}_{port}_out")
    for name, _v, _w in rd_ports:
        system.connect(rd.port(f"o_{name}"), name=f"rd_{name}")
    return system


def _tokens(ram):
    """The memory's tokens as comparable (type, value, format) triples."""
    return [(type(t).__name__, t.raw, t.fmt) if isinstance(t, Fx)
            else (type(t).__name__, t, None) for t in ram.dump()]


def _lockstep(build, stimulus, event=True):
    """Run *build* under the cycle scheduler in lockstep with the compiled
    engine and, with *event*, the event engine; the cycle scheduler's
    and the compiled engine's instances' RAMs."""
    built = []

    def engine(adapter):
        def make():
            rams, system = build()
            built.append(rams)
            return adapter(system)
        return make

    for other in (CompiledAdapter, EventAdapter) if event \
            else (CompiledAdapter,):
        divergence = Lockstep(engine(CycleAdapter), engine(other),
                              stimulus).run()
        assert divergence is None, str(divergence)
    interpreted = built[0]
    for rams in built[1:]:
        for a, b in zip(interpreted, rams):
            assert _tokens(a) == _tokens(b), a.name
            assert (a.writes, a.firings) == (b.writes, b.firings), a.name
            assert a.firings == len(stimulus)
    return interpreted, built[1]


def _random_pins(names, cycles, seed, values):
    rng = random.Random(seed)
    return [{name: rng.choice(values[name]) for name in names}
            for _ in range(cycles)]


def test_second_read_port():
    def build():
        ram = Ram("m", depth=8, second_read_port=True)
        feeds = {("m", "addr"): U4, ("m", "addr_b"): U4, ("m", "we"): BIT,
                 ("m", "waddr"): U4, ("m", "wdata"): S8_4}
        reads = {("m", "q"): S8_4, ("m", "q_b"): S8_4}
        return [ram], _ram_system([ram], feeds, reads)

    # Writes and both reads on one address in the same cycles: a read
    # sees the word before that cycle's write.
    stimulus = [{"m_addr": a, "m_addr_b": a, "m_we": 1, "m_waddr": a,
                 "m_wdata": 0.25 * (a + 1)} for a in (3, 3, 11, 11, 0)]
    stimulus += _random_pins(
        ["m_addr", "m_addr_b", "m_we", "m_waddr", "m_wdata"], 60, 1,
        {"m_addr": range(16), "m_addr_b": range(16), "m_we": (0, 1),
         "m_waddr": range(16), "m_wdata": (-7.9375, -1.5, 0.0, 2.25, 7.5)})
    interpreted, _ = _lockstep(build, stimulus)
    assert 0 < interpreted[0].writes < len(stimulus)


def test_write_gate():
    def build():
        ram = Ram("m", depth=4, write_gate=True)
        feeds = {("m", "addr"): U4, ("m", "we"): BIT, ("m", "wgate"): BIT,
                 ("m", "waddr"): U4, ("m", "wdata"): S8_4}
        return [ram], _ram_system([ram], feeds, {("m", "q"): S8_4})

    stimulus = [{"m_addr": k % 4, "m_we": we, "m_wgate": gate,
                 "m_waddr": k % 4, "m_wdata": k + 0.5}
                for k, (we, gate) in enumerate(
                    [(1, 0), (0, 1), (1, 1), (0, 0)] * 4)]
    interpreted, _ = _lockstep(build, stimulus)
    assert interpreted[0].writes == 4


def test_address_format_with_fraction_bits():
    # int() truncates toward zero: 2.625 -> 2, -1.5 -> -1 (word 3 of 4),
    # and a write enable of 0.5 or -0.75 is 0, whose raw value is not.
    def build():
        ram = Ram("m", depth=4)
        feeds = {("m", "addr"): S8_5, ("m", "we"): S4_2,
                 ("m", "waddr"): S8_5, ("m", "wdata"): S8_4}
        return [ram], _ram_system([ram], feeds, {("m", "q"): S8_4})

    stimulus = _random_pins(
        ["m_addr", "m_we", "m_waddr", "m_wdata"], 80, 3,
        {"m_addr": (-3.875, -1.5, -0.25, 0.375, 2.625, 7.875),
         "m_we": (-0.75, 0.0, 0.5, 1.0, 1.25),
         "m_waddr": (-3.875, -1.5, -0.25, 0.375, 2.625, 7.875),
         "m_wdata": (-2.5, 1.0, 3.75)})
    interpreted, _ = _lockstep(build, stimulus)
    assert 0 < interpreted[0].writes


def test_signed_address_driven_negative():
    def build():
        ram = Ram("m", depth=8)
        feeds = {("m", "addr"): S6, ("m", "we"): BIT, ("m", "waddr"): S6,
                 ("m", "wdata"): S8_4}
        return [ram], _ram_system([ram], feeds, {("m", "q"): S8_4})

    stimulus = [{"m_addr": -(k % 12), "m_we": k % 2, "m_waddr": -k,
                 "m_wdata": k / 4} for k in range(24)]
    interpreted, _ = _lockstep(build, stimulus)
    assert interpreted[0].writes == 12
    assert interpreted[0].dump()[(-23) % 8] == Fx(23 / 4, S8_4)


def test_ports_fed_by_a_pin_and_by_another_untimed_output():
    # "dst" takes its addresses and enables from pins, as driven (a
    # float address truncates), and its write data from "src"'s read
    # port: the token src holds, stored again as it is.
    def build():
        src = Ram("src", depth=4)
        src.load([Fx(1.25, S8_4), -3, 2.5, Fx(-0.5, S8_4)])
        dst = Ram("dst", depth=8)
        feeds = {("src", "addr"): "pin", ("src", "we"): "pin",
                 ("src", "waddr"): "pin", ("src", "wdata"): "pin",
                 ("dst", "addr"): "pin", ("dst", "we"): "pin",
                 ("dst", "waddr"): "pin", ("dst", "wdata"): ("src", "q")}
        reads = {("dst", "q"): S8_4}
        return [src, dst], _ram_system([src, dst], feeds, reads)

    # Copy src's preloaded words into dst's words 0-3, then run random
    # cycles that write dst's words 4-7 only.
    stimulus = [{"src_addr": k, "src_we": 0, "src_waddr": 0,
                 "src_wdata": 0, "dst_addr": k, "dst_we": 1,
                 "dst_waddr": k} for k in range(4)]
    stimulus += _random_pins(
        ["src_addr", "src_we", "src_waddr", "src_wdata", "dst_addr",
         "dst_we", "dst_waddr"], 60, 5,
        {"src_addr": range(4), "src_we": (0, 1), "src_waddr": range(4),
         "src_wdata": (0.75, -6), "dst_addr": (0, 1.5, 2.75, -1.25, 9),
         "dst_we": (0, 1, 1.0), "dst_waddr": (4, 5.5, -2.5, 7.25)})
    interpreted, _ = _lockstep(build, stimulus)
    src, dst = interpreted
    assert src.writes and dst.writes
    assert [type(token).__name__ for token in dst.dump()[:4]] \
        == ["Fx", "int", "float", "Fx"]


def test_preload_past_the_consumers_formats():
    # The reader converts each token into its own format where it
    # enters: 40000.0 and -1e6 clamp on one port and wrap on the other.
    preload = [40000.0, -7, Fx(3.75, S8_4), -1e6, 5.5, Fx(7.9375, S8_4)]

    def build():
        ram = Ram("m", depth=6, second_read_port=True)
        ram.load(preload)
        feeds = {("m", "addr"): U4, ("m", "addr_b"): U4, ("m", "we"): BIT,
                 ("m", "waddr"): U4, ("m", "wdata"): S8_4}
        reads = {("m", "q"): S8_4, ("m", "q_b"): S6_4_WRAP}
        return [ram], _ram_system([ram], feeds, reads)

    stimulus = [{"m_addr": k % 6, "m_addr_b": (k + 3) % 6, "m_we": 0,
                 "m_waddr": 0, "m_wdata": 0.0} for k in range(12)]
    interpreted, compiled = _lockstep(build, stimulus)
    assert interpreted[0].dump() == compiled[0].dump() == preload


class _Doubling(Ram):
    """A RAM that stores twice its write data, and counts its calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def behavior(self, addr, we, waddr, wdata, addr_b=None, wgate=1):
        self.calls += 1
        return super().behavior(addr, we, waddr, wdata * 2, addr_b, wgate)


def test_subclass_overriding_behavior_still_runs():
    def build():
        ram = _Doubling("m", depth=4)
        feeds = {("m", "addr"): U4, ("m", "we"): BIT, ("m", "waddr"): U4,
                 ("m", "wdata"): S8_4}
        return [ram], _ram_system([ram], feeds, {("m", "q"): S8_4})

    # The event engine runs an overriding behaviour as any untimed
    # process's, on every change of its inputs.
    stimulus = [{"m_addr": k % 4, "m_we": 1, "m_waddr": k % 4,
                 "m_wdata": k / 8} for k in range(8)]
    interpreted, compiled = _lockstep(build, stimulus, event=False)
    assert interpreted[0].calls == compiled[0].calls == len(stimulus)
    assert compiled[0].dump()[3] == Fx(7 / 8, S8_4) * 2

    _rams, system = build()
    source = CompiledSimulator(system).source
    assert "beh_m(" in source and "mem_m" not in source


def test_dect_step_calls_only_the_instruction_rom():
    from repro.designs.dect import build_transceiver

    chip = build_transceiver()
    source = CompiledSimulator(chip.system, watch=[chip.pc]).source
    assert re.findall(r"\bbeh_\w+\(", source) == ["beh_irom("]
    # Five pins, three RAM reads and the instruction word.
    assert source.count("_quantize_raw(") == 9
    for name in chip.rams:
        assert f"proc_{name}.writes += 1" in source


def test_write_commits_once_per_cycle_on_every_engine():
    """A counter register writes word ``waddr`` every cycle.  The write
    stores the counter's value of its own cycle, once: the event engine
    used to fire the RAM on every change of its inputs, writing again
    after the clock edge with the next count."""
    def build():
        clk = Clock()
        count = Register("count", clk, S8_4)
        sfg = SFG("inc")
        with sfg:
            count <<= count + 1
        ctl = TimedProcess("ctl", clk, sfgs=[sfg])
        ctl.add_output("count", count)
        ram = Ram("m", depth=8)
        rd_sfg = SFG("rd_s")
        v, w = Sig("v", S8_4), Sig("w", S8_4)
        with rd_sfg:
            w <<= v
        rd_sfg.inp(v).out(w)
        rd = TimedProcess("rd", clk, sfgs=[rd_sfg])
        rd.add_input("q", v)
        rd.add_output("w", w)
        system = System("counter_ram")
        for process in (ctl, ram, rd):
            system.add(process)
        system.connect(ctl.port("count"), ram.port("wdata"), name="count")
        for port in ("addr", "we", "waddr"):
            system.connect(None, ram.port(port), name=port)
        system.connect(ram.port("q"), rd.port("q"), name="q")
        system.connect(rd.port("w"), name="w")
        return [ram], system

    stimulus = [{"addr": (k + 7) % 8, "we": 1, "waddr": k % 8}
                for k in range(6)]
    interpreted, _compiled = _lockstep(build, stimulus)
    assert interpreted[0].writes == 6
    assert [float(v) for v in interpreted[0].dump()[:6]] == \
        [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("engine",
                         [CycleScheduler, CompiledSimulator, EventSimulator])
def test_clocked_engines_reject_an_unconnected_untimed_input(engine):
    """A RAM fed and read by timed processes, its write address left
    unconnected, could never fire under a clock: each clocked engine
    rejects it when it is built, with one error naming the port."""
    feeds = {("m", "addr"): U4, ("m", "we"): BIT, ("m", "wdata"): S8_4}
    system = _ram_system([Ram("m", depth=4)], feeds, {("m", "q"): S8_4})
    with pytest.raises(ModelError, match=r"^untimed process 'm' port "
                                         r"'waddr' is unconnected$"):
        engine(system)


def test_dataflow_never_fires_an_actor_with_an_unconnected_input():
    """Under token semantics the same wiring is no error: the actor's
    firing rule never holds."""
    calls = []
    add = actor("add", lambda a, b: calls.append((a, b)) or {"y": a + b},
                inputs={"a": 1, "b": 1}, outputs={"y": 1})
    system = System("df")
    system.add(add)
    feed = system.connect(None, add.port("a"), name="a")
    system.connect(add.port("y"), name="y")
    scheduler = DataflowScheduler(system)
    feed.put(1)
    assert scheduler.run() == 0 and calls == []
