"""One channel semantics on every clocked engine.

Each case is a small system whose channels exercise one rule of the
elaboration (``repro.core.elaborate``): a timed consumer reads a
channel's token converted into its own format, an ``Overflow.ERROR``
conversion happens where a marked assignment reads the port, and a
system that breaks a rule is rejected when an engine is built.  Every
case runs on the cycle scheduler, the compiled engine and the event
engine, each on its own instance of the system, and the three must
give the same per-cycle value on every producer channel, or the same
typed error at the same cycle.
"""

import pytest

from repro.core import (
    FSM, SFG, Clock, FxOverflowError, ModelError, Register, ReproError,
    Sig, System, TimedProcess, actor, always,
)
from repro.fixpt import Fx, FxFormat, Overflow, Rounding
from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator

SRC = FxFormat(8, 5)                    # binary point 3, range [-16, 16)
WIDE = FxFormat(16, 8)


def _narrow(overflow, rounding=Rounding.TRUNCATE):
    """Binary point 2, range [-4, 3.75]."""
    return FxFormat(5, 3, rounding=rounding, overflow=overflow)


def _canonical(token):
    return token.raw if isinstance(token, Fx) else token


def _cycle(system, producers):
    scheduler = CycleScheduler(system)
    pins = {chan.name: chan for chan in system.channels
            if chan.producer is None}

    def step(values):
        scheduler.step({pins[name]: v for name, v in values.items()})
        return [chan.value if chan.valid else None for chan in producers]
    return step


def _compiled(system, producers):
    sim = CompiledSimulator(system, watch=producers)

    def step(values):
        sim.step(values)
        return [sim.output(chan) for chan in producers]
    return step


def _event(system, producers):
    sim = EventSimulator(system)
    seen = []
    sim.monitors.append(
        lambda s: seen.append([s.value(chan) for chan in producers]))

    def step(values):
        sim.step(values)
        return seen[-1]
    return step


ENGINES = {"cycle": _cycle, "compiled": _compiled, "event": _event}


def _run(engine, build, program):
    """Per-cycle values by producer channel, then the typed error and
    where it came: ``"build"`` or the cycle whose step raised."""
    system = build()
    producers = [chan for chan in system.channels
                 if chan.producer is not None]
    trace = []
    try:
        step = ENGINES[engine](system, producers)
    except ReproError as error:
        return trace, (type(error), str(error), "build")
    for cycle, values in enumerate(program):
        try:
            row = step(values)
        except ReproError as error:
            return trace, (type(error), cycle)
        trace.append({chan.name: _canonical(value)
                      for chan, value in zip(producers, row)})
    return trace, None


def _agree(build, program=({},) * 3):
    """Run every engine; assert they agree and return the cycle run."""
    cycle = _run("cycle", build, program)
    for engine in ("compiled", "event"):
        assert _run(engine, build, program) == cycle, engine
    return cycle


def _pipe(consumer_fmts):
    """Pin ``a`` into producer ``p``, which drives plain ``y`` and register
    ``r`` from it; each consumer format reads both, onto registers."""
    clk = Clock()
    system = System("pipe")
    a, y = Sig("a", SRC), Sig("y", SRC)
    r = Register("r", clk, SRC)
    sfg = SFG("ps")
    with sfg:
        y <<= a
        r <<= a
    sfg.inp(a).out(y)
    p = TimedProcess("p", clk, sfgs=[sfg])
    p.add_input("a", a)
    p.add_output("y", y)
    p.add_output("r", r)
    system.add(p)
    system.connect(None, p.port("a"), name="a")
    ys, rs = [], []
    for index, fmt in enumerate(consumer_fmts):
        u, v = Sig(f"u{index}", fmt), Sig(f"v{index}", fmt)
        out_u = Register(f"ou{index}", clk, WIDE)
        out_v = Register(f"ov{index}", clk, WIDE)
        csfg = SFG(f"cs{index}")
        with csfg:
            out_u <<= u
            out_v <<= v
        csfg.inp(u, v)
        q = TimedProcess(f"q{index}", clk, sfgs=[csfg])
        q.add_input("u", u)
        q.add_input("v", v)
        q.add_output("ou", out_u)
        q.add_output("ov", out_v)
        system.add(q)
        ys.append(q.port("u"))
        rs.append(q.port("v"))
        system.connect(q.port("ou"), name=f"ou{index}")
        system.connect(q.port("ov"), name=f"ov{index}")
    system.connect(p.port("y"), *ys, name="y")
    system.connect(p.port("r"), *rs, name="r")
    return system


#: Pin values: the first two round differently into binary point 2 from
#: binary point 3, 5.5 lies past the narrow formats, -6.25 below them.
PROGRAM = [{"a": v} for v in
           (0.375, -0.625, 1.375, 2.625, -3.875, 5.5, -6.25, 0.0, 0.0)]


class TestMixedFormatTimedChannels:
    """A timed producer feeding consumers of other formats; the
    producer channels ``y`` and ``r`` are watched by every engine."""

    @pytest.mark.parametrize("rounding", [Rounding.TRUNCATE, Rounding.ROUND])
    @pytest.mark.parametrize("overflow", [Overflow.SATURATE, Overflow.WRAP])
    def test_converted_into_the_consumer_format(self, overflow, rounding):
        # The second consumer shares the producer's format: an alias.
        trace, error = _agree(
            lambda: _pipe([_narrow(overflow, rounding), SRC]), PROGRAM)
        assert error is None
        ou0 = [row["ou0"] / 256 for row in trace]
        ov0 = [row["ov0"] / 256 for row in trace]
        # 0.375 and -0.625 round apart into binary point 2.
        if rounding is Rounding.TRUNCATE:
            assert ou0[1:3] == [0.25, -0.75]
        else:
            assert ou0[1:3] == [0.5, -0.5]
        # 5.5 and -6.25 leave the format [-4, 3.75].
        if overflow is Overflow.SATURATE:
            assert ou0[6:8] == [3.75, -4.0]
        else:
            assert ou0[6:8] == [-2.5, 1.75]
        # The register channel r reaches its consumer a cycle later.
        assert ov0[2:] == ou0[1:-1]
        # The aliased consumer keeps every bit of the value.
        assert [row["ou1"] / 256 for row in trace][1:] == \
            [v["a"] for v in PROGRAM[:-1]]

    @pytest.mark.parametrize("rounding", [Rounding.TRUNCATE, Rounding.ROUND])
    def test_error_format_raises_where_the_value_is_read(self, rounding):
        # 5.5 reaches the ERROR consumer's plain input at cycle 5.
        trace, error = _agree(
            lambda: _pipe([_narrow(Overflow.ERROR, rounding)]), PROGRAM)
        assert error == (FxOverflowError, 5) and len(trace) == 5


def _reader(source):
    """An FSM process ``q`` alternating ``take`` (reads ERROR-format ``x``
    into register ``acc``) and ``skip``, with ``x`` fed by *source*:
    ``"timed"`` (producer ``p`` passes pin ``n`` through in SRC),
    ``"pin"`` (pin ``n``) or ``"untimed"`` (actor ``u`` passes pin ``n``
    through)."""
    clk = Clock()
    system = System("reader")
    x = Sig("x", _narrow(Overflow.ERROR))
    acc = Register("acc", clk, WIDE)
    take, skip = SFG("take"), SFG("skip")
    with take:
        acc <<= acc + x
    take.inp(x)
    with skip:
        acc <<= acc
    fsm = FSM("f")
    s0, s1 = fsm.state("s0", initial=True), fsm.state("s1")
    s0 << always << take << s1
    s1 << always << skip << s0
    q = TimedProcess("q", clk, fsm=fsm)
    q.add_input("x", x)
    q.add_output("acc", acc)
    system.add(q)
    system.connect(q.port("acc"), name="acc")
    if source == "pin":
        system.connect(None, q.port("x"), name="n")
    elif source == "timed":
        a, y = Sig("a", SRC), Sig("y", SRC)
        psfg = SFG("ps")
        with psfg:
            y <<= a
        psfg.inp(a).out(y)
        p = TimedProcess("p", clk, sfgs=[psfg])
        p.add_input("a", a)
        p.add_output("y", y)
        system.add(p)
        system.connect(None, p.port("a"), name="n")
        system.connect(p.port("y"), q.port("x"), name="y")
    else:
        u = actor("u", lambda n: {"y": n}, inputs={"n": 1},
                  outputs={"y": 1})
        system.add(u)
        system.connect(None, u.port("n"), name="n")
        system.connect(u.port("y"), q.port("x"), name="y")
    return system


class TestErrorFormatReadInSomeTransitions:
    """``take`` runs at even cycles.  The value leaves the ERROR format
    at cycles 1 and 3, which only ``skip`` sees, then at cycle 6."""

    VALUES = [{"n": v} for v in (1.0, 9.0, 2.0, -9.0, 0.5, 0.25, 9.5, 0.0)]

    @pytest.mark.parametrize("source", ["timed", "pin", "untimed"])
    def test_raises_only_where_a_marked_assignment_reads(self, source):
        trace, error = _agree(lambda: _reader(source), self.VALUES)
        assert error == (FxOverflowError, 6)
        assert [row["acc"] / 256 for row in trace] == \
            [0.0, 1.0, 1.0, 3.0, 3.0, 3.5]


def _adder(connect_b=True, b_sig=True):
    """``y <<= a + b`` in timed process ``p``; pin ``a``, pin ``b``."""
    clk = Clock()
    a, b, y = Sig("a", SRC), Sig("b", SRC), Sig("y", WIDE)
    sfg = SFG("add")
    with sfg:
        y <<= a + b
    sfg.inp(a, b).out(y)
    p = TimedProcess("p", clk, sfgs=[sfg])
    p.add_input("a", a)
    p.add_input("b", b if b_sig else None)
    p.add_output("y", y)
    system = System("adder")
    system.add(p)
    system.connect(None, p.port("a"), name="a")
    if connect_b:
        system.connect(None, p.port("b"), name="b")
    system.connect(p.port("y"), name="y")
    return system


def _with_actor(inputs):
    """The adder beside actor ``m`` of *inputs*; pin ``c`` feeds its
    port ``c``."""
    def build():
        system = _adder()
        m = actor("m", lambda **kw: {}, inputs=inputs, outputs={})
        system.add(m)
        system.connect(None, m.port("c"), name="c")
        return system
    return build


class TestRules:
    """A system that breaks a rule is rejected when an engine is built,
    with one ``ModelError`` naming the process and the port."""

    def _rejected(self, build, message):
        trace, error = _agree(build)
        assert trace == [] and error == (ModelError, message, "build")

    def test_unconnected_timed_input(self):
        self._rejected(lambda: _adder(connect_b=False),
                       "timed process 'p' port 'b' is unconnected")

    def test_unconnected_untimed_input(self):
        self._rejected(_with_actor({"c": 1, "d": 1}),
                       "untimed process 'm' port 'd' is unconnected")

    def test_untimed_port_of_rate_two(self):
        self._rejected(_with_actor({"c": 2}),
                       "untimed process 'm' port 'c' has rate 2; under a "
                       "clock untimed blocks are single-rate")

    def test_timed_input_without_signal(self):
        self._rejected(lambda: _adder(b_sig=False),
                       "timed process 'p' port 'b' binds no signal")

    def test_timed_output_without_signal(self):
        def build():
            system = _adder()
            system["p"].add_output("w", None)
            system.connect(system["p"].port("w"), name="w")
            return system
        self._rejected(build, "timed process 'p' port 'w' binds no signal")


def test_pin_read_in_two_formats():
    fmts = [_narrow(Overflow.SATURATE, Rounding.ROUND),
            _narrow(Overflow.WRAP), WIDE]

    def build():
        clk = Clock()
        system = System("fanout")
        ports = []
        for index, fmt in enumerate(fmts):
            x, acc = Sig(f"x{index}", fmt), Register(f"acc{index}", clk, WIDE)
            sfg = SFG(f"s{index}")
            with sfg:
                acc <<= x
            sfg.inp(x)
            p = TimedProcess(f"p{index}", clk, sfgs=[sfg])
            p.add_input("x", x)
            p.add_output("acc", acc)
            system.add(p)
            ports.append(p.port("x"))
            system.connect(p.port("acc"), name=f"acc{index}")
        system.connect(None, *ports, name="a")
        return system

    trace, error = _agree(build, PROGRAM)
    assert error is None
    # 5.5 at cycle 5: rounded and saturated, wrapped, kept.
    assert [trace[6][f"acc{i}"] / 256 for i in range(3)] == [3.75, -2.5, 5.5]


def test_watched_mixed_format_channel_carries_the_producer_token():
    """``y`` and ``r`` feed a narrower consumer; watched, each still
    shows the producer's value."""
    trace, error = _agree(
        lambda: _pipe([_narrow(Overflow.SATURATE)]), PROGRAM)
    assert error is None
    values = [Fx(v["a"], SRC).raw for v in PROGRAM]
    assert [row["y"] for row in trace] == values
    assert [row["r"] for row in trace] == [0] + values[:-1]
