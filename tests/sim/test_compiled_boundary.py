"""The compiled step's typed boundary against the cycle scheduler.

Values enter the generated step from outside at primary-input pins and
at untimed processes' outputs.  Each is quantized once, into the format
of each timed consumer, where it enters (DESIGN.md §18): the value the
consumer signal holds under the cycle scheduler, which coerces a token
into the reading signal's format.  An ``Overflow.ERROR`` format, whose
conversion can raise, is quantized where a marked SFG reads the port
instead, as the cycle scheduler copies the token only then.  Untimed
consumers and watched pins see the value as driven.  Every case runs
both engines, each on its own instance of the design, and compares
them.
"""

import itertools

import pytest

from repro.core import (
    FSM,
    SFG,
    Clock,
    FxOverflowError,
    Register,
    Sig,
    SimulationError,
    System,
    TimedProcess,
    actor,
    always,
)
from repro.fixpt import FxFormat, Overflow
from repro.sim import CompiledSimulator, CycleScheduler

pytestmark = pytest.mark.both_steps

S6_4 = FxFormat(6, 4)      # binary point 2
S8_4 = FxFormat(8, 4)      # binary point 4
S8_6 = FxFormat(8, 6)      # binary point 2
S16_8 = FxFormat(16, 8)


def _source(value_at):
    """An untimed behaviour returning ``{"y": value_at(n)}`` at firing n."""
    count = itertools.count(1)
    return lambda: {"y": value_at(next(count))}


def _fanout(behavior, consumers, probe=False):
    """One boundary channel ``u`` feeding timed consumers ``p0, p1, ...``.

    ``u`` is a primary-input pin when *behavior* is None, else the
    output ``y`` of an untimed source ``src`` running *behavior*.  Each
    consumer is ``(x_fmt, y_fmt, fn)`` and computes ``y <<= fn(x)`` onto
    its own output channel.  With *probe*, an untimed ``sink`` also
    reads ``u`` and records every value it is handed.
    """
    clk = Clock()
    system = System("boundary")
    producer = None
    if behavior is not None:
        src = actor("src", behavior, inputs={}, outputs={"y": 1})
        system.add(src)
        producer = src.port("y")
    targets, processes = [], []
    for index, (x_fmt, y_fmt, fn) in enumerate(consumers):
        x, y = Sig(f"x{index}", x_fmt), Sig(f"y{index}", y_fmt)
        sfg = SFG(f"s{index}")
        with sfg:
            y <<= fn(x)
        sfg.inp(x).out(y)
        process = TimedProcess(f"p{index}", clk, sfgs=[sfg])
        process.add_input("x", x)
        process.add_output("y", y)
        system.add(process)
        processes.append(process)
        targets.append(process.port("x"))
    seen = []
    if probe:
        sink = actor("sink", lambda x: seen.append(x) or {},
                     inputs={"x": 1}, outputs={})
        system.add(sink)
        targets.append(sink.port("x"))
    system.connect(producer, *targets, name="u")
    outs = [system.connect(p.port("y"), name=f"y{i}")
            for i, p in enumerate(processes)]
    return system, outs, seen


def _cycle_run(build, program):
    """Per-cycle outputs, the probe's values and the system, interpreted."""
    system, outs, seen = build()
    scheduler = CycleScheduler(system)
    by_name = {chan.name: chan for chan in system.channels}
    trace = []
    for pins in program:
        scheduler.step({by_name[name]: v for name, v in pins.items()})
        trace.append([float(chan.value) for chan in outs])
    return trace, seen, system


def _compiled_run(build, program):
    """Per-cycle outputs, the probe's values and the system, compiled."""
    system, outs, seen = build()
    sim = CompiledSimulator(system, watch=outs)
    trace = []
    for pins in program:
        sim.step(pins)
        trace.append([float(sim.output(chan)) for chan in outs])
    return trace, seen, system


def _both(build, program=({},)):
    return _cycle_run(build, program), _compiled_run(build, program)


class TestDivergencesFixed:
    def test_untimed_output_is_quantized_before_arithmetic(self):
        # 0.1875 enters x s<6,4> as 0.0, so y = 3 * x is 0.0; arithmetic
        # on the unquantized float would give 0.5625 -> 0.5.
        (cyc, _, _), (comp, _, _) = _both(lambda: _fanout(
            _source(lambda n: 0.1875), [(S6_4, S8_6, lambda x: x * 3)]))
        assert cyc == comp == [[0.0]]

    def test_pin_feeds_each_consumer_in_its_own_format(self):
        # Converting into one consumer's format (s<8,6>, raw 5) and
        # reading that raw at s<8,4>'s binary point would give 0.3125.
        consumers = [(S8_4, S8_4, lambda x: x), (S8_6, S8_6, lambda x: x)]
        program = [{"u": 1.3125}, {"u": -2.6}]
        (cyc, _, _), (comp, _, _) = _both(
            lambda: _fanout(None, consumers), program)
        assert cyc == comp == [[1.3125, 1.25], [-2.625, -2.75]]

    def test_untimed_input_gets_the_pin_as_driven(self):
        program = [{"u": 1.3125}, {"u": 0.5}]
        (cyc, cyc_seen, _), (comp, comp_seen, _) = _both(lambda: _fanout(
            None, [(S8_6, S8_6, lambda x: x)], probe=True), program)
        assert cyc == comp == [[1.25], [0.5]]
        assert cyc_seen == comp_seen == [1.3125, 0.5]

    def test_watched_pin_is_the_value_as_driven(self):
        system, _outs, _ = _fanout(None, [(S8_6, S8_6, lambda x: x)])
        pin = next(chan for chan in system.channels if chan.name == "u")
        sim = CompiledSimulator(system, watch=[pin])
        sim.step({"u": 1.3125})
        assert sim.output(pin) == 1.3125

    def test_untimed_output_feeds_two_formats(self):
        consumers = [(S8_4, S16_8, lambda x: x * 3),
                     (S8_6, S16_8, lambda x: x * 3)]
        (cyc, _, _), (comp, _, _) = _both(lambda: _fanout(
            _source(lambda n: 0.4375 * n), consumers), [{}] * 3)
        assert cyc == comp == [[1.3125, 0.75], [2.625, 2.25], [3.9375, 3.75]]


class TestOutOfRange:
    @pytest.mark.parametrize("overflow,expect", [
        (Overflow.SATURATE, [7.0, -8.0, 3.0]),
        (Overflow.WRAP, [-7.0, 7.0, 3.0]),
    ], ids=["SATURATE", "WRAP"])
    def test_untimed_output_enters_its_consumer_format(self, overflow,
                                                       expect):
        x_fmt = FxFormat(4, 4, overflow=overflow)          # raw [-8, 7]
        values = {1: 9.0, 2: -9.0, 3: 3.0}
        (cyc, _, _), (comp, _, _) = _both(lambda: _fanout(
            _source(values.get), [(x_fmt, S16_8, lambda x: x)]), [{}] * 3)
        assert [row[0] for row in cyc] == [row[0] for row in comp] == expect

    def test_error_format_raises_on_both_engines(self):
        x_fmt = FxFormat(4, 4, overflow=Overflow.ERROR)

        def build():
            return _fanout(_source(lambda n: 3.0 if n == 1 else 9.0),
                           [(x_fmt, S16_8, lambda x: x)])

        for run in (_cycle_run, _compiled_run):
            assert run(build, [{}])[0] == [[3.0]]
            with pytest.raises(FxOverflowError):
                run(build, [{}, {}])


def _fsm_reader(value, reads: bool, pin: bool = False):
    """An untimed source feeding *value* into an FSM process's input x.

    With *pin*, x reads the primary-input pin ``u`` instead.

    x is s<4,4> with ``Overflow.ERROR``.  The FSM starts in ``idle``,
    whose transition runs SFG ``skip`` (a counter; it never reads x).
    With *reads*, it then moves to ``use``, whose transition runs SFG
    ``read`` (``y <<= x``) and returns to ``idle``; without, it stays
    in ``idle``.
    """
    clk = Clock()
    x = Sig("x", FxFormat(4, 4, overflow=Overflow.ERROR))
    y = Sig("y", S16_8)
    count = Register("count", clk, S8_4)
    skip = SFG("skip")
    with skip:
        count <<= count + 1
    read = SFG("read")
    with read:
        y <<= x
    read.inp(x).out(y)
    fsm = FSM("f")
    idle = fsm.initial("idle")
    if reads:
        use = fsm.state("use")
        idle << always << skip << use
        use << always << read << idle
    else:
        idle << always << skip << idle
    process = TimedProcess("p", clk, fsm=fsm)
    process.add_input("x", x)
    process.add_output("y", y)
    system = System("marked")
    producer = None
    if not pin:
        src = actor("src", lambda: {"y": value}, inputs={}, outputs={"y": 1})
        system.add(src)
        producer = src.port("y")
    system.add(process)
    system.connect(producer, process.port("x"), name="u")
    out = system.connect(process.port("y"), name="out")
    return system, out, count


@pytest.mark.parametrize("pin", [False, True], ids=["untimed", "pin"])
class TestErrorBoundary:
    """An ERROR-format boundary raises only where a marked SFG reads it."""

    def _engines(self, reads, pin):
        system, _out, count = _fsm_reader(9.0, reads, pin)
        cycle = CycleScheduler(system)
        u = next(chan for chan in system.channels if chan.name == "u")
        system, _out, _count = _fsm_reader(9.0, reads, pin)
        compiled = CompiledSimulator(system)

        def cycle_step():
            cycle.step({u: 9.0} if pin else None)

        def compiled_step():
            compiled.step({"u": 9.0} if pin else None)

        return cycle_step, count, compiled_step, compiled

    def test_unread_error_input_does_not_raise(self, pin):
        cycle_step, count, compiled_step, compiled = self._engines(False, pin)
        for _ in range(3):
            cycle_step()
            compiled_step()
        assert float(count.current) == 3.0
        assert float(compiled.snapshot()["count"]) == 3.0

    def test_marked_reader_raises_on_both_engines(self, pin):
        cycle_step, _count, compiled_step, _ = self._engines(True, pin)
        cycle_step()
        compiled_step()
        with pytest.raises(FxOverflowError):
            cycle_step()
        with pytest.raises(FxOverflowError):
            compiled_step()


class TestEngineBookkeeping:
    def test_firings_match_the_cycle_scheduler(self):
        def firings(system):
            return {p.name: p.firings for p in system.untimed_processes()}

        consumers = [(S8_6, S8_6, lambda x: x)]
        (_, _, cyc), (_, _, comp) = _both(
            lambda: _fanout(None, consumers, probe=True),
            [{"u": 0.25 * n} for n in range(5)])
        assert firings(cyc) == firings(comp) == {"sink": 5}
        (_, _, cyc), (_, _, comp) = _both(
            lambda: _fanout(_source(lambda n: 0.5), consumers), [{}] * 4)
        assert firings(cyc) == firings(comp) == {"src": 4}

    def test_run_equals_step(self):
        consumers = [(S8_4, S8_4, lambda x: x), (S8_6, S8_6, lambda x: x)]
        program = [{"u": 0.3125 * n - 1} for n in range(6)]
        stepped, _, _ = _compiled_run(lambda: _fanout(None, consumers),
                                      program)
        system, outs, _ = _fanout(None, consumers)
        sim = CompiledSimulator(system, watch=outs)
        trace = []
        for _ in program:
            sim.run(1, lambda cycle: program[cycle])
            trace.append([float(sim.output(chan)) for chan in outs])
        assert trace == stepped
        sim.run(2, lambda cycle: None)           # no pins: each reads 0
        assert sim.cycle == len(program) + 2
        assert [float(sim.output(chan)) for chan in outs] == [0.0, 0.0]

    @pytest.mark.parametrize("result", [{}, None], ids=["empty", "none"])
    def test_missing_token_is_a_typed_error(self, result):
        def build():
            return _fanout(lambda: result, [(S8_6, S8_6, lambda x: x)])

        message = "'src' produced no token for output 'y'"
        with pytest.raises(SimulationError, match=message):
            _cycle_run(build, [{}])
        with pytest.raises(SimulationError, match=message):
            _compiled_run(build, [{}])

    def test_a_failing_conversion_is_not_a_missing_token(self):
        def build():
            return _fanout(lambda: {"y": "text"},
                           [(S8_6, S8_6, lambda x: x)])

        with pytest.raises(TypeError, match="cannot quantize str"):
            _compiled_run(build, [{}])
