"""Tests for processes, ports, channels and system wiring."""

import pytest

from repro.core import (
    SFG,
    Channel,
    Clock,
    ModelError,
    Register,
    Sig,
    SimulationError,
    System,
    TimedProcess,
    UntimedProcess,
    actor,
)
from repro.fixpt import FxFormat

F = FxFormat(16, 8)


class TestChannel:
    def test_fifo_order(self):
        chan = Channel("c")
        chan.put(1)
        chan.put(2)
        assert chan.get() == 1
        assert chan.get() == 2

    def test_underflow(self):
        with pytest.raises(SimulationError):
            Channel("c").get()

    def test_capacity(self):
        chan = Channel("c", capacity=1)
        chan.put(1)
        with pytest.raises(SimulationError):
            chan.put(2)

    def test_wire_view(self):
        chan = Channel("c")
        assert not chan.valid
        chan.put(7)
        assert chan.valid
        assert chan.value == 7
        chan.clear()
        assert not chan.valid

    def test_preload_initial_tokens(self):
        chan = Channel("c")
        chan.preload([1, 2, 3])
        assert chan.tokens() == 3
        assert chan.total_produced == 0


class TestUntimedProcess:
    def test_actor_helper(self):
        add = actor("add", lambda a, b: {"y": a + b},
                    inputs={"a": 1, "b": 1}, outputs={"y": 1})
        assert {p.name for p in add.in_ports()} == {"a", "b"}
        assert [p.name for p in add.out_ports()] == ["y"]

    def test_firing_rule_default(self):
        add = actor("add", lambda a, b: {"y": a + b},
                    inputs={"a": 1, "b": 1}, outputs={"y": 1})
        system = System("s")
        system.add(add)
        ca = system.connect(None, add.port("a"), name="ca")
        cb = system.connect(None, add.port("b"), name="cb")
        cy = system.connect(add.port("y"), name="cy")
        assert not add.firing_rule()
        ca.put(1)
        assert not add.firing_rule()
        cb.put(2)
        assert add.firing_rule()
        add.fire()
        assert cy.get() == 3
        assert add.firings == 1

    def test_multirate_fire(self):
        downsample = actor("ds", lambda x: {"y": x[0]},
                           inputs={"x": 2}, outputs={"y": 1})
        system = System("s")
        system.add(downsample)
        cx = system.connect(None, downsample.port("x"), name="cx")
        cy = system.connect(downsample.port("y"), name="cy")
        cx.put(10)
        assert not downsample.firing_rule()
        cx.put(20)
        assert downsample.firing_rule()
        downsample.fire()
        assert cy.get() == 10

    def test_missing_output_token_is_error(self):
        bad = actor("bad", lambda a: {}, inputs={"a": 1}, outputs={"y": 1})
        system = System("s")
        system.add(bad)
        ca = system.connect(None, bad.port("a"), name="ca")
        system.connect(bad.port("y"), name="cy")
        ca.put(1)
        with pytest.raises(SimulationError):
            bad.fire()

    def test_behavior_must_be_overridden(self):
        p = UntimedProcess("p")
        with pytest.raises(NotImplementedError):
            p.behavior()

    def test_bad_rate(self):
        with pytest.raises(ModelError):
            UntimedProcess("p").add_input("a", rate=0)


class TestTimedProcess:
    def _simple(self):
        clk = Clock()
        a, y = Sig("a", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a).out(y)
        return clk, a, y, sfg

    def test_needs_fsm_or_sfg(self):
        with pytest.raises(ModelError):
            TimedProcess("p", Clock())

    def test_port_binding(self):
        clk, a, y, sfg = self._simple()
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_input("a", a)
        p.add_output("y", y)
        assert p.port("a").sig is a
        assert p.port("y").sig is y

    def test_register_cannot_be_input_port(self):
        clk, a, y, sfg = self._simple()
        r = Register("r", clk, F)
        p = TimedProcess("p", clk, sfgs=[sfg])
        with pytest.raises(ModelError):
            p.add_input("r", r)

    def test_register_output_port_allowed(self):
        clk, a, y, sfg = self._simple()
        r = Register("r", clk, F)
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_output("r", r)

    def test_select_sfgs_static(self):
        clk, a, y, sfg = self._simple()
        p = TimedProcess("p", clk, sfgs=[sfg])
        assert p.select_sfgs() == [sfg]

    def test_duplicate_port_rejected(self):
        clk, a, y, sfg = self._simple()
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_input("a", a)
        with pytest.raises(ModelError):
            p.add_input("a", a)

    def test_unknown_port_lookup(self):
        clk, a, y, sfg = self._simple()
        p = TimedProcess("p", clk, sfgs=[sfg])
        with pytest.raises(ModelError):
            p.port("nope")


class TestSystemWiring:
    def test_connect_and_lookup(self):
        add = actor("add", lambda a: {"y": a}, inputs={"a": 1}, outputs={"y": 1})
        system = System("s")
        system.add(add)
        assert system["add"] is add

    def test_duplicate_process_name(self):
        system = System("s")
        system.add(actor("p", lambda: {}, inputs={}, outputs={}))
        with pytest.raises(ModelError):
            system.add(actor("p", lambda: {}, inputs={}, outputs={}))

    def test_port_single_connection(self):
        a1 = actor("a1", lambda: {"y": 1}, inputs={}, outputs={"y": 1})
        a2 = actor("a2", lambda x: {}, inputs={"x": 1}, outputs={})
        system = System("s")
        system.add(a1)
        system.add(a2)
        system.connect(a1.port("y"), a2.port("x"))
        with pytest.raises(ModelError):
            system.connect(a1.port("y"))

    def test_direction_enforced(self):
        a1 = actor("a1", lambda x: {}, inputs={"x": 1}, outputs={})
        system = System("s")
        system.add(a1)
        with pytest.raises(ModelError):
            system.connect(a1.port("x"))  # input used as producer

    def test_fanout_to_multiple_consumers(self):
        src = actor("src", lambda: {"y": 1}, inputs={}, outputs={"y": 1})
        d1 = actor("d1", lambda x: {}, inputs={"x": 1}, outputs={})
        d2 = actor("d2", lambda x: {}, inputs={"x": 1}, outputs={})
        system = System("s")
        for p in (src, d1, d2):
            system.add(p)
        chan = system.connect(src.port("y"), d1.port("x"), d2.port("x"))
        assert len(chan.consumers) == 2

    def test_clocks_collected(self):
        clk = Clock("master")
        a, y = Sig("a", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a).out(y)
        p = TimedProcess("p", clk, sfgs=[sfg])
        system = System("s")
        system.add(p)
        assert system.clocks() == [clk]

    def test_pure_dataflow_detection(self):
        system = System("s")
        system.add(actor("a", lambda: {}, inputs={}, outputs={}))
        assert system.is_pure_dataflow()
