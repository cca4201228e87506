"""Tests for the three-phase cycle scheduler (paper section 4, Fig. 6)."""

import pytest

from collections import Counter

from repro.core import (
    FSM,
    SFG,
    Clock,
    DeadlockError,
    ModelError,
    Register,
    Sig,
    System,
    TimedProcess,
    actor,
    always,
    cnd,
    ge,
    le,
)
from repro.fixpt import FxFormat
from repro.obs import Capture
from repro.sim import CycleScheduler, Recorder

from tests.conftest import (
    build_counter_system,
    build_hold_system,
    build_loop_system,
)

W = FxFormat(16, 16)


class TestBasics:
    def test_counter_counts(self):
        system, out, count = build_counter_system()
        scheduler = CycleScheduler(system)
        recorder = Recorder(out)
        scheduler.monitors.append(recorder)
        scheduler.run(5)
        assert [float(v) for v in recorder["q"]] == [0, 1, 2, 3, 4]
        assert float(count.current) == 5

    def test_needs_a_timed_process(self):
        system = System("s")
        system.add(actor("a", lambda: {}, inputs={}, outputs={}))
        with pytest.raises(ModelError):
            CycleScheduler(system)

    def test_reset(self):
        system, out, count = build_counter_system()
        scheduler = CycleScheduler(system)
        scheduler.run(5)
        scheduler.reset()
        assert scheduler.cycle == 0
        assert float(count.current) == 0
        scheduler.run(2)
        assert float(count.current) == 2

    def test_drive_from_iterable(self):
        system, pin, out, count, fsm = build_hold_system()
        scheduler = CycleScheduler(system)
        scheduler.drive(pin, [0, 0, 1, 1, 0])
        scheduler.run(5)
        assert float(count.current) == 3  # held two cycles

    def test_drive_from_function(self):
        system, pin, out, count, fsm = build_hold_system()
        scheduler = CycleScheduler(system)
        scheduler.drive(pin, lambda cycle: 1 if cycle in (2, 3) else 0)
        scheduler.run(5)
        assert float(count.current) == 3

    def test_untimed_rate_must_be_one(self):
        clk = Clock()
        a, y = Sig("a", W), Sig("y", W)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a).out(y)
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_input("a", a)
        p.add_output("y", y)
        bad = actor("bad", lambda x: {"z": 0}, inputs={"x": 2},
                    outputs={"z": 1})
        system = System("s")
        system.add(p)
        system.add(bad)
        system.connect(p.port("y"), bad.port("x"))
        with pytest.raises(ModelError):
            CycleScheduler(system)


class TestFigure6Loop:
    """The paper's Fig. 6: timed/untimed loop with a circular dependency."""

    def test_loop_simulates(self):
        system, (ch_addr, ch_ram, ch_back), data_reg = build_loop_system()
        scheduler = CycleScheduler(system)
        recorder = Recorder(ch_addr, ch_ram, ch_back)
        scheduler.monitors.append(recorder)
        scheduler.run(4)
        assert [float(v) for v in recorder["c1_addr"]] == [0, 1, 2, 3]
        assert [float(v) for v in recorder["c2_y"]] == [100, 101, 102, 103]
        assert recorder["ram_q"] == [200, 202, 204, 206]

    def test_phase1_token_breaks_loop(self):
        """The register-only output (addr) is the phase-1 token; without it
        the loop c1 -> c2 -> ram -> c1 could never start."""
        system, chans, data_reg = build_loop_system()
        scheduler = CycleScheduler(system)
        scheduler.step()
        assert float(data_reg.current) == 200.0

    def test_untimed_fires_once_per_cycle(self):
        system, chans, _ = build_loop_system()
        ram = system["ram"]
        scheduler = CycleScheduler(system)
        scheduler.run(3)
        assert ram.firings == 3

    def test_combinational_loop_deadlocks(self):
        clk = Clock()

        def passthrough(name, offset):
            i, o = Sig(f"{name}_i", W), Sig(f"{name}_o", W)
            sfg = SFG(name)
            with sfg:
                o <<= i + offset
            sfg.inp(i).out(o)
            p = TimedProcess(name, clk, sfgs=[sfg])
            p.add_input("i", i)
            p.add_output("o", o)
            return p

        p1 = passthrough("p1", 1)
        p2 = passthrough("p2", 2)
        system = System("comb_loop")
        system.add(p1)
        system.add(p2)
        system.connect(p1.port("o"), p2.port("i"))
        system.connect(p2.port("o"), p1.port("i"))
        with pytest.raises(DeadlockError, match="deadlock"):
            CycleScheduler(system).step()

    def test_deadlock_message_names_blocked_component(self):
        clk = Clock()
        i, o = Sig("i", W), Sig("o", W)
        sfg = SFG("alone")
        with sfg:
            o <<= i + 1
        sfg.inp(i).out(o)
        p = TimedProcess("alone", clk, sfgs=[sfg])
        p.add_input("i", i)
        p.add_output("o", o)
        system = System("s")
        system.add(p)
        system.connect(None, p.port("i"), name="pin")
        system.connect(p.port("o"))
        # No pin driven: the component waits forever on its input.
        with pytest.raises(DeadlockError, match="alone"):
            CycleScheduler(system).step()


class TestHoldController:
    """The Fig. 2 execute/hold behaviour at system level."""

    def test_freeze_and_resume(self):
        system, pin, out, count, fsm = build_hold_system()
        scheduler = CycleScheduler(system)
        trace = []
        requests = [0, 0, 1, 1, 1, 0, 0]
        for req in requests:
            scheduler.step({pin: req})
            trace.append(float(count.current))
        # The pin is sampled into a register (one cycle of latency), so the
        # counter freezes one cycle after assertion and resumes one cycle
        # after release: 1,2,3 then held at 3, then 4.
        assert trace == [1, 2, 3, 3, 3, 3, 4]

    def test_fsm_state_follows_request(self):
        system, pin, out, count, fsm = build_hold_system()
        scheduler = CycleScheduler(system)
        scheduler.step({pin: 0})
        assert fsm.current.name == "execute"
        scheduler.step({pin: 1})  # sampled into the register this cycle
        scheduler.step({pin: 1})  # condition seen: go to hold
        assert fsm.current.name == "hold"
        scheduler.step({pin: 0})
        scheduler.step({pin: 0})
        assert fsm.current.name == "execute"


class TestPartialEvaluation:
    """Per-output partial evaluation: an output that does not depend on a
    late input is produced without waiting for it (paper phase 2a)."""

    def test_independent_output_produced_early(self):
        clk = Clock()
        # Component A: out1 depends only on a register; out2 depends on in1.
        r = Register("r", clk, W)
        in1, out1, out2 = Sig("in1", W), Sig("out1", W), Sig("out2", W)
        sfg_a = SFG("a")
        with sfg_a:
            out1 <<= r + 1
            out2 <<= in1 * 2
            r <<= r + 1
        sfg_a.inp(in1).out(out1, out2)
        comp_a = TimedProcess("A", clk, sfgs=[sfg_a])
        comp_a.add_input("in1", in1)
        comp_a.add_output("out1", out1)
        comp_a.add_output("out2", out2)

        # Component B: combinationally routes A.out1 back to A.in1.
        b_in, b_out = Sig("b_in", W), Sig("b_out", W)
        sfg_b = SFG("b")
        with sfg_b:
            b_out <<= b_in + 10
        sfg_b.inp(b_in).out(b_out)
        comp_b = TimedProcess("B", clk, sfgs=[sfg_b])
        comp_b.add_input("x", b_in)
        comp_b.add_output("y", b_out)

        system = System("partial")
        system.add(comp_a)
        system.add(comp_b)
        system.connect(comp_a.port("out1"), comp_b.port("x"))
        system.connect(comp_b.port("y"), comp_a.port("in1"))
        ch_out2 = system.connect(comp_a.port("out2"))

        scheduler = CycleScheduler(system)
        recorder = Recorder(ch_out2)
        scheduler.monitors.append(recorder)
        scheduler.run(2)
        # Cycle 0: out1 = 1, B gives 11, out2 = 22.
        assert [float(v) for v in recorder["A_out2"]] == [22.0, 24.0]


class TestDeadlockPaths:
    """The scheduler's deadlock machinery: iteration budget, message
    content, and recoverability after a caught DeadlockError."""

    @staticmethod
    def _passthrough(name, clk, offset):
        i, o = Sig(f"{name}_i", W), Sig(f"{name}_o", W)
        sfg = SFG(name)
        with sfg:
            o <<= i + offset
        sfg.inp(i).out(o)
        p = TimedProcess(name, clk, sfgs=[sfg])
        p.add_input("i", i)
        p.add_output("o", o)
        return p

    def _chain_system(self):
        """pin -> p2 -> p1 -> out, added in reverse dependency order so
        the relaxation loop needs a second sweep to feed p1."""
        clk = Clock()
        p1 = self._passthrough("p1", clk, 1)
        p2 = self._passthrough("p2", clk, 2)
        system = System("chain")
        system.add(p1)
        system.add(p2)
        system.connect(p2.port("o"), p1.port("i"))
        pin = system.connect(None, p2.port("i"), name="pin")
        out = system.connect(p1.port("o"), name="out")
        return system, pin, out

    def test_max_iterations_boundary(self):
        system, pin, out = self._chain_system()
        with pytest.raises(DeadlockError):
            CycleScheduler(system, max_iterations=1).step({pin: 0})

        system, pin, out = self._chain_system()
        CycleScheduler(system, max_iterations=2).step({pin: 0})
        assert float(out.value) == 3.0  # 0 + 2 + 1

    def test_deadlock_message_content(self):
        system, _pin, _out = self._chain_system()
        with pytest.raises(DeadlockError) as info:
            CycleScheduler(system).step()  # pin never driven
        message = str(info.value)
        assert "deadlocked in the evaluation phase" in message
        assert "cycle 0" in message
        assert "p2 waits on ['i']" in message
        assert "p1 waits on ['i']" in message

    def test_structured_attributes(self):
        system, _pin, _out = self._chain_system()
        with pytest.raises(DeadlockError) as info:
            CycleScheduler(system).step()
        err = info.value
        assert err.cycle == 0
        assert err.pending.get("p2") == ["i"]
        assert err.channels.get("pin") == 0
        assert err.iterations >= 1
        assert err.trace  # per-iteration firing counts

    def test_recovery_after_caught_deadlock(self):
        system, pin, out = self._chain_system()
        scheduler = CycleScheduler(system)
        with pytest.raises(DeadlockError):
            scheduler.step()  # starve the chain
        # Same scheduler, now fed: simulation must proceed normally.
        scheduler.step({pin: 5})
        assert float(out.value) == 8.0
        scheduler.step({pin: 7})
        assert float(out.value) == 10.0


class TestEngineProfile:
    """``Capture(profile=True)`` attributes time to every assignment run."""

    @staticmethod
    def _sawtooth():
        """An FSM counting up with a two-assignment SFG, then down with a
        three-assignment one, plus a one-assignment static SFG."""
        clk = Clock()
        n = Register("n", clk, W)
        last = Register("last", clk, W)
        ticks = Register("ticks", clk, W)
        delta = Sig("delta", W)
        up = SFG("up")
        with up:
            n <<= n + 1
            last <<= n
        down = SFG("down")
        with down:
            delta <<= n - last
            n <<= n - 1
            last <<= delta
        tick = SFG("tick")
        with tick:
            ticks <<= ticks + 1
        fsm = FSM("saw")
        rise = fsm.initial("rise")
        fall = fsm.state("fall")
        rise << cnd(ge(n, 3)) << down << fall
        rise << always << up << rise
        fall << cnd(le(n, 0)) << up << rise
        fall << always << down << fall
        process = TimedProcess("saw", clk, fsm=fsm, sfgs=[tick])
        process.add_output("n", n)
        system = System("sawtooth")
        system.add(process)
        system.connect(process.port("n"), name="n")
        return system, fsm, process

    def test_calls_equal_executed_assignments(self):
        system, fsm, process = self._sawtooth()
        capture = Capture(activity=False, fsm=False, events=False,
                          profile=True)
        scheduler = CycleScheduler(system, obs=capture)
        executed = Counter()
        taken = set()
        for _ in range(20):
            scheduler.step()
            taken.add(fsm.last_taken)
            for sfg in fsm.last_taken.sfgs + process.static_sfgs:
                executed[f"saw/{sfg.name}"] += len(sfg.assignments)
        assert taken == set(fsm.transitions)  # every transition fired
        records = capture.profile.records()
        assert {label: record.calls for label, record in records.items()} \
            == dict(executed)
        assert executed["saw/down"] % 3 == 0 and executed["saw/down"] > 0
        assert all(record.seconds >= 0 for record in records.values())
