"""Guard rails: watchdog budgets, checkpoint/restore, structured errors."""

import pytest

from repro.core import DeadlockError, SimulationError, System, actor
from repro.sim import CompiledSimulator, CycleScheduler
from repro.sim.dataflow import DataflowScheduler
from repro.synth import GateSimulator
from repro.verify import Watchdog, checkpoint, restore, supports_checkpoint

from tests.conftest import build_counter_system, build_hold_system

pytestmark = pytest.mark.both_steps


class TestWatchdog:
    def test_completes_within_budget(self):
        ran = []
        result = Watchdog(max_cycles=100).run(ran.append, 10)
        assert result.complete
        assert result.exhausted is None
        assert result.cycles == 10
        assert ran == list(range(10))

    def test_cycle_budget_returns_partial(self):
        ran = []
        result = Watchdog(max_cycles=4).run(ran.append, 10)
        assert not result.complete
        assert result.exhausted == "cycles"
        assert result.cycles == 4
        assert ran == list(range(4))  # partial work stands

    def test_wall_clock_budget(self):
        ticks = iter([0.0, 0.0, 10.0, 10.0, 10.0])
        watchdog = Watchdog(max_seconds=1.0, clock=lambda: next(ticks))
        result = watchdog.run(lambda c: None, 100)
        assert result.exhausted == "wall_clock"
        assert result.cycles < 100

    def test_no_budget_runs_everything(self):
        result = Watchdog().run(lambda c: None, 25)
        assert result.complete
        assert result.cycles == 25

    def test_polling_interface(self):
        watchdog = Watchdog(max_cycles=2).start()
        assert watchdog.expired() is None
        watchdog.tick()
        watchdog.tick()
        assert watchdog.expired() == "cycles"

    def test_invalid_budget_rejected(self):
        with pytest.raises(SimulationError):
            Watchdog(max_cycles=-1)


class TestCheckpointRestore:
    """A restored engine must replay identically — determinism rail."""

    def test_cycle_scheduler_roundtrip(self):
        system, out, _count = build_counter_system()
        scheduler = CycleScheduler(system)
        scheduler.run(5)
        snap = checkpoint(scheduler)

        def collect(n):
            values = []
            for _ in range(n):
                scheduler.step()
                values.append(out.value.raw)
            return values

        first = collect(4)
        restore(scheduler, snap)
        assert scheduler.cycle == 5
        assert collect(4) == first

    def test_cycle_scheduler_fsm_state_restored(self):
        system, pin, out, _count, fsm = build_hold_system()
        scheduler = CycleScheduler(system)
        for _ in range(3):
            scheduler.step({pin: 0})
        snap = checkpoint(scheduler)
        scheduler.step({pin: 1})
        scheduler.step({pin: 1})
        assert fsm.current.name == "hold"
        restore(scheduler, snap)
        assert fsm.current.name == "execute"
        scheduler.step({pin: 0})
        assert fsm.current.name == "execute"

    def test_compiled_simulator_roundtrip(self):
        system, _out, _count = build_counter_system()
        sim = CompiledSimulator(system)
        sim.run(6)
        snap = checkpoint(sim)
        sim.run(10)
        after = sim.snapshot()
        restore(sim, snap)
        assert sim.cycle == 6
        sim.run(10)
        assert sim.snapshot() == after

    def test_gate_simulator_roundtrip(self, hcor_synthesis):
        from repro.verify import random_stimulus

        nl = hcor_synthesis.netlist
        sim = GateSimulator(nl)
        prog = random_stimulus(nl, 6, seed=11)
        for pins in prog[:3]:
            sim.step(pins)
        snap = checkpoint(sim)

        def tail():
            outs = []
            for pins in prog[3:]:
                sim.step(pins)
                outs.append(sim.settled_outputs())
            return outs

        first = tail()
        restore(sim, snap)
        assert sim.cycle == 3
        assert tail() == first

    def test_unsupported_engine_raises(self):
        with pytest.raises(SimulationError, match="checkpoint"):
            checkpoint(object())
        with pytest.raises(SimulationError, match="checkpoint"):
            restore(object(), {})


class TestSupportsCheckpoint:
    """The predicate runners use to plan recovery without try/except."""

    def test_every_engine_supports_checkpoint(self):
        system, _out, _count = build_counter_system()
        assert supports_checkpoint(CycleScheduler(system))
        system, _out, _count = build_counter_system()
        assert supports_checkpoint(CompiledSimulator(system))

        from tests.verify.conftest import build_and_netlist

        assert supports_checkpoint(GateSimulator(build_and_netlist()))
        assert supports_checkpoint(GateSimulator(build_and_netlist(),
                                                 lanes=4))

    def test_plain_objects_do_not(self):
        assert not supports_checkpoint(object())

    def test_half_a_contract_is_no_contract(self):
        class SaveOnly:
            def save_state(self):
                return {}

        class AttrsNotCallable:
            save_state = {}
            restore_state = {}

        assert not supports_checkpoint(SaveOnly())
        assert not supports_checkpoint(AttrsNotCallable())


class TestWatchdogBudgets:
    """remaining_*: what a shard may still spend (satellite of the runner)."""

    def test_unbounded_budgets_are_none(self):
        watchdog = Watchdog()
        assert watchdog.remaining_cycles() is None
        assert watchdog.remaining_seconds() is None

    def test_full_budget_before_start(self):
        watchdog = Watchdog(max_cycles=10, max_seconds=2.0)
        assert watchdog.remaining_cycles() == 10
        assert watchdog.remaining_seconds() == 2.0

    def test_ticks_spend_the_cycle_budget(self):
        watchdog = Watchdog(max_cycles=3).start()
        watchdog.tick()
        assert watchdog.remaining_cycles() == 2
        watchdog.tick()
        watchdog.tick()
        watchdog.tick()  # overdraft
        assert watchdog.remaining_cycles() == 0  # clamped, never negative

    def test_clock_spends_the_wall_budget(self):
        ticks = iter([0.0, 1.5, 9.0])
        watchdog = Watchdog(max_seconds=2.0, clock=lambda: next(ticks))
        watchdog.start()
        assert watchdog.remaining_seconds() == pytest.approx(0.5)
        assert watchdog.remaining_seconds() == 0.0  # clamped


class TestChildWatchdog:
    """Nested budgets: a child can never outspend its parent's remainder."""

    def test_child_clamped_to_parent_remainder(self):
        parent = Watchdog(max_cycles=10).start()
        for _ in range(7):
            parent.tick()
        child = parent.child(max_cycles=100)
        assert child.max_cycles == 3  # min(100, 10 - 7)

    def test_unbounded_request_inherits_remainder(self):
        ticks = iter([0.0, 1.0] + [1.0] * 10)
        parent = Watchdog(max_seconds=5.0, clock=lambda: next(ticks))
        parent.start()
        child = parent.child()
        assert child.max_seconds == pytest.approx(4.0)

    def test_unbounded_parent_passes_requests_through(self):
        child = Watchdog().child(max_cycles=8, max_seconds=1.0)
        assert child.max_cycles == 8
        assert child.max_seconds == 1.0
        assert Watchdog().child().max_cycles is None

    def test_child_shares_the_parent_clock(self):
        now = [0.0]
        parent = Watchdog(max_seconds=10.0, clock=lambda: now[0])
        parent.start()
        child = parent.child(max_seconds=100.0).start()
        now[0] = 10.0
        assert child.expired() == "wall_clock"  # parent deadline binds

    def test_grandchild_nests_the_clamp(self):
        parent = Watchdog(max_cycles=9).start()
        for _ in range(4):
            parent.tick()
        grandchild = parent.child(max_cycles=100).child(max_cycles=100)
        assert grandchild.max_cycles == 5

    def test_child_check_every_inherited_or_overridden(self):
        parent = Watchdog(max_cycles=10, check_every=8)
        assert parent.child().check_every == 8
        assert parent.child(check_every=2).check_every == 2


class TestFreshEngineRestore:
    """A checkpoint must carry across engine instances, not just rewind
    the one that wrote it — that is what makes campaign state portable
    (a replacement worker restores a snapshot its predecessor saved)."""

    def test_cycle_scheduler_restores_into_fresh_engine(self):
        system, out, _count = build_counter_system()
        first = CycleScheduler(system)
        first.run(5)
        snap = checkpoint(first)
        reference = []
        for _ in range(4):
            first.step()
            reference.append(out.value.raw)

        system2, out2, _count2 = build_counter_system()
        second = CycleScheduler(system2)
        restore(second, snap)
        assert second.cycle == 5
        replayed = []
        for _ in range(4):
            second.step()
            replayed.append(out2.value.raw)
        assert replayed == reference

    def test_cycle_scheduler_restores_fsm_into_fresh_engine(self):
        system, pin, _out, _count, fsm = build_hold_system()
        first = CycleScheduler(system)
        for drive in (0, 1, 1):
            first.step({pin: drive})
        assert fsm.current.name == "hold"
        snap = checkpoint(first)

        system2, pin2, _out2, _count2, fsm2 = build_hold_system()
        second = CycleScheduler(system2)
        restore(second, snap)
        assert fsm2.current.name == "hold"
        # Both engines must walk the same trajectory from here (the
        # registered request needs one cycle to clear, then execute).
        trajectory = []
        for drive in (0, 0, 1, 0):
            first.step({pin: drive})
            second.step({pin2: drive})
            trajectory.append(fsm2.current.name)
            assert fsm2.current.name == fsm.current.name
        assert "execute" in trajectory

    def test_compiled_simulator_restores_into_fresh_engine(self):
        system, _out, _count = build_counter_system()
        first = CompiledSimulator(system)
        first.run(6)
        snap = checkpoint(first)
        first.run(10)
        reference = first.snapshot()

        second = CompiledSimulator(build_counter_system()[0])
        restore(second, snap)
        assert second.cycle == 6
        second.run(10)
        assert second.snapshot() == reference

    def test_gate_simulator_lanes_restore_into_fresh_engine(self):
        from repro.verify import random_stimulus

        from tests.verify.conftest import build_and_netlist

        nl = build_and_netlist()
        program = random_stimulus(nl, 8, seed=5)
        first = GateSimulator(nl, lanes=4)
        for pins in program[:4]:
            first.step(pins)
        snap = checkpoint(first)

        def drive(sim):
            outs = []
            for pins in program[4:]:
                sim.step(pins)
                outs.append(sim.settled_outputs())
            return outs

        reference = drive(first)
        second = GateSimulator(build_and_netlist(), lanes=4)
        restore(second, snap)
        assert second.cycle == 4
        assert drive(second) == reference

    def test_gate_restore_rejects_lane_mismatch(self):
        from tests.verify.conftest import build_and_netlist

        snap = checkpoint(GateSimulator(build_and_netlist(), lanes=4))
        with pytest.raises(SimulationError, match="lanes"):
            restore(GateSimulator(build_and_netlist(), lanes=2), snap)


class TestStructuredDeadlocks:
    def test_cycle_deadlock_carries_diagnostics(self):
        from repro.core import SFG, Clock, Sig, TimedProcess
        from repro.fixpt import FxFormat

        clk = Clock()
        i, o = Sig("i", FxFormat(8, 4)), Sig("o", FxFormat(8, 4))
        sfg = SFG("starved")
        with sfg:
            o <<= i + 1
        sfg.inp(i).out(o)
        p = TimedProcess("starved", clk, sfgs=[sfg])
        p.add_input("i", i)
        p.add_output("o", o)
        system = System("s")
        system.add(p)
        system.connect(None, p.port("i"), name="pin")
        system.connect(p.port("o"), name="out")
        with pytest.raises(DeadlockError) as info:
            CycleScheduler(system).step()
        err = info.value
        assert err.cycle == 0
        assert err.iterations >= 1
        assert "starved" in err.pending
        assert err.pending["starved"]  # names the starving SFGs
        assert "pin" in err.channels and err.channels["pin"] == 0
        assert isinstance(err.trace, list)

    def test_dataflow_deadlock_carries_diagnostics(self):
        inc = actor("inc", lambda x: {"y": x + 1},
                    inputs={"x": 1}, outputs={"y": 1})
        system = System("s")
        system.add(inc)
        loop = system.connect(inc.port("y"), inc.port("x"))
        loop.preload([0])
        scheduler = DataflowScheduler(system)
        with pytest.raises(DeadlockError) as info:
            scheduler.run(max_firings=10)
        err = info.value
        assert loop.name in err.channels
        assert err.channels[loop.name] == 1  # the live looping token
        assert "blocked firing rules" in str(err)
        assert "channel tokens" in str(err)
