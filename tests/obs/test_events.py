"""The structured event trace, and the engine events that feed it."""

import io

import pytest

from repro.core import SFG, Clock, DeadlockError, Sig, System, TimedProcess
from repro.fixpt import FxFormat
from repro.obs import Capture, EventTrace, read_events
from repro.sim import CycleScheduler
from repro.verify import Watchdog

W = FxFormat(16, 8)


class TestEventTrace:
    def test_emit_assigns_monotone_seq(self):
        trace = EventTrace()
        trace.emit("cycle", cycle=0)
        trace.emit("fsm_transition", cycle=3, fsm="f", src="a", dst="b")
        assert [e["seq"] for e in trace.events] == [0, 1]
        assert trace.of_kind("cycle")[0]["cycle"] == 0
        assert trace.kinds() == {"cycle": 1, "fsm_transition": 1}

    def test_write_through_stream_is_crash_safe_jsonl(self):
        stream = io.StringIO()
        trace = EventTrace(stream)
        trace.emit("fault", detected=True)
        # The line is on the stream already, before any explicit save.
        events = read_events(io.StringIO(stream.getvalue()))
        assert events == [{"kind": "fault", "seq": 0, "detected": True}]

    def test_jsonl_roundtrip(self):
        trace = EventTrace()
        trace.emit("cycle", cycle=10)
        trace.emit("watchdog", budget="cycles", cycles=5, seconds=0.1)
        out = io.StringIO()
        assert trace.write_jsonl(out) == 2
        back = read_events(io.StringIO(out.getvalue()))
        assert back == trace.events

    def test_malformed_line_reports_line_number(self):
        bad = io.StringIO('{"kind": "cycle", "seq": 0}\n{truncated')
        with pytest.raises(ValueError, match="line 2"):
            read_events(bad)

    def test_blank_lines_skipped(self):
        assert read_events(io.StringIO("\n\n")) == []


def build_stuck_system():
    """A component waiting forever on an undriven input."""
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
    return system


class TestDeadlockEvents:
    def test_cycle_scheduler_deadlock_reaches_event_stream(self):
        cap = Capture()
        scheduler = CycleScheduler(build_stuck_system(), obs=cap)
        with pytest.raises(DeadlockError):
            scheduler.step()  # no pin driven
        events = cap.events.of_kind("deadlock")
        assert len(events) == 1
        event = events[0]
        assert "alone" in event["pending"]
        assert event["cycle"] == 0
        assert event["iterations"] >= 1

    def test_no_capture_no_events_still_raises(self):
        with pytest.raises(DeadlockError):
            CycleScheduler(build_stuck_system()).step()


class TestWatchdogEvents:
    def test_cycle_budget_expiry_emits_once(self):
        cap = Capture()
        dog = Watchdog(max_cycles=3, obs=cap)
        result = dog.run(lambda c: None, cycles=10)
        assert result.exhausted == "cycles"
        events = cap.events.of_kind("watchdog")
        assert len(events) == 1
        assert events[0]["budget"] == "cycles"
        assert events[0]["cycles"] == 3

    def test_polling_interface_emits_once(self):
        cap = Capture()
        dog = Watchdog(max_cycles=1, obs=cap).start()
        dog.tick()
        assert dog.expired() == "cycles"
        assert dog.expired() == "cycles"  # polled twice, one event
        assert len(cap.events.of_kind("watchdog")) == 1

    def test_restart_rearms_reporting(self):
        cap = Capture()
        dog = Watchdog(max_cycles=1, obs=cap).start()
        dog.tick()
        dog.expired()
        dog.start()
        dog.tick()
        dog.expired()
        assert len(cap.events.of_kind("watchdog")) == 2

    def test_complete_run_emits_nothing(self):
        cap = Capture()
        dog = Watchdog(max_cycles=100, obs=cap)
        assert dog.run(lambda c: None, cycles=5).complete
        assert cap.events.of_kind("watchdog") == []


class TestCampaignEvents:
    def test_fault_campaign_streams_progress(self):
        from repro.verify import FaultCampaign, random_stimulus

        from tests.verify.conftest import build_and_netlist

        netlist = build_and_netlist()
        cap = Capture()
        campaign = FaultCampaign(
            netlist, random_stimulus(netlist, 8, seed=1), obs=cap)
        report = campaign.run()
        kinds = cap.events.kinds()
        assert kinds["campaign_start"] == 1
        assert kinds["campaign_end"] == 1
        assert kinds["fault"] == len(report.results)
        end = cap.events.of_kind("campaign_end")[0]
        assert end["coverage"] == pytest.approx(report.coverage())

    def test_lane_packed_campaign_streams_the_same_events(self):
        from repro.verify import FaultCampaign, random_stimulus

        from tests.verify.conftest import build_and_netlist

        netlist = build_and_netlist()
        stimuli = random_stimulus(netlist, 8, seed=1)
        streams = []
        for lanes in (1, 3):  # three lanes: two chunks
            cap = Capture()
            FaultCampaign(netlist, stimuli, obs=cap, lanes=lanes).run()
            streams.append(cap.events.events)
        assert streams[0] == streams[1]
        assert [e["kind"] for e in streams[1]].count("fault") == 4
