"""The Capture object: probes, per-engine observers, save/report/CLI."""

import io
import json

import pytest

from repro.core import System, actor
from repro.fixpt import FxFormat, RangeTracer
from repro.obs import Capture, Instrumentation, load_capture, render_text
from repro.obs.cli import main as cli_main
from repro.sim import CycleScheduler, DataflowScheduler, Tracer

from tests.conftest import build_counter_system, build_hold_system

W8 = FxFormat(8, 8)


class TestProbes:
    def test_default_probe_feeds_a_gauge(self):
        system, out, count = build_counter_system()
        cap = Capture()
        cap.probe(count)
        scheduler = CycleScheduler(system, obs=cap)
        scheduler.run(5)
        gauge = cap.metrics["probe/count"]
        assert gauge.samples == 5
        assert gauge.value == 5.0
        assert gauge.max_value == 5.0

    def test_custom_fn_sees_cycle_and_postcommit_value(self):
        system, out, count = build_counter_system()
        cap = Capture()
        seen = []
        cap.probe(count, fn=lambda cycle, v: seen.append((cycle, float(v))))
        CycleScheduler(system, obs=cap).run(3)
        assert seen == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_channel_probe_skips_invalid_cycles(self):
        system, pin, out, _count, _fsm = build_hold_system()
        cap = Capture()
        seen = []
        cap.probe(out, fn=lambda cycle, v: seen.append(float(v)))
        scheduler = CycleScheduler(system, obs=cap)
        for _ in range(4):
            scheduler.step({pin: 0})
        assert len(seen) == 4  # driven every cycle here

    def test_range_tracer_probe_integration(self):
        # fixpt's RangeTracer plugs in as a probe fn without obs imports.
        system, out, count = build_counter_system()
        cap = Capture()
        tracer = RangeTracer()
        cap.probe(count, fn=tracer.probe("count"))
        CycleScheduler(system, obs=cap).run(6)
        rec = tracer["count"]
        assert rec.count == 6
        assert rec.max_value == 6.0


class TestDataflowObserver:
    def build(self):
        produced = iter(range(6))
        collected = []
        src = actor("src", lambda: {"y": next(produced)},
                    inputs={}, outputs={"y": 1},
                    firing_rule=lambda: len(collected) < 6)
        sink = actor("sink", lambda x: collected.append(x) or {},
                     inputs={"x": 1}, outputs={})
        system = System("pipe")
        system.add(src)
        system.add(sink)
        system.connect(src.port("y"), sink.port("x"))
        return system

    def test_firing_counters_and_queue_highwater(self):
        cap = Capture()
        DataflowScheduler(self.build(), obs=cap).run()
        assert cap.metrics["dataflow/src/firings"].value == 6
        assert cap.metrics["dataflow/sink/firings"].value == 6
        names = cap.metrics.names("dataflow/queue/")
        assert names
        assert cap.metrics[names[0]].max_value >= 0

    def test_fire_events_opt_in(self):
        quiet = Capture()
        DataflowScheduler(self.build(), obs=quiet).run()
        assert quiet.events.of_kind("fire") == []

        chatty = Capture(trace_fires=True)
        DataflowScheduler(self.build(), obs=chatty).run()
        fires = chatty.events.of_kind("fire")
        assert len(fires) == 12
        assert {e["process"] for e in fires} == {"src", "sink"}


class TestGateMonitor:
    def test_output_bus_toggles_counted(self):
        from repro.synth import GateSimulator

        from tests.verify.conftest import build_and_netlist

        cap = Capture()
        sim = GateSimulator(build_and_netlist(), obs=cap)
        for a, b in ((0, 0), (1, 1), (0, 1), (1, 1)):
            sim.step({"a": a, "b": b})
        stats = cap.activity.records()["and2/y"]
        assert stats.samples == 4
        # y: 0, 1, 0, 1 -> three changes after the baseline sample.
        assert stats.changes == 3
        assert stats.toggles == 3


class TestSaveAndReport:
    def run_capture(self, tmp_path):
        system, pin, _out, count, _fsm = build_hold_system()
        cap = Capture(profile=True, cycle_markers=5)
        tracer = Tracer(count)
        scheduler = CycleScheduler(system, obs=cap)
        scheduler.monitors.append(tracer)
        for c in range(12):
            scheduler.step({pin: 1 if c in (4, 5) else 0})
        cap.attach_vcd(tracer)
        directory = tmp_path / "capture"
        cap.save(str(directory))
        return directory

    def test_save_writes_all_artifacts(self, tmp_path):
        directory = self.run_capture(tmp_path)
        names = sorted(p.name for p in directory.iterdir())
        assert names == ["events.jsonl", "metrics.json", "trace.vcd"]
        data = json.loads((directory / "metrics.json").read_text())
        assert "ctl/count" in data["activity"]
        assert "ctl/ctl" in data["fsm"]
        assert data["profile"]  # profiling was on
        vcd = (directory / "trace.vcd").read_text()
        assert "$enddefinitions" in vcd

    def test_load_and_render_roundtrip(self, tmp_path):
        directory = self.run_capture(tmp_path)
        data = load_capture(str(directory))
        assert data["event_list"]  # events.jsonl inlined
        text = render_text(data)
        assert "observability report" in text
        assert "ctl/count" in text
        assert "FSM coverage" in text
        assert "hot blocks" in text

    def test_cli_text_and_json(self, tmp_path, capsys):
        directory = self.run_capture(tmp_path)
        assert cli_main(["report", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "FSM coverage" in out

        assert cli_main(["report", str(directory), "--json",
                         "--top", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["signals"] == len(
            json.loads((directory / "metrics.json").read_text())["activity"])
        assert len(summary["top_toggles"]) <= 3

    def test_cli_rejects_non_capture_dir(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path)]) == 1
        assert "metrics.json" in capsys.readouterr().err

    def test_event_stream_write_through(self):
        stream = io.StringIO()
        system, pin, _out, _count, _fsm = build_hold_system()
        cap = Capture(event_stream=stream, cycle_markers=1)
        scheduler = CycleScheduler(system, obs=cap)
        scheduler.step({pin: 0})
        assert '"kind": "cycle"' in stream.getvalue()

    def test_instrumentation_alias(self):
        assert Instrumentation is Capture
