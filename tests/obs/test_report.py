"""Reports on partial captures, forward-compat events, span trees, diffs."""

import json

import pytest

from repro.obs import diff_captures, load_capture, render_diff, render_text
from repro.obs.cli import main as cli_main
from repro.obs.report import runner_timeline, summarize


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


class TestPartialCaptures:
    def test_events_only_directory_loads_and_says_so(self, tmp_path):
        write_events(tmp_path / "events.jsonl",
                     [{"kind": "run_start", "t": 0.0, "seq": 0,
                       "shards": 2, "workers": 1, "work": 2, "reused": 0}])
        data = load_capture(str(tmp_path))
        assert data["capture_files"] == ["events.jsonl"]
        text = render_text(data)
        assert "capture contents: events.jsonl" in text
        assert "partial capture" in text
        assert "metrics.json" in text  # named as missing
        assert "spans.jsonl" in text

    def test_spans_only_directory_renders_the_tree(self, tmp_path):
        spans = [
            {"name": "campaign", "trace": "t", "span": "c", "parent": None,
             "start": 0.0, "dur": 2.0, "status": "ok"},
            {"name": "simulate", "trace": "t", "span": "s", "parent": "c",
             "start": 0.5, "dur": 1.5, "status": "failed"},
        ]
        with open(tmp_path / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        data = load_capture(str(tmp_path))
        summary = summarize(data)
        assert summary["spans"]["count"] == 2
        assert summary["spans"]["failed"] == 1
        assert summary["spans"]["phases"] == {"simulate": 1.5}
        text = render_text(data)
        assert "span tree (2 spans, 1 failed)" in text
        assert "critical path: campaign (2.000s) -> simulate (1.500s)" \
            in text

    def test_empty_directory_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="metrics.json"):
            load_capture(str(tmp_path))

    def test_full_capture_reports_no_missing_files(self, tmp_path):
        (tmp_path / "metrics.json").write_text(json.dumps(
            {"metrics": {}, "activity": {}, "fsm": {}, "profile": {},
             "events": {}}))
        write_events(tmp_path / "events.jsonl", [])
        (tmp_path / "spans.jsonl").write_text("")
        text = render_text(load_capture(str(tmp_path)))
        assert "partial capture" not in text


class TestForwardCompat:
    def stream(self):
        return [
            {"kind": "run_start", "t": 0.0, "seq": 0, "shards": 1,
             "workers": 1, "work": 1, "reused": 0},
            # A kind fabricated for this test — no reader knows it.
            {"kind": "quorum_elected", "t": 0.5, "seq": 1,
             "leader": "w2", "term": 7},
            {"kind": "run_end", "t": 1.0, "seq": 2, "complete": True,
             "completed": 1, "retries": 0, "abandoned": 0,
             "worker_deaths": 0, "wall_seconds": 1.0},
        ]

    def test_unknown_kind_gets_a_generic_timeline_row(self):
        rows = runner_timeline(self.stream())
        assert [row["kind"] for row in rows] \
            == ["run_start", "quorum_elected", "run_end"]
        unknown = rows[1]
        # key=value detail, bookkeeping fields (kind/seq/t) excluded.
        assert unknown["detail"] == "leader=w2, term=7"

    def test_unknown_kind_survives_to_the_rendered_report(self, tmp_path):
        write_events(tmp_path / "events.jsonl", self.stream())
        text = render_text(load_capture(str(tmp_path)))
        assert "quorum_elected" in text
        assert "leader=w2" in text


class TestDiff:
    def capture(self, detected, toggles=5, faults=10):
        return {
            "metrics": {"campaign/detected":
                        {"type": "counter", "value": detected}},
            "activity": {"dp/acc": {"width": 8, "samples": 100,
                                    "changes": toggles, "toggles": toggles,
                                    "toggle_rate": toggles / 100.0}},
            "events": {"fault": faults},
        }

    def test_identical_captures_diff_clean(self):
        diff = diff_captures(self.capture(3), self.capture(3))
        assert diff["rows"] == []
        assert diff["flagged"] == 0

    def test_threshold_gates_relative_change(self):
        diff = diff_captures(self.capture(100), self.capture(104),
                             threshold=0.05)
        (row,) = diff["rows"]
        assert row["name"] == "metric/campaign/detected"
        assert row["rel"] == pytest.approx(0.04)
        assert not row["flagged"]
        assert diff["flagged"] == 0

        diff = diff_captures(self.capture(100), self.capture(110),
                             threshold=0.05)
        assert diff["flagged"] == 1

    def test_appearing_scalar_is_always_flagged(self):
        new = self.capture(3)
        new["events"]["deadlock"] = 1
        diff = diff_captures(self.capture(3), new, threshold=0.5)
        (row,) = diff["rows"]
        assert row["name"] == "events/deadlock"
        assert row["old"] is None
        assert row["flagged"]

    def test_render_names_flagged_rows(self):
        diff = diff_captures(self.capture(10), self.capture(20))
        text = render_diff(diff)
        assert "FLAGGED" in text
        assert "metric/campaign/detected" in text
        assert "+100.0%" in text


class TestCli:
    def write_capture(self, directory, detected):
        directory.mkdir()
        (directory / "metrics.json").write_text(json.dumps(
            TestDiff().capture(detected)))
        return str(directory)

    def test_diff_exit_codes_follow_the_gate(self, tmp_path, capsys):
        a = self.write_capture(tmp_path / "a", 100)
        b = self.write_capture(tmp_path / "b", 104)
        assert cli_main(["diff", a, b, "--threshold", "5"]) == 0
        assert "capture diff" in capsys.readouterr().out
        assert cli_main(["diff", a, b]) == 1  # default threshold 0%

    def test_report_subcommand_and_bare_path_agree(self, tmp_path, capsys):
        """Only ``report`` renders a capture; a bare path is a usage
        error."""
        a = self.write_capture(tmp_path / "a", 7)
        assert cli_main(["report", a]) == 0
        assert "observability report" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            cli_main([a])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_tail_once_on_a_finished_journal(self, tmp_path, capsys):
        capture = tmp_path / "capture"
        capture.mkdir()
        records = [
            {"kind": "meta", "t": 0.0, "netlist": "hcor",
             "job": {"kind": "campaign"}, "plan": [[0, 2]], "work_size": 2},
            {"kind": "shard_done", "t": 1.0, "shard": 0},
            {"kind": "run_end", "t": 2.0, "complete": True},
        ]
        with open(capture / "journal.jsonl", "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        assert cli_main(["tail", str(capture), "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign hcor — 2/2 work items" in out
        assert "complete" in out
