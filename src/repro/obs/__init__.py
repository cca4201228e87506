"""Unified observability: probes, profiles, event traces, reports.

One :class:`Capture` object instruments any of the four execution
engines — pass it as the ``obs`` argument of
:class:`~repro.sim.cycle.CycleScheduler`,
:class:`~repro.sim.compiled.CompiledSimulator`,
:class:`~repro.sim.dataflow.DataflowScheduler` or
:class:`~repro.synth.gatesim.GateSimulator` — and collects:

* a metrics registry (counters / gauges / histograms, hierarchical names);
* per-signal toggle counts (switching-activity proxy for power);
* per-FSM-state occupancy, transition fires and coverage;
* opt-in engine self-profiling (wall time per SFG / lowered IR block);
* a structured JSONL event trace (FSM transitions, firings, deadlocks,
  watchdog expiries, fault-campaign events) with source locations.

``Capture.save(dir)`` serializes everything; ``python -m repro.obs report
dir`` renders the report.

Layering contract (enforced by ``tools/check_layering.py``): this
package imports only ``core``, ``ir`` and ``fixpt``.  Engines import
obs; obs never imports an engine.
"""

from .activity import ActivityProfile, ToggleStats
from .aggregate import merge_captures
from .capture import (
    Capture,
    Instrumentation,
    Probe,
    fsm_watchlist,
    register_watchlist,
)
from .engineprof import BlockTime, EngineProfile
from .events import EventTrace, read_events
from .fsmprof import FsmProfile, FsmStats, TransitionStats
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import (
    diff_captures,
    load_capture,
    render_diff,
    render_json,
    render_text,
    summarize,
)
from .spans import (
    Span,
    SpanContext,
    SpanTracer,
    critical_path,
    read_spans,
    span_tree,
)
from .tail import TailState, follow, render_tail

__all__ = [
    "ActivityProfile",
    "BlockTime",
    "Capture",
    "Counter",
    "EngineProfile",
    "EventTrace",
    "FsmProfile",
    "FsmStats",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "Probe",
    "Span",
    "SpanContext",
    "SpanTracer",
    "TailState",
    "ToggleStats",
    "TransitionStats",
    "critical_path",
    "diff_captures",
    "follow",
    "fsm_watchlist",
    "load_capture",
    "merge_captures",
    "read_events",
    "read_spans",
    "render_diff",
    "render_json",
    "render_tail",
    "render_text",
    "span_tree",
    "summarize",
]
