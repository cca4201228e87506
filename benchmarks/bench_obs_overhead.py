"""Observability overhead: what instrumentation costs per cycle.

Measures HCOR cycles/sec on both state-carrying engines in three
configurations:

* ``bare``           — no capture at all (``obs=None``);
* ``disabled``       — a capture with every feature off (must be free:
  the cycle scheduler attaches no monitor, the compiled simulator
  emits no instrumentation code);
* ``spans_disabled`` — like ``disabled``, with every ``SPAN_BLOCK``-cycle
  batch additionally wrapped in a span of a *disabled*
  :class:`~repro.obs.spans.SpanTracer` (the shared no-op handle must
  make untraced code free too; a span per work item matches how the
  sharded runner traces — one span per shard, never per clock edge);
* ``full``           — activity + FSM + events + engine self-profiling.

Every configuration batches ``SPAN_BLOCK`` cycles per timed call so the
timer overhead amortizes identically across rows.

Writes ``BENCH_obs.json`` next to ``BENCH_ir.json`` and prints a
summary.  Fails (exit 1) when either disabled configuration costs more
than ``MAX_DISABLED_OVERHEAD_PCT`` — the acceptance threshold for
"instrumentation you didn't ask for is instrumentation you don't pay
for".  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, Optional

sys.path.insert(0, os.path.dirname(__file__))

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")

#: Acceptance threshold: a disabled capture may cost at most this much.
MAX_DISABLED_OVERHEAD_PCT = 5.0
BENCH_SECONDS = 0.5
#: Repeat each measurement and keep the best rate (least-noise sample).
REPEATS = 3
#: Cycles per timed call — the size of one work item.  Spans delimit
#: units of work (the runner opens one span per shard), so this is the
#: granularity the ``spans_disabled`` row wraps one span around.
SPAN_BLOCK = 64


def _rate(step: Callable[[], None], min_seconds: float,
          cycles_per_call: int = 1) -> float:
    best = 0.0
    for _ in range(REPEATS):
        count = 0
        start = time.perf_counter()
        while True:
            step()
            count += cycles_per_call
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        best = max(best, count / elapsed)
    return best


def _make_capture(config: str):
    from repro.obs import Capture

    if config == "bare":
        return None
    if config in ("disabled", "spans_disabled"):
        return Capture(activity=False, fsm=False, events=False,
                       profile=False)
    return Capture(profile=True)


def _make_step(config: str, step: Callable[[], None]) -> Callable[[], None]:
    """Batch *step* into one ``SPAN_BLOCK``-cycle work item per call.

    For ``spans_disabled`` the batch is additionally wrapped in a span
    of a disabled tracer — the granularity the runner traces at.
    """
    def block() -> None:
        for _ in range(SPAN_BLOCK):
            step()

    if config != "spans_disabled":
        return block
    from repro.obs import SpanTracer

    tracer = SpanTracer(enabled=False)

    def traced() -> None:
        with tracer.span("item"):
            block()

    return traced


def _cycle_rate(config: str) -> float:
    from repro.designs.hcor import build_hcor
    from repro.sim import CycleScheduler

    design = build_hcor()
    scheduler = CycleScheduler(design.system, obs=_make_capture(config))
    pin = design.soft_in
    pins = {pin: 0.25}
    for _ in range(50):
        scheduler.step(pins)
    return _rate(_make_step(config, lambda: scheduler.step(pins)),
                 BENCH_SECONDS, cycles_per_call=SPAN_BLOCK)


def _compiled_rate(config: str) -> float:
    from repro.designs.hcor import build_hcor
    from repro.sim import CompiledSimulator

    design = build_hcor()
    simulator = CompiledSimulator(design.system, obs=_make_capture(config))
    pins = {"soft": 0.25}
    for _ in range(200):
        simulator.step(pins)
    return _rate(_make_step(config, lambda: simulator.step(pins)),
                 BENCH_SECONDS, cycles_per_call=SPAN_BLOCK)


def _overhead_pct(bare: float, instrumented: float) -> float:
    if bare <= 0:
        return 0.0
    return 100.0 * (bare - instrumented) / bare


def run() -> Dict[str, object]:
    results: Dict[str, object] = {"bench": "obs_overhead",
                                  "threshold_pct": MAX_DISABLED_OVERHEAD_PCT,
                                  "engines": {}}
    for engine, measure in (("interpreted", _cycle_rate),
                            ("compiled", _compiled_rate)):
        rates = {config: measure(config)
                 for config in ("bare", "disabled", "spans_disabled",
                                "full")}
        results["engines"][engine] = {
            "cycles_per_sec": rates,
            "disabled_overhead_pct":
                _overhead_pct(rates["bare"], rates["disabled"]),
            "spans_disabled_overhead_pct":
                _overhead_pct(rates["bare"], rates["spans_disabled"]),
            "full_overhead_pct":
                _overhead_pct(rates["bare"], rates["full"]),
        }
    return results


def main() -> int:
    results = run()
    with open(OUT_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    ok = True
    print(f"observability overhead (HCOR, best of {REPEATS})")
    for engine, data in results["engines"].items():
        rates = data["cycles_per_sec"]
        print(f"  {engine}")
        for config in ("bare", "disabled", "spans_disabled", "full"):
            print(f"    {config:14}: {rates[config]:10.1f} cyc/s")
        print(f"    disabled overhead: {data['disabled_overhead_pct']:+.2f}% "
              f"(spans {data['spans_disabled_overhead_pct']:+.2f}%, "
              f"limit {MAX_DISABLED_OVERHEAD_PCT}%), "
              f"full overhead: {data['full_overhead_pct']:+.2f}%")
        if data["disabled_overhead_pct"] > MAX_DISABLED_OVERHEAD_PCT:
            ok = False
        if data["spans_disabled_overhead_pct"] > MAX_DISABLED_OVERHEAD_PCT:
            ok = False

    if not ok:
        print("FAIL: a disabled capture (with or without spans) must be "
              "(near) free")
        return 1
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
