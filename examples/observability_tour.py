#!/usr/bin/env python
"""Profile a design with the unified instrumentation layer.

One :class:`repro.obs.Capture` rides along with a full DECT burst decode
and collects, from a single run:

* per-register toggle counts (the switching-activity / power proxy),
* FSM state occupancy, transition fires and coverage,
* engine self-profiling (wall time per scheduled SFG),
* a structured JSONL event trace (FSM transitions, cycle markers),
* a VCD waveform via the regular tracer,

then saves everything to a capture directory and renders the same
report ``python -m repro.obs report <dir>`` would print.

Part two runs a *sharded* fault campaign with a capture directory: the
runner traces compile/simulate/merge spans, worker shards continue the
parent's trace across process boundaries, per-shard telemetry
fragments merge deterministically, and the journal doubles as a live
progress stream (``python -m repro.obs tail <dir>`` while it runs).

Run:  python examples/observability_tour.py [capture_dir]
"""

import sys
import tempfile

import numpy as np

from repro.designs.dect import DectTransceiver
from repro.dsp import (
    ComplexLmsEqualizer,
    build_burst,
    modulate,
    random_payloads,
)
from repro.obs import Capture, load_capture, render_text
from repro.sim import Tracer


def main():
    rng = np.random.default_rng(7)

    # -- a clean burst and trained coefficients --------------------------------
    a_payload, b_payload = random_payloads(rng)
    burst = build_burst(a_payload, b_payload)
    samples = modulate(burst.bits, 8)
    equalizer = ComplexLmsEqualizer()
    equalizer.train(samples, burst.bits[:32])

    # -- one instrumented run ---------------------------------------------------
    capture = Capture(profile=True, cycle_markers=500)
    transceiver = DectTransceiver(obs=capture)
    chip = transceiver.chip

    # A waveform tracer rides on the same capture: trace the PC
    # controller's registers into the saved VCD.
    from repro.obs import register_watchlist

    tracer = Tracer()
    for hier, reg in register_watchlist(chip.system):
        if hier.startswith("pcctrl/"):
            tracer.watch(reg)
    transceiver.scheduler.monitors.append(tracer)
    capture.attach_vcd(tracer)

    holds = list(range(400, 430))  # exercise the Fig. 2 hold behaviour
    result = transceiver.run_burst(
        list(samples[::4]),
        transceiver.chip_coefficients(equalizer.weights),
        max_cycles=4200, hold_cycles=holds,
    )
    print(f"decoded {result['cycles']} cycles: sync={result['sync_found']} "
          f"crc_ok={result['crc_ok']}")

    # -- save and report --------------------------------------------------------
    directory = sys.argv[1] if len(sys.argv) > 1 \
        else tempfile.mkdtemp(prefix="dect_capture_")
    capture.save(directory)
    print(f"capture saved to {directory} "
          "(metrics.json, events.jsonl, trace.vcd)")
    print(f"render it any time with:  python -m repro.obs report {directory}\n")

    print(render_text(load_capture(directory), top=8))

    # -- part two: a traced sharded campaign -------------------------------------
    run_traced_campaign()


def run_traced_campaign():
    """A sharded fault campaign with cross-process tracing and telemetry."""
    from repro.runner import ArtifactCache, CampaignJob, ShardedRunner

    cache_dir = tempfile.mkdtemp(prefix="and2_cache_")
    capture_dir = tempfile.mkdtemp(prefix="and2_campaign_")
    job = CampaignJob(design="and2", cycles=6, seed=7, lanes=4)
    print("\nsharded fault campaign (and2, 2 workers), traced and captured")
    print(f"follow it live with:  python -m repro.obs tail {capture_dir}")
    outcome = ShardedRunner(job, workers=2, shard_size=1,
                            cache=ArtifactCache(cache_dir),
                            capture_dir=capture_dir).run()
    print(outcome.report.report())

    # The capture directory now holds the merged campaign telemetry
    # (byte-identical whatever the worker count), the lifecycle events,
    # the span tree and the journal — one report renders them all.
    print(f"campaign capture saved to {capture_dir} "
          "(metrics.json, events.jsonl, spans.jsonl, journal.jsonl)")
    print(render_text(load_capture(capture_dir), top=4))


if __name__ == "__main__":
    main()
