"""Batched value planes: 64 stimulus streams per pass vs 64 scalar runs.

Measures, for the same 64-stimulus workload, the wall-clock cost of the
gate-level engine on the HCOR netlist and on a synthesized DECT datapath
(the LMS equalizer tap): 64 scalar simulators vs one word-parallel
simulator packing the 64 streams into machine-word ints.  Each side is
timed :data:`REPEATS` times on fresh simulators, alternating sides, and
a netlist's speedup is the median of the per-repeat ratios.

Writes ``BENCH_batched.json`` next to this file (each repeat's times,
the speedups' median and quartiles, and the repeat count) and prints a
summary.  Exits 1 when no netlist's median speedup clears 8x — the
word-parallel engine's reason to exist.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_batched.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.dirname(__file__))

OUT_PATH = os.path.join(os.path.dirname(__file__), "..",
                        "BENCH_batched.json")

LANES = 64
GATE_CYCLES = 40
#: Timed runs per side and netlist: one ``perf_counter`` pair around a
#: few milliseconds is too noisy to gate on alone.
REPEATS = 7


def _bench_gate(name: str, netlist) -> Dict[str, object]:
    from repro.synth.gatesim import GateSimulator
    from repro.verify import random_stimulus

    programs = [random_stimulus(netlist, GATE_CYCLES, seed=100 + lane)
                for lane in range(LANES)]

    def scalar() -> float:
        sims = [GateSimulator(netlist) for _ in range(LANES)]
        start = time.perf_counter()
        for lane, sim in enumerate(sims):
            for pins in programs[lane]:
                sim.step(pins)
        return time.perf_counter() - start

    def batched() -> float:
        wide = GateSimulator(netlist, lanes=LANES)
        start = time.perf_counter()
        for cycle in range(GATE_CYCLES):
            wide.step({
                pin: [programs[lane][cycle][pin] for lane in range(LANES)]
                for pin in netlist.inputs
            })
        return time.perf_counter() - start

    scalar_s, batched_s = [], []
    for _ in range(REPEATS):
        scalar_s.append(scalar())
        batched_s.append(batched())
    speedups = [s / b for s, b in zip(scalar_s, batched_s)]
    low, median, high = statistics.quantiles(speedups, n=4,
                                             method="inclusive")
    return {
        "workload": f"{name} netlist, {LANES} streams x {GATE_CYCLES} "
                    "cycles",
        "repeats": REPEATS,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": median,
        "speedup_quartiles": [low, high],
    }


def run() -> Dict[str, object]:
    from repro.core import Clock
    from repro.designs.dect import datapaths
    from repro.designs.hcor import build_hcor
    from repro.synth.flow import synthesize_process

    hcor_netlist = synthesize_process(build_hcor().process).netlist
    lms_netlist = synthesize_process(
        datapaths.build_lms(Clock("bench_lms"))).netlist

    return {
        "bench": "batched",
        "lanes": LANES,
        "gate": {
            "hcor": _bench_gate("hcor", hcor_netlist),
            "dect_lms": _bench_gate("dect_lms", lms_netlist),
        },
    }


def main() -> int:
    results = run()
    with open(OUT_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    cells = results["gate"]
    print(f"batched value planes — {results['lanes']} stimulus streams "
          "per pass")
    for key, cell in cells.items():
        low, high = cell["speedup_quartiles"]
        print(f"  gate     {key:9} scalar "
              f"{statistics.median(cell['scalar_s']):7.3f}s  "
              f"batched {statistics.median(cell['batched_s']):7.3f}s  "
              f"speedup {cell['speedup']:6.2f}x "
              f"(quartiles {low:.2f}-{high:.2f}x, "
              f"{cell['repeats']} repeats)")

    best = max(cell["speedup"] for cell in cells.values())
    if best < 8.0:
        print(f"FAIL: best median speedup {best:.2f}x < 8x — batching is "
              "not paying for itself")
        return 1
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
