"""Batched value planes: 64 stimulus streams per pass vs 64 scalar runs.

Measures, for the same 64-stimulus workload, the wall-clock cost of the
gate-level engine on the HCOR netlist and on a synthesized DECT datapath
(the LMS equalizer tap): 64 scalar simulators vs one word-parallel
simulator packing the 64 streams into machine-word ints.

Writes ``BENCH_batched.json`` next to this file and prints a summary.
Exits 1 when no netlist clears an 8x speedup — the word-parallel
engine's reason to exist.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_batched.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.dirname(__file__))

OUT_PATH = os.path.join(os.path.dirname(__file__), "..",
                        "BENCH_batched.json")

LANES = 64
GATE_CYCLES = int(os.environ.get("BENCH_BATCHED_GATE_CYCLES", "40"))


def _bench_gate(name: str, netlist) -> Dict[str, float]:
    from repro.synth.gatesim import GateSimulator
    from repro.verify import random_stimulus

    programs = [random_stimulus(netlist, GATE_CYCLES, seed=100 + lane)
                for lane in range(LANES)]

    sims = [GateSimulator(netlist) for _ in range(LANES)]
    start = time.perf_counter()
    for lane, sim in enumerate(sims):
        for pins in programs[lane]:
            sim.step(pins)
    scalar_s = time.perf_counter() - start

    wide = GateSimulator(netlist, lanes=LANES)
    start = time.perf_counter()
    for cycle in range(GATE_CYCLES):
        wide.step({
            pin: [programs[lane][cycle][pin] for lane in range(LANES)]
            for pin in netlist.inputs
        })
    batched_s = time.perf_counter() - start

    return {
        "workload": f"{name} netlist, {LANES} streams x {GATE_CYCLES} "
                    "cycles",
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
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
        print(f"  gate     {key:9} scalar {cell['scalar_s']:7.3f}s  "
              f"batched {cell['batched_s']:7.3f}s  "
              f"speedup {cell['speedup']:6.2f}x")

    best = max(cell["speedup"] for cell in cells.values())
    if best < 8.0:
        print(f"FAIL: best speedup {best:.2f}x < 8x — batching is not "
              "paying for itself")
        return 1
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
