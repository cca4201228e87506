#!/usr/bin/env python
"""The HCOR header correlator processor (Table 1's 6 Kgate design).

A bursty soft-symbol stream with three DECT bursts is pushed through the
bit-true HCOR design; detections are compared against the algorithmic
reference model, the design is synthesized to gates (the paper's Fig. 8
flow) and the netlist is verified against the captured stimuli.

Run:  python examples/hcor_correlator.py
"""

import sys

import numpy as np

from repro.designs.hcor import build_hcor, run_hcor
from repro.dsp import build_burst, detect_all, modulate, demodulate, nrz, random_payloads
from repro.sim import CycleScheduler, PortLog
from repro.synth import component_report, synthesize_process, verify_component


def lint_targets():
    """Design objects for ``tools/lint.py``."""
    return [build_hcor().system]


def main():
    rng = np.random.default_rng(7)

    print("== building a three-burst stream ==")
    stream = []
    true_positions = []
    for index in range(3):
        stream.extend(rng.normal(scale=0.15, size=60).tolist())
        a, b = random_payloads(rng)
        burst = build_burst(a, b)
        true_positions.append(len(stream) + 32)
        samples = modulate(burst.bits, 8)
        soft, _ = demodulate(samples, len(burst.bits), 8)
        stream.extend(soft.tolist())
    print(f"  {len(stream)} symbols, payload starts at {true_positions}")

    print("\n== reference model detections ==")
    hits = detect_all(stream)
    print(f"  {[h.position for h in hits]}")

    print("\n== HCOR hardware detections ==")
    design = build_hcor()
    hardware_hits = run_hcor(design, stream + [0.0] * 4)
    print(f"  {hardware_hits}")
    print(f"  matches reference: "
          f"{hardware_hits == [h.position for h in hits]}")
    print(f"  matches truth    : {hardware_hits == true_positions}")

    print("\n== synthesis (paper: 6 Kgates) ==")
    design2 = build_hcor()
    log = PortLog(design2.process)
    scheduler = CycleScheduler(design2.system)
    scheduler.monitors.append(log)
    for value in stream[:300]:
        scheduler.step({design2.soft_in: value})
    synthesis = synthesize_process(design2.process)
    print("  " + component_report(synthesis).replace("\n", "\n  "))
    mismatches = verify_component(log, synthesis)
    print(f"  netlist vs 300 captured cycles: "
          f"{'VERIFIED' if not mismatches else mismatches[:3]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
