#!/usr/bin/env python
"""The paper's driver design end to end (Figures 1, 2, 5).

A DECT burst is modulated, distorted by a severe multipath radio link,
and fed to the captured transceiver ASIC: the 22-datapath VLIW machine
finds the S-field sync word, equalizes with its 15-tap complex FIR,
discriminates, slices, CRC-checks the A-field and hands the payload to
the wire-link driver — while a hold_request pulse in mid-burst exercises
the Fig. 2 freeze/resume behaviour.

Run:  python examples/dect_transceiver.py
"""

import sys
import time

import numpy as np

from repro.designs.dect import DATAPATH_TABLES, DectTransceiver
from repro.dsp import (
    ComplexLmsEqualizer,
    bit_error_rate,
    build_burst,
    demodulate,
    modulate,
    random_payloads,
    severe_channel,
)
from repro.obs import Capture


def lint_targets():
    """Design objects for ``tools/lint.py``: the full transceiver system."""
    from repro.designs.dect.transceiver import build_transceiver

    return [build_transceiver().system]


def main():
    rng = np.random.default_rng(2026)

    print("== the architecture (paper Fig. 5) ==")
    print(f"  22 datapaths, decoding between "
          f"{min(len(t) for _n, t in DATAPATH_TABLES)} and "
          f"{max(len(t) for _n, t in DATAPATH_TABLES)} instructions:")
    row = "  "
    for name, table in DATAPATH_TABLES:
        row += f"{name}({len(table)}) "
        if len(row) > 66:
            print(row)
            row = "  "
    if row.strip():
        print(row)

    print("\n== the radio link (paper Fig. 1) ==")
    a_payload, b_payload = random_payloads(rng)
    burst = build_burst(a_payload, b_payload)
    samples = modulate(burst.bits, 8)
    channel = severe_channel(8)
    rx = channel.apply(samples, rng, snr_db=18)
    _soft, raw_bits = demodulate(rx, len(burst.bits), 8)
    raw_ber = bit_error_rate(burst.bits, raw_bits, skip=32)
    print(f"  burst: {len(burst.bits)} bits; severe multipath at 18 dB SNR")
    print(f"  raw (unequalized) BER: {raw_ber:.3f} — the burst is lost")

    print("\n== host-side training (the 'Matlab level') ==")
    equalizer = ComplexLmsEqualizer()
    error = equalizer.train(rx, burst.bits[:32])
    print(f"  LMS converged on the 32-symbol S-field "
          f"(final |e|^2 = {error:.4f}); "
          f"{equalizer.multiplies_per_symbol()} multiplies/symbol "
          f"(the paper's 152)")

    print("\n== the chip decodes the burst ==")
    capture = Capture()  # instrumentation rides along with the run
    transceiver = DectTransceiver(obs=capture)
    coefficients = transceiver.chip_coefficients(equalizer.weights)
    holds = list(range(400, 430))  # a CTL hold_request pulse mid-burst
    start = time.perf_counter()
    result = transceiver.run_burst(list(rx[::4]), coefficients,
                                   max_cycles=4200, hold_cycles=holds)
    elapsed = time.perf_counter() - start
    a_errors = sum(1 for x, y in zip(result["a_bits"], burst.a_field)
                   if x != y)
    b_errors = sum(1 for x, y in zip(result["b_bits"][:320], burst.b_field)
                   if x != y)
    print(f"  cycles: {result['cycles']} "
          f"({result['cycles'] / elapsed:.0f} cycles/s interpreted)")
    print(f"  sync found : {result['sync_found']}")
    print(f"  A-field    : {a_errors} bit errors / 64   "
          f"(CRC {'OK' if result['crc_ok'] else 'FAIL'})")
    print(f"  B-field    : {b_errors} bit errors / 320")
    print(f"  hold pulse : {len(holds)} frozen cycles absorbed "
          f"(Fig. 2 behaviour)")

    print("\n== what the instrumentation saw (see observability_tour.py) ==")
    for stats in capture.activity.top(3):
        print(f"  busiest    : {stats.name:<18} {stats.toggles} bit toggles "
              f"({stats.toggle_rate:.2f}/cycle)")
    pc_fsm = capture.fsm.records()["pcctrl/pc_fsm"]
    occupancy = ", ".join(f"{s} {c}" for s, c in pc_fsm.occupancy.items())
    print(f"  pc_fsm     : {100 * pc_fsm.state_coverage():.0f}% states, "
          f"{100 * pc_fsm.transition_coverage():.0f}% transitions "
          f"({occupancy})")

    print("\n== the same burst on the compiled-code simulator (Fig. 7) ==")
    transceiver2 = DectTransceiver()
    start = time.perf_counter()
    result2 = transceiver2.run_burst_compiled(list(rx[::4]), coefficients,
                                              max_cycles=4200)
    elapsed2 = time.perf_counter() - start
    print(f"  cycles: {result2['cycles']} "
          f"({result2['cycles'] / elapsed2:.0f} cycles/s compiled)")
    exact = (result2["a_bits"] == result["a_bits"]
             and result2["b_bits"] == result["b_bits"])
    print(f"  bit-exact vs interpreted: {exact}")
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
