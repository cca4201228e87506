"""IR pass-pipeline ablation: compiled simulation and synthesis.

Measures, with the pass pipeline on and off:

* compiled-simulator op count and cycles/sec on the DECT transceiver;
* synthesized gate count on DECT datapaths (as allocated, and after the
  netlist post-optimization — structural hashing independently converges
  on most of the sharing the IR passes expose, so both are reported).

Writes ``BENCH_ir.json`` next to this file and prints a summary.  Run
from the repository root::

    PYTHONPATH=src python benchmarks/bench_ir_passes.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.dirname(__file__))

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_ir.json")

#: DECT datapaths in the synthesis ablation (with per-run tap counts
#: where the builder needs them).
DATAPATHS = ("disc", "sum", "lms")

SIM_CYCLES = 1500


def _compiled_rate(passes=None) -> Dict[str, float]:
    from repro.designs.dect import build_transceiver
    from repro.sim import CompiledSimulator

    chip = build_transceiver()
    simulator = CompiledSimulator(chip.system, passes=passes)
    pins = {"sample_i": 0.5, "sample_q": -0.25, "hold_request": 0,
            "ctl_coef_re": 0.1, "ctl_coef_im": 0.0}
    for _ in range(200):  # warm caches so the timed loop is steady-state
        simulator.step(pins)
    start = time.perf_counter()
    for _ in range(SIM_CYCLES):
        simulator.step(pins)
    elapsed = time.perf_counter() - start
    return {
        "cycles_per_sec": SIM_CYCLES / elapsed,
        "ir_op_count": simulator.ir_op_count,
        "ir_op_count_raw": simulator.ir_op_count_raw,
    }


def _build_datapath(name: str):
    from repro.core import Clock
    from repro.designs.dect import datapaths

    clk = Clock(f"bench_{name}")
    builders = {
        "disc": lambda: datapaths.build_disc(clk),
        "sum": lambda: datapaths.build_sum(clk),
        "lms": lambda: datapaths.build_lms(clk),
        "fir0": lambda: datapaths.build_fir_slice(0, 4, clk),
    }
    return builders[name]()


def _gate_counts(name: str, passes=None) -> Dict[str, int]:
    from repro.synth.flow import synthesize_process

    raw = synthesize_process(_build_datapath(name), passes=passes,
                             optimize=False)
    final = synthesize_process(_build_datapath(name), passes=passes,
                               optimize=True)
    return {
        "gates_synthesized": raw.gate_count,
        "gates_after_netlist_opt": final.gate_count,
    }


def _pipeline_without(dropped: str):
    """The aggressive pipeline minus one pass (leave-one-out ablation)."""
    from repro.ir import AGGRESSIVE_PASSES

    return tuple(entry for entry in AGGRESSIVE_PASSES
                 if entry[0] != dropped)


#: New aggressive-pipeline passes with their own ablation rows.
NEW_PASSES = ("mux_restructure", "strength_reduce")


def run() -> Dict[str, object]:
    results: Dict[str, object] = {
        "bench": "ir_passes",
        "sim_cycles": SIM_CYCLES,
        "compiled_sim": {
            "passes_on": _compiled_rate(),
            "passes_off": _compiled_rate(passes=()),
            "aggressive": _compiled_rate(passes="aggressive"),
        },
        "synthesis": {},
        "ablation": {},
    }
    for name in DATAPATHS:
        results["synthesis"][name] = {
            "passes_on": _gate_counts(name),
            "passes_off": _gate_counts(name, passes=()),
            "aggressive": _gate_counts(name, passes="aggressive"),
        }
    # Leave-one-out rows for the new passes, on the datapath where the
    # aggressive pipeline moves the needle (disc: the chain hoist halves
    # the array multipliers).
    for dropped in NEW_PASSES:
        results["ablation"][f"aggressive-no-{dropped}"] = _gate_counts(
            "disc", passes=_pipeline_without(dropped))
    return results


def main() -> int:
    results = run()
    with open(OUT_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    sim = results["compiled_sim"]
    on, off = sim["passes_on"], sim["passes_off"]
    print(f"compiled sim (DECT transceiver, {results['sim_cycles']} cycles)")
    print(f"  passes on : {on['cycles_per_sec']:8.1f} cyc/s, "
          f"{on['ir_op_count']} IR ops")
    print(f"  passes off: {off['cycles_per_sec']:8.1f} cyc/s, "
          f"{off['ir_op_count']} IR ops")

    agg = sim["aggressive"]
    print(f"  aggressive: {agg['cycles_per_sec']:8.1f} cyc/s, "
          f"{agg['ir_op_count']} IR ops")

    ok = on["ir_op_count"] < off["ir_op_count"]
    agg_ok = agg["ir_op_count"] <= off["ir_op_count"]
    any_gate_win = False
    best_opt_win = 0.0
    print("synthesis (gates as allocated / after netlist opt)")
    for name, cells in results["synthesis"].items():
        g_on, g_off = cells["passes_on"], cells["passes_off"]
        g_agg = cells["aggressive"]
        print(f"  {name:6} on : {g_on['gates_synthesized']:6} / "
              f"{g_on['gates_after_netlist_opt']:6}"
              f"   off: {g_off['gates_synthesized']:6} / "
              f"{g_off['gates_after_netlist_opt']:6}"
              f"   aggressive: {g_agg['gates_synthesized']:6} / "
              f"{g_agg['gates_after_netlist_opt']:6}")
        if g_on["gates_synthesized"] < g_off["gates_synthesized"]:
            any_gate_win = True
        base = g_off["gates_after_netlist_opt"]
        if base:
            best_opt_win = max(
                best_opt_win,
                (base - g_agg["gates_after_netlist_opt"]) / base)

    print("ablation (disc, gates as allocated / after netlist opt)")
    for row, cells in results["ablation"].items():
        print(f"  {row:32} {cells['gates_synthesized']:6} / "
              f"{cells['gates_after_netlist_opt']:6}")

    if not ok:
        print("FAIL: passes did not reduce the compiled-sim op count")
        return 1
    if not agg_ok:
        print("FAIL: aggressive pipeline increased compiled-sim op count")
        return 1
    if not any_gate_win:
        print("FAIL: passes did not reduce gates on any DECT datapath")
        return 1
    if best_opt_win < 0.05:
        print("FAIL: aggressive pipeline won <5% post-opt gates on every "
              "DECT datapath")
        return 1
    print(f"best aggressive post-opt gate win: {100 * best_opt_win:.1f}%")
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
