#!/usr/bin/env python
"""Fault-injection campaign and divergence localization on HCOR.

The HCOR correlator is synthesized to gates (the paper's Fig. 8 flow),
then stressed three ways:

* a stuck-at fault campaign with structural collapsing reports how much
  of the fault universe a short random stimulus detects;
* a watchdog budget shows a campaign returning *partial* coverage
  instead of wedging;
* a deliberately sabotaged netlist runs in lockstep against the golden
  interpreted model and the first divergent cycle and signal are
  localized by binary search.

Run:  PYTHONPATH=src python examples/fault_campaign.py
"""

import random
import sys

from repro.designs.hcor import SOFT_FMT, build_hcor
from repro.fixpt import Fx
from repro.synth import synthesize_process
from repro.verify import (
    CycleAdapter,
    FaultCampaign,
    GateAdapter,
    Lockstep,
    Watchdog,
    collapse_faults,
    enumerate_faults,
    random_stimulus,
)


def lint_targets():
    """Design objects for ``tools/lint.py``."""
    return [build_hcor().system]


def main():
    print("== synthesizing HCOR ==")
    synthesis = synthesize_process(build_hcor().process)
    netlist = synthesis.netlist
    print(f"  {netlist.gate_count()} gates, "
          f"inputs {list(netlist.inputs)}, outputs {list(netlist.outputs)}")

    print("\n== structural fault collapsing ==")
    collapsed = collapse_faults(netlist)
    print(f"  {collapsed.total} stuck-at faults -> "
          f"{collapsed.collapsed} equivalence classes "
          f"(ratio {collapsed.ratio:.2f})")

    print("\n== fault campaign (sampled universe) ==")
    rng = random.Random(0)
    sample = rng.sample(enumerate_faults(netlist), 300)
    stimuli = random_stimulus(netlist, 12, seed=7)
    report = FaultCampaign(netlist, stimuli, faults=sample,
                           watchdog=Watchdog(max_seconds=60)).run()
    print(report.report(netlist))

    print("\n== watchdog: a 40-fault budget returns partial coverage ==")
    partial = FaultCampaign(netlist, stimuli, faults=sample,
                            watchdog=Watchdog(max_cycles=40)).run()
    print(f"  complete={partial.complete}, simulated "
          f"{len(partial.results)}, skipped {partial.skipped}")

    print("\n== lockstep: golden model vs sabotaged netlist ==")
    target = next(r for r in report.results if r.detected)
    fault = target.fault
    print(f"  injecting {fault.describe(netlist)}")

    def golden():
        return CycleAdapter(build_hcor().system)

    def sabotaged():
        adapter = GateAdapter.from_synthesis(synthesis, name="faulty-netlist")
        adapter.sim.force(fault.net, fault.value)
        return adapter

    soft_rng = random.Random(3)
    soft = [{"soft": Fx(soft_rng.uniform(-1.5, 1.5), SOFT_FMT)}
            for _ in range(len(stimuli))]
    divergence = Lockstep(golden, sabotaged, soft).run(compare_every=4)
    if divergence is None:
        print("  engines agree under this stimulus "
              "(the fault needs different traffic to be excited)")
    else:
        print(f"  {divergence}")

    print("\n== lockstep: golden model vs clean netlist ==")
    def clean():
        return GateAdapter.from_synthesis(synthesis)

    divergence = Lockstep(golden, clean, soft).run()
    if divergence is not None:
        print(f"  engines disagree: {divergence}")
        return 1
    print("  engines agree on every cycle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
