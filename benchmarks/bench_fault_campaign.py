"""Fault-campaign throughput and the payoff of the robustness rails.

Benchmarked claims:

* per-fault replay cost on the 2.2 Kgate HCOR netlist (checkpoint
  restore + N-cycle replay + output compare);
* structural collapsing removes a measurable fraction of the stuck-at
  universe before any simulation happens;
* checkpoint/restore of the gate simulator is much cheaper than
  rebuilding (re-levelizing) it, which is what makes one-simulator
  campaigns viable;
* a watchdog wall-clock budget bounds campaign latency while still
  returning partial coverage.
"""

import random
import time

import pytest

from repro.designs.hcor import build_hcor
from repro.synth import GateSimulator, synthesize_process
from repro.verify import (
    FaultCampaign,
    Watchdog,
    collapse_faults,
    enumerate_faults,
    random_stimulus,
)


@pytest.fixture(scope="module")
def hcor_netlist():
    return synthesize_process(build_hcor().process).netlist


def test_bench_fault_replays(benchmark, hcor_netlist):
    """24 fault replays over a 6-cycle stimulus, one reused simulator."""
    stimuli = random_stimulus(hcor_netlist, 6, seed=1)
    sample = random.Random(2).sample(enumerate_faults(hcor_netlist), 24)
    benchmark(lambda: FaultCampaign(hcor_netlist, stimuli,
                                    faults=sample).run())


def test_bench_fault_replays_batched(benchmark, hcor_netlist):
    """The same 24 faults, packed one per bit-lane (one golden replay)."""
    stimuli = random_stimulus(hcor_netlist, 6, seed=1)
    sample = random.Random(2).sample(enumerate_faults(hcor_netlist), 24)
    benchmark(lambda: FaultCampaign(hcor_netlist, stimuli,
                                    faults=sample, lanes=64).run())


def test_batched_campaign_cuts_gate_evals(hcor_netlist):
    """The batched column's claim, in gate evaluations not wall clock:
    one lane-packed replay per 64 faults must cut word-level gate
    evaluations by an order of magnitude on the full universe."""
    stimuli = random_stimulus(hcor_netlist, 8, seed=3)
    sample = random.Random(4).sample(enumerate_faults(hcor_netlist), 256)

    scalar = FaultCampaign(hcor_netlist, stimuli, faults=sample)
    batched = FaultCampaign(hcor_netlist, stimuli, faults=sample, lanes=64)
    assert scalar.run() == batched.run()
    assert scalar.gate_evals >= 10 * batched.gate_evals


def test_collapsing_shrinks_the_universe(hcor_netlist):
    result = collapse_faults(hcor_netlist)
    assert result.collapsed < result.total
    # The HCOR netlist is mux/xor heavy; still, the chain equivalences
    # must remove a solid chunk of the universe.
    assert result.ratio < 0.95


def test_restore_beats_rebuilding(hcor_netlist):
    """Restoring a snapshot must beat constructing a fresh simulator."""
    reps = 20

    start = time.perf_counter()
    for _ in range(reps):
        GateSimulator(hcor_netlist)
    rebuild = time.perf_counter() - start

    sim = GateSimulator(hcor_netlist)
    snap = sim.save_state()
    start = time.perf_counter()
    for _ in range(reps):
        sim.restore_state(snap)
    restore = time.perf_counter() - start

    assert restore < rebuild


def test_watchdog_bounds_campaign_latency(hcor_netlist):
    # Long enough that the full collapsed universe needs far more than
    # the budget: 8.4 s on the native kernel (2 vCPUs), 17x the budget.
    stimuli = random_stimulus(hcor_netlist, 4096, seed=3)
    budget = 0.5
    start = time.perf_counter()
    report = FaultCampaign(hcor_netlist, stimuli,
                           watchdog=Watchdog(max_seconds=budget)).run()
    elapsed = time.perf_counter() - start
    assert not report.complete  # the full universe needs far longer
    assert report.results  # but partial coverage came back
    # Overshoot is at most the golden run plus one in-flight fault.
    assert elapsed < budget + 5.0
