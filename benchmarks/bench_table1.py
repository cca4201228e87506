"""Table 1 — performances of interpreted and compiled approaches.

Regenerates every row of the paper's Table 1 on this machine:

===========  ======  =================  ============  =========
Design       Size    Type               Speed (c/s)   Src lines
===========  ======  =================  ============  =========
HCOR         6K      C++ interpreted    606           320
                     C++ compiled       4545          1.7K
                     VHDL (RT)          355           1.6K
                     VHDL (netlist)     3.5           77K
DECT         75K     C++ interpreted    70            8K
                     C++ compiled       492           26K
                     Verilog (netlist)  0.46          59K
===========  ======  =================  ============  =========

The expected *shape*: compiled >> interpreted > event-driven RT >>
netlist, and the Python capture several times more compact than the
generated RT HDL.  Run with ``pytest benchmarks/bench_table1.py
--benchmark-only -s`` to see the regenerated table.
"""

import itertools

import pytest

from common import (
    dect_loc,
    format_table1,
    hcor_compiled_batched_rate,
    hcor_compiled_rate,
    hcor_event_rate,
    hcor_interpreted_rate,
    hcor_loc,
    hcor_netlist_batched_rate,
    hcor_netlist_programs,
    hcor_netlist_rate,
    table1_rows,
)


class TestHcorRows:
    def test_speed_ordering_matches_paper(self):
        """Compiled >> interpreted > event-RT — the core Table 1 claim."""
        interpreted = hcor_interpreted_rate()
        compiled = hcor_compiled_rate()
        event = hcor_event_rate()
        assert compiled > interpreted > event

    def test_netlist_is_slowest_by_orders_of_magnitude(self):
        """The paper's netlist row, on the Python kernel."""
        netlist = hcor_netlist_rate()
        compiled = hcor_compiled_rate()
        assert compiled > 50 * netlist

    def test_code_size_ratio(self):
        """Section 5: 'a factor of 5 in code size ... over RT-VHDL'."""
        sizes = hcor_loc()
        assert sizes["vhdl"] > 2.5 * sizes["python"]


class TestDectRows:
    def test_code_size_ratio(self):
        sizes = dect_loc()
        assert sizes["vhdl"] > 1.5 * sizes["python"]


def test_bench_hcor_interpreted(benchmark):
    from repro.designs.hcor import build_hcor
    from repro.sim import CycleScheduler

    design = build_hcor()
    scheduler = CycleScheduler(design.system)
    pin = design.soft_in
    benchmark(lambda: scheduler.step({pin: 0.25}))


def test_bench_hcor_compiled(benchmark):
    from repro.designs.hcor import build_hcor
    from repro.sim import CompiledSimulator

    simulator = CompiledSimulator(build_hcor().system)
    pins = {"soft": 0.25}
    benchmark(lambda: simulator.step(pins))


def test_bench_hcor_event(benchmark):
    from repro.designs.hcor import build_hcor
    from repro.sim import EventSimulator

    simulator = EventSimulator(build_hcor().system)
    pins = {"soft": 0.25}
    benchmark(lambda: simulator.step(pins))


def test_bench_hcor_netlist(benchmark):
    from repro.designs.hcor import build_hcor
    from repro.synth import GateSimulator, synthesize_process

    synthesis = synthesize_process(build_hcor().process)
    simulator = GateSimulator(synthesis.netlist)
    program = itertools.cycle(hcor_netlist_programs())
    benchmark.pedantic(lambda: simulator.step(next(program)), rounds=5,
                       iterations=4)


def test_bench_hcor_compiled_batched(benchmark):
    """One step = 64 stimulus streams advancing one cycle each."""
    from repro.designs.hcor import build_hcor
    from repro.sim import BatchedCompiledSimulator

    simulator = BatchedCompiledSimulator(build_hcor().system, lanes=64)
    pins = {"soft": 0.25}
    benchmark(lambda: simulator.step(pins))


def test_bench_hcor_netlist_batched(benchmark):
    """One step = 64 stimulus streams through the word-parallel engine."""
    from repro.designs.hcor import build_hcor
    from repro.synth import GateSimulator, synthesize_process

    synthesis = synthesize_process(build_hcor().process)
    simulator = GateSimulator(synthesis.netlist, lanes=64)
    program = itertools.cycle(hcor_netlist_programs(lanes=64))
    benchmark.pedantic(lambda: simulator.step(next(program)), rounds=5,
                       iterations=4)


class TestBatchedColumn:
    def test_word_parallel_netlist_beats_scalar_per_lane_cycle(self):
        """The batched column's claim: packing 64 streams into machine
        words makes each *lane-cycle* far cheaper than a scalar cycle
        (both on the native kernel)."""
        scalar = hcor_netlist_rate(native=True)
        batched = hcor_netlist_batched_rate()
        assert batched > 8 * scalar

    def test_batched_compiled_throughput_not_worse(self):
        """Vectorization must at least break even on lane-cycles/sec."""
        scalar = hcor_compiled_rate()
        batched = hcor_compiled_batched_rate()
        assert batched > 0.9 * scalar


def test_bench_dect_interpreted(benchmark):
    from common import dect_interpreted_rate

    rate = benchmark.pedantic(lambda: dect_interpreted_rate(cycles=120),
                              rounds=1, iterations=1)


def test_bench_dect_compiled(benchmark):
    from repro.designs.dect import build_transceiver
    from repro.sim import CompiledSimulator

    simulator = CompiledSimulator(build_transceiver().system)
    pins = {"sample_i": 0.5, "sample_q": -0.25, "hold_request": 0,
            "ctl_coef_re": 0.1, "ctl_coef_im": 0.0}
    benchmark(lambda: simulator.step(pins))


def test_full_table_report(benchmark, capsys):
    """Regenerate and print the complete Table 1."""
    rows = benchmark.pedantic(
        lambda: table1_rows(include_dect=True, include_netlist=True),
        rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("Table 1 (regenerated) — this machine vs the paper:")
        print(format_table1(rows))
    by_key = {(r.design, r.approach): r.speed for r in rows}
    # Shape assertions across the whole table.
    assert by_key[("HCOR", "compiled")] > by_key[("HCOR", "interpreted")]
    assert by_key[("HCOR", "interpreted")] > by_key[("HCOR", "event_rt")]
    assert by_key[("HCOR", "event_rt")] > by_key[("HCOR", "netlist")]
    assert by_key[("DECT", "compiled")] > by_key[("DECT", "interpreted")]
    assert by_key[("DECT", "interpreted")] > by_key[("DECT", "netlist")]
    # HCOR (6K gates) simulates faster than DECT (75K-class) everywhere.
    assert by_key[("HCOR", "interpreted")] > by_key[("DECT", "interpreted")]
    assert by_key[("HCOR", "compiled")] > by_key[("DECT", "compiled")]
