"""One benchmark for the environment: Table 1 engines, design turnaround
and fault-campaign throughput on a seeded HCOR or DECT workload.

Run from the repository root::

    python3 perfbench/run.py --workload hcor --seed 1 --seconds 10 --trace 0

A run builds everything from ``src/`` and

1. sets up ``setup_repeats`` times: derives the seeded stimulus, captures
   the design once per engine, builds the interpreted (cycle scheduler),
   compiled, event-driven RT and netlist (synthesized, levelized) engines
   and collapses the campaign's fault universe.  The last set-up is kept;
2. for ``--seconds`` interleaves time slices of the four engines, of
   compile turnarounds (capture plus compiled-simulator generation) and
   of 64-lane fault campaigns over consecutive chunks of a seeded fault
   order;
3. checks every simulated cycle against the reference output, the
   netlists against the interpreted run's port logs, every campaign
   against the first and the lane-packed campaign against the scalar one.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (timed slices plus checks) and ``metrics``.
``--trace 0`` reports the end-to-end metrics: the fast tail of the
per-slice rates and turnaround times (see ``harness.fastest_rate``) and
the median set-up time, each rescaled to a reference host's speed (see
``harness.Calibration``).  ``--trace 1``
reports per-layer metrics from the spans recorded around each call into
the environment and writes the spans to
``.perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> bool:
    """Import ``repro`` from this checkout's sources, and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {source}: {exc}",
              file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"perfbench: repro resolved outside {source}", file=sys.stderr)
        return False
    return True


def run(workload, seed: int, seconds: float, trace: bool):
    from harness import (
        Calibration, Tracer, fastest_rate, fastest_time, measure, metric,
    )
    from workloads import setup

    tracer = Tracer()
    setup_seconds = []
    bench = None
    for _ in range(workload.setup_repeats):
        bench = None
        gc.collect()
        before = Calibration.burst()
        bench = setup(workload, seed, tracer)
        setup_seconds.append(bench.seconds / before.speed_factor())
    # Set-up objects live for the whole run: keep the collector off them.
    gc.collect()
    gc.freeze()

    calibration = Calibration()
    measure([*bench.tasks, calibration], seconds, tracer)
    # Every timing below is rescaled to the reference host's speed.
    factor = calibration.speed_factor()

    attempted = failed = 0
    for task in bench.tasks:
        attempted += task.attempted
        failed += task.failed
    checks = [
        bench.stimulus_failures == 0,
        bench.campaign.check(scalar_faults=8),
        all(replay.cycles > 0 for replay in bench.replays),
    ]
    attempted += len(checks)
    failed += checks.count(False)

    if trace:
        os.makedirs(ROOT / ".perfbench", exist_ok=True)
        tracer.dump(str(ROOT / ".perfbench"
                        / f"spans-{workload.name}-{seed}.json"))
        counts = bench.counts
        metrics = {
            "capture_ms": metric(tracer.per_unit("capture", 1e3 / factor), "ms"),
            "compiled_build_ms": metric(
                tracer.per_unit("compiled_build", 1e3 / factor), "ms"),
            "ir_pass_ms": metric(counts["ir_pass_ms"] / factor, "ms"),
            "interpreted_build_ms": metric(
                tracer.per_unit("interpreted_build", 1e3 / factor), "ms"),
            "event_build_ms": metric(tracer.per_unit("event_build", 1e3 / factor),
                                     "ms"),
            "synth_ms": metric(tracer.per_unit("synth", 1e3 / factor), "ms"),
            "levelize_ms": metric(tracer.per_unit("levelize", 1e3 / factor), "ms"),
            "collapse_ms": metric(tracer.per_unit("collapse", 1e3 / factor), "ms"),
            "stimulus_ms": metric(tracer.per_unit("stimulus", 1e3 / factor), "ms"),
            "interpreted_us_per_cycle": metric(
                tracer.per_unit("interpreted", 1e6 / factor), "us"),
            "compiled_us_per_cycle": metric(
                tracer.per_unit("compiled", 1e6 / factor), "us"),
            "event_rt_us_per_cycle": metric(
                tracer.per_unit("event_rt", 1e6 / factor), "us"),
            "netlist_us_per_cycle": metric(
                tracer.per_unit("netlist", 1e6 / factor), "us"),
            "campaign_us_per_fault": metric(
                tracer.per_unit("campaign", 1e6 / factor), "us"),
            "ir_ops": metric(counts["ir_ops"], "count"),
            "gates": metric(counts["gates"], "count"),
            "collapsed_faults": metric(counts["collapsed_faults"], "count"),
            "campaign_gate_evals_per_fault": metric(
                bench.campaign.gate_evals_per_fault, "count"),
        }
    else:
        rates = {replay.name: fastest_rate(replay.rates) * factor
                 for replay in bench.replays}
        metrics = {
            "interpreted_cps": metric(rates["interpreted"], "cycles/s"),
            "compiled_cps": metric(rates["compiled"], "cycles/s"),
            "event_rt_cps": metric(rates["event_rt"], "cycles/s"),
            "netlist_cps": metric(rates["netlist"], "cycles/s"),
            "campaign_faults_per_s": metric(
                fastest_rate(bench.campaign.rates) * factor, "faults/s"),
            "compile_s": metric(
                fastest_time(bench.turnaround.times) / factor, "s"),
            "setup_s": metric(statistics.median(setup_seconds), "s"),
        }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _fix_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``.

    String hashing decides the layout of every dict and set of names, and
    with a random hash seed each process runs the same engines several
    percent faster or slower; a fixed seed makes runs comparable.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    _fix_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
