#!/usr/bin/env python
"""Prove an IR pass pipeline over a whole design.

``python tools/prove_passes.py --design hcor --validate exhaustive``
lowers every SFG of every timed process in the design, runs the chosen
pass pipeline with translation validation on, and exits non-zero with a
concrete counterexample (divergent input valuation, first divergent op,
source location) if any pass application fails to preserve equivalence.

With ``--netlist <datapath> [<datapath> ...]`` it additionally
synthesizes each named DECT datapath twice — raw (no IR passes, no
netlist optimization) and optimized — and proves the two netlists equal
with the word-parallel miter check
(:func:`repro.synth.equiv.check_netlists`).  That closes the gap between
IR semantics and the bit-level interpretation synthesis gives to fraction
labels, and checks the netlist optimizer on the way.

CI runs this as the equivalence smoke job: ``--design hcor --validate
exhaustive`` and ``--design transceiver --validate sampled``, for the
``aggressive`` pipeline and for ``engine`` (the compiled simulators'
default, whose ``elide_quantize`` pass drops range-proven saturations),
with the netlist miters ``--netlist disc alu lms hcor_dp``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.ir import (  # noqa: E402
    PIPELINES,
    PassEquivalenceError,
    PassManager,
    lower_sfg,
)

DESIGNS = ("hcor", "transceiver")


def _design_system(name: str):
    if name == "hcor":
        from repro.designs.hcor import build_hcor

        return build_hcor().system
    if name == "transceiver":
        from repro.designs.dect.transceiver import build_transceiver

        return build_transceiver().system
    raise SystemExit(f"unknown design {name!r} (choose from {DESIGNS})")


def _stats_lines(manager: PassManager):
    yield (f"  {'pass':<24} {'runs':>6} {'changed':>8} {'ops-':>6} "
           f"{'validated':>10} {'proved':>7}")
    for name, row in manager.stats.items():
        yield (f"  {name:<24} {row['runs']:>6} {row['changed']:>8} "
               f"{row['ops_removed']:>6} {row['validated']:>10} "
               f"{row['proved']:>7}")


def prove_design(name: str, passes: str, validate: str) -> int:
    system = _design_system(name)
    manager = PassManager(passes, validate=validate)
    blocks = 0
    for process in system.timed_processes():
        for sfg in process.all_sfgs():
            block = lower_sfg(sfg)
            try:
                manager.run(block)
            except PassEquivalenceError as err:
                print(f"FAIL {name}: pass {err.pass_name!r} broke "
                      f"equivalence on {process.name}/{sfg.name}")
                print(f"  {err.counterexample.describe()}")
                return 1
            blocks += 1
    validated = sum(row["validated"] for row in manager.stats.values())
    proved = sum(row["proved"] for row in manager.stats.values())
    print(f"{name}: {blocks} blocks, pipeline {passes!r} "
          f"validate={validate}: {validated} pass applications validated, "
          f"{proved} proved exhaustively")
    for line in _stats_lines(manager):
        print(line)
    return 0


def prove_netlist(datapath: str, passes: str, validate: str) -> int:
    from repro.core import Clock
    from repro.designs.dect import datapaths
    from repro.synth import check_netlists, synthesize_process

    builder = getattr(datapaths, f"build_{datapath}", None)
    if builder is None:
        raise SystemExit(f"no DECT datapath builder build_{datapath}")
    raw = synthesize_process(builder(Clock(f"{datapath}_raw")),
                             passes=(), optimize=False)
    opt = synthesize_process(builder(Clock(f"{datapath}_opt")),
                             passes=passes)
    mode = "exhaustive" if validate == "exhaustive" else "sampled"
    report = check_netlists(raw.netlist, opt.netlist, mode=mode)
    if not report.equivalent:
        print(f"FAIL {datapath}: optimized netlist diverges from raw")
        print(f"  {report.counterexample.describe()}")
        return 1
    kind = "exhaustive" if report.exhaustive else (
        "sequential" if report.sequential else "sampled")
    print(f"{datapath}: raw netlist ({raw.netlist.gate_count()} gates) == "
          f"optimized ({opt.netlist.gate_count()} gates) over "
          f"{report.vectors} {kind} vectors")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="translation-validate an IR pass pipeline on a design")
    parser.add_argument("--design", choices=DESIGNS, default="hcor")
    parser.add_argument("--passes", choices=sorted(PIPELINES),
                        default="aggressive")
    parser.add_argument("--validate", choices=("sampled", "exhaustive"),
                        default="sampled")
    parser.add_argument("--netlist", metavar="DATAPATH", nargs="+",
                        default=[],
                        help="also miter-check these DECT datapaths' raw vs "
                             "optimized netlists (e.g. disc alu lms hcor_dp)")
    args = parser.parse_args(argv)
    status = prove_design(args.design, args.passes, args.validate)
    for datapath in args.netlist:
        if status != 0:
            break
        status = prove_netlist(datapath, args.passes, args.validate)
    return status


if __name__ == "__main__":
    sys.exit(main())
