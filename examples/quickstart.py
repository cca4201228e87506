#!/usr/bin/env python
"""Quickstart: capture, simulate, generate and synthesize a small design.

This walks the full flow of the paper on a toy component — a loadable
accumulator with an execute/hold controller (the Fig. 2 pattern in
miniature):

1. describe hardware by *executing Python* (signals, SFGs, a Mealy FSM);
2. simulate with the interpreted cycle scheduler;
3. regenerate the design as compiled code and as an event-driven (HDL
   semantics) model and show the speed difference;
4. generate synthesizable VHDL;
5. synthesize to gates and verify the netlist against the simulation.

Run:  python examples/quickstart.py
"""

import sys
import time

from repro.core import (
    FSM,
    SFG,
    Clock,
    Register,
    Sig,
    System,
    TimedProcess,
    cnd,
)
from repro.fixpt import FxFormat
from repro.hdl import generate_vhdl, line_count
from repro.lint import Linter
from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator, PortLog
from repro.synth import component_report, synthesize_process, verify_component

WORD = FxFormat(16, 16)
BIT = FxFormat(1, 1, signed=False)


def build_design():
    """An accumulator that adds its input each cycle unless held."""
    clk = Clock()
    x = Sig("x", WORD)
    hold_pin = Sig("hold_pin", BIT)
    hold_req = Register("hold_req", clk, BIT)
    acc = Register("acc", clk, WORD)

    sample = SFG("sample")
    with sample:
        hold_req <<= hold_pin
    sample.inp(hold_pin)

    accumulate = SFG("accumulate")
    with accumulate:
        acc <<= acc + x
    accumulate.inp(x)

    freeze = SFG("freeze")
    with freeze:
        acc <<= acc

    fsm = FSM("ctl")
    execute = fsm.initial("execute")
    hold = fsm.state("hold")
    execute << ~cnd(hold_req) << accumulate << execute
    execute << cnd(hold_req) << freeze << hold
    hold << cnd(hold_req) << freeze << hold
    hold << ~cnd(hold_req) << accumulate << execute

    process = TimedProcess("acc_unit", clk, fsm=fsm, sfgs=[sample])
    process.add_input("x", x)
    process.add_input("hold", hold_pin)
    process.add_output("acc", acc)

    system = System("quickstart")
    system.add(process)
    x_pin = system.connect(None, process.port("x"), name="x")
    h_pin = system.connect(None, process.port("hold"), name="hold")
    system.connect(process.port("acc"), name="acc")
    return system, x_pin, h_pin, acc


def lint_targets():
    """Design objects for ``tools/lint.py`` (see README: lint your design)."""
    return [build_design()[0]]


def main():
    system, x_pin, h_pin, acc = build_design()

    print("== semantic checks (lint) ==")
    diagnostics = Linter().lint_system(system)
    for diagnostic in diagnostics:
        print(" ", diagnostic)
    print("  (clean)" if not diagnostics else "")

    print("\n== interpreted simulation (cycle scheduler) ==")
    scheduler = CycleScheduler(system)
    log = PortLog(system["acc_unit"])
    scheduler.monitors.append(log)
    stimulus = [(i, 1 if 4 <= i < 7 else 0) for i in range(12)]
    for value, hold in stimulus:
        scheduler.step({x_pin: value, h_pin: hold})
        print(f"  cycle {scheduler.cycle - 1}: x={value} hold={hold} "
              f"acc={int(acc.current)}")

    print("\n== compiled-code simulation (paper Fig. 7) ==")
    system2, *_ = build_design()
    compiled = CompiledSimulator(system2)
    for value, hold in stimulus:
        compiled.step({"x": value, "hold": hold})
    print(f"  compiled acc = {int(compiled.snapshot()['acc'])} "
          f"(matches interpreted: "
          f"{int(compiled.snapshot()['acc']) == int(acc.current)})")

    cycles = 20000
    pins = {"x": 1, "hold": 0}
    system3, *_ = build_design()
    sim = CompiledSimulator(system3)
    start = time.perf_counter()
    for _ in range(cycles):
        sim.step(pins)
    compiled_rate = cycles / (time.perf_counter() - start)
    system4, x4, h4, _acc4 = build_design()
    scheduler4 = CycleScheduler(system4)
    inputs = {x4: 1, h4: 0}
    start = time.perf_counter()
    for _ in range(2000):
        scheduler4.step(inputs)
    interp_rate = 2000 / (time.perf_counter() - start)
    system5, *_ = build_design()
    event = EventSimulator(system5)
    start = time.perf_counter()
    for _ in range(2000):
        event.step(pins)
    event_rate = 2000 / (time.perf_counter() - start)
    print(f"  interpreted objects: {interp_rate:9.0f} cycles/s")
    print(f"  compiled code      : {compiled_rate:9.0f} cycles/s")
    print(f"  event-driven (HDL) : {event_rate:9.0f} cycles/s")

    print("\n== VHDL generation ==")
    files = generate_vhdl(system)
    print(f"  generated files: {sorted(files)}")
    print(f"  total VHDL lines: {line_count(files)}")
    print("  excerpt of acc_unit.vhd:")
    for line in files["acc_unit.vhd"].splitlines()[14:26]:
        print("   |", line)

    print("\n== synthesis (paper Fig. 8) ==")
    synthesis = synthesize_process(system["acc_unit"])
    print(component_report(synthesis).replace("\n", "\n  "))
    mismatches = verify_component(log, synthesis)
    print(f"  netlist vs simulation: "
          f"{'VERIFIED' if not mismatches else mismatches[:3]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
