#!/usr/bin/env python
"""A tour of every code generator fed by one captured design (Fig. 7/8).

One design capture — a quadrature mixer/accumulator — is pushed through
every back-end of the environment:

* the compiled-code simulator and the source of the step it runs: the
  C extension where the host builds it, else the Python reference,
* the VHDL generator (controller + datapath, two-process style),
* the Verilog generator,
* the generated self-checking VHDL testbench from captured stimuli,
* synthesis to a gate netlist, with the area report.

Run:  python examples/codegen_tour.py
"""

import sys

from repro.core import SFG, Clock, Register, Sig, System, TimedProcess, mux, gt
from repro.fixpt import FxFormat
from repro.hdl import generate_verilog, generate_vhdl, vhdl_testbench, vector_file
from repro.sim import CompiledSimulator, CycleScheduler, PortLog
from repro.synth import component_report, synthesize_process, verify_component

S = FxFormat(10, 2)
A = FxFormat(14, 4)


def build():
    clk = Clock()
    i_in = Sig("i_in", S)
    q_in = Sig("q_in", S)
    power = Sig("power", A)
    peak = Register("peak", clk, A)
    acc = Register("acc", clk, A)
    sfg = SFG("mixer")
    with sfg:
        power <<= i_in * i_in + q_in * q_in
        acc <<= acc + (power >> 2)
        peak <<= mux(gt(power, peak), power, peak)
    sfg.inp(i_in, q_in).out(power)
    process = TimedProcess("mixer", clk, sfgs=[sfg])
    process.add_input("i", i_in)
    process.add_input("q", q_in)
    process.add_output("power", power)
    process.add_output("peak", peak)
    system = System("tour")
    system.add(process)
    i_pin = system.connect(None, process.port("i"), name="i")
    q_pin = system.connect(None, process.port("q"), name="q")
    system.connect(process.port("power"), name="power")
    system.connect(process.port("peak"), name="peak")
    return system, i_pin, q_pin


def lint_targets():
    """Design objects for ``tools/lint.py``."""
    return [build()[0]]


def show(title, text, lines=14):
    print(f"\n== {title} ==")
    for line in text.splitlines()[:lines]:
        print("  |", line)
    total = len(text.splitlines())
    if total > lines:
        print(f"  | ... ({total - lines} more lines)")


def main():
    system, i_pin, q_pin = build()
    stimulus = [(0.5 * k % 3 - 1, 0.25 * k % 2 - 0.5) for k in range(12)]

    log = PortLog(system["mixer"])
    scheduler = CycleScheduler(system)
    scheduler.monitors.append(log)
    for i_val, q_val in stimulus:
        scheduler.step({i_pin: i_val, q_pin: q_val})

    compiled = CompiledSimulator(system)
    if compiled.backend == "native":
        # The step function, past the runtime prelude every step shares.
        text = compiled.c_source
        text = text[text.index("static PyObject *\nstep("):]
    else:
        text = compiled.source
    show(f"generated compiled-code simulator ({compiled.backend} step)",
         text, 18)

    vhdl = generate_vhdl(system)
    show("generated VHDL (mixer.vhd)", vhdl["mixer.vhd"], 18)

    verilog = generate_verilog(system)
    show("generated Verilog (mixer.v)", verilog["mixer.v"], 14)

    testbench = vhdl_testbench(log)
    show("generated self-checking testbench", testbench, 16)

    show("captured vector file", vector_file(log), 8)

    print("\n== synthesis ==")
    synthesis = synthesize_process(system["mixer"])
    print("  " + component_report(synthesis).replace("\n", "\n  "))
    mismatches = verify_component(log, synthesis)
    print(f"  netlist vs captured stimuli: "
          f"{'VERIFIED' if not mismatches else mismatches[:2]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
