"""Testbench generation from captured simulation stimuli.

Paper, section 6: *"During system simulation, the system stimuli are also
translated into test-benches that allow to verify the synthesis result of
each component."*

A :class:`~repro.sim.stimuli.PortLog` attached to the cycle scheduler
captures the cycle-true port traffic of one component; this module turns
the log into a self-checking VHDL testbench (and a plain vector file) that
re-applies the inputs and asserts the outputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..fixpt import Fx
from ..core.process import TimedProcess
from ..ir.formats import sig_fmt as _sig_fmt, vector_width
from ..sim.stimuli import PortLog
from .naming import sanitize
from .vhdl import PACKAGE_NAME


def _raw(value) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, Fx):
        return value.raw
    if isinstance(value, float):
        return int(value)
    return int(value)


def vector_file(log: PortLog) -> str:
    """A plain text vector file: one line per cycle, raw values in order.

    Columns: every input port then every output port, in declaration
    order; 'x' marks cycles without a token.
    """
    process = log.process
    in_names = [p.name for p in process.in_ports()]
    out_names = [p.name for p in process.out_ports()]
    header = "# cycle " + " ".join(in_names + out_names)
    lines = [header]
    for cycle in range(log.cycles):
        row = [str(cycle)]
        for name in in_names:
            value = _raw(log.inputs[name][cycle])
            row.append("x" if value is None else str(value))
        for name in out_names:
            value = _raw(log.outputs[name][cycle])
            row.append("x" if value is None else str(value))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def verilog_testbench(log: PortLog, clock_period_ns: int = 10) -> str:
    """A self-checking Verilog testbench replaying the captured stimuli."""
    process = log.process
    if not isinstance(process, TimedProcess):
        raise TypeError("testbenches are generated for timed components")
    name = sanitize(process.name)
    cycles = log.cycles
    lines: List[str] = []
    emit = lines.append
    emit(f"`timescale 1ns/1ps")
    emit(f"module tb_{name};")
    emit("  reg clk = 0;")
    emit("  reg rst = 1;")
    emit("  integer i;")
    emit("  integer errors = 0;")
    widths: Dict[str, int] = {}
    for port in process.ports.values():
        width = vector_width(_sig_fmt(port.sig))
        widths[port.name] = width
        kind = "reg" if port.direction == "in" else "wire"
        emit(f"  {kind} signed [{width - 1}:0] {sanitize(port.name)};")

    def emit_table(prefix: str, values, width: int) -> None:
        emit(f"  reg signed [{width - 1}:0] {prefix}_val [0:{cycles - 1}];")
        emit(f"  reg {prefix}_ok [0:{cycles - 1}];")

    for port in process.in_ports():
        emit_table(f"stim_{sanitize(port.name)}", log.inputs[port.name],
                   widths[port.name])
    for port in process.out_ports():
        emit_table(f"gold_{sanitize(port.name)}", log.outputs[port.name],
                   widths[port.name])
    emit("")
    emit(f"  {name} dut (")
    maps = ["    .clk(clk),", "    .rst(rst),"]
    for port in process.ports.values():
        maps.append(f"    .{sanitize(port.name)}({sanitize(port.name)}),")
    maps[-1] = maps[-1].rstrip(",")
    lines.extend(maps)
    emit("  );")
    emit("")
    emit(f"  always #{clock_period_ns // 2} clk = ~clk;")
    emit("")
    emit("  initial begin")
    for port in process.in_ports():
        port_id = sanitize(port.name)
        for cycle, token in enumerate(log.inputs[port.name]):
            raw = _raw(token)
            emit(f"    stim_{port_id}_val[{cycle}] = {raw or 0}; "
                 f"stim_{port_id}_ok[{cycle}] = {0 if raw is None else 1};")
    for port in process.out_ports():
        port_id = sanitize(port.name)
        for cycle, token in enumerate(log.outputs[port.name]):
            raw = _raw(token)
            emit(f"    gold_{port_id}_val[{cycle}] = {raw or 0}; "
                 f"gold_{port_id}_ok[{cycle}] = {0 if raw is None else 1};")
    emit("    @(posedge clk); rst = 0;")
    emit(f"    for (i = 0; i < {cycles}; i = i + 1) begin")
    for port in process.in_ports():
        port_id = sanitize(port.name)
        emit(f"      {port_id} = stim_{port_id}_val[i];")
    emit(f"      #{clock_period_ns - 1};")
    for port in process.out_ports():
        port_id = sanitize(port.name)
        emit(f"      if (gold_{port_id}_ok[i] && "
             f"{port_id} !== gold_{port_id}_val[i]) begin")
        emit(f"        $display(\"{name}.{port.name} mismatch at cycle %0d: "
             f"%0d != %0d\", i, {port_id}, gold_{port_id}_val[i]);")
        emit("        errors = errors + 1;")
        emit("      end")
    emit("      @(posedge clk);")
    emit("    end")
    emit("    if (errors == 0) $display(\"testbench completed: PASS\");")
    emit("    else $display(\"testbench completed: %0d errors\", errors);")
    emit("    $finish;")
    emit("  end")
    emit("endmodule")
    return "\n".join(lines) + "\n"


def vhdl_testbench(log: PortLog, clock_period_ns: int = 10) -> str:
    """A self-checking VHDL testbench replaying the captured stimuli."""
    process = log.process
    if not isinstance(process, TimedProcess):
        raise TypeError("testbenches are generated for timed components")
    name = sanitize(process.name)
    tb_name = f"tb_{name}"
    cycles = log.cycles

    lines: List[str] = []
    emit = lines.append
    emit("library ieee;")
    emit("use ieee.std_logic_1164.all;")
    emit("use ieee.numeric_std.all;")
    emit(f"use work.{PACKAGE_NAME}.all;")
    emit("")
    emit(f"entity {tb_name} is")
    emit(f"end entity {tb_name};")
    emit("")
    emit(f"architecture bench of {tb_name} is")
    emit("  signal clk : std_logic := '0';")
    emit("  signal rst : std_logic := '1';")
    widths: Dict[str, int] = {}
    for port in process.ports.values():
        width = vector_width(_sig_fmt(port.sig))
        widths[port.name] = width
        emit(f"  signal {sanitize(port.name)} : signed({width - 1} downto 0);")
    emit(f"  constant N_CYCLES : natural := {cycles};")
    emit("  type int_vec is array (0 to N_CYCLES - 1) of integer;")
    emit("  type valid_vec is array (0 to N_CYCLES - 1) of boolean;")

    def emit_table(prefix: str, values: List[Optional[int]]) -> None:
        ints = ", ".join(str(v if v is not None else 0) for v in values)
        valids = ", ".join("true" if v is not None else "false"
                           for v in values)
        emit(f"  constant {prefix}_val : int_vec := ({ints});")
        emit(f"  constant {prefix}_ok  : valid_vec := ({valids});")

    for port in process.in_ports():
        emit_table(f"stim_{sanitize(port.name)}",
                   [_raw(v) for v in log.inputs[port.name]])
    for port in process.out_ports():
        emit_table(f"gold_{sanitize(port.name)}",
                   [_raw(v) for v in log.outputs[port.name]])
    emit("begin")
    emit("")
    emit(f"  dut : entity work.{name}")
    emit("    port map (")
    maps = ["      clk => clk,", "      rst => rst,"]
    for port in process.ports.values():
        maps.append(f"      {sanitize(port.name)} => {sanitize(port.name)},")
    maps[-1] = maps[-1].rstrip(",")
    lines.extend(maps)
    emit("    );")
    emit("")
    emit(f"  clk <= not clk after {clock_period_ns // 2} ns;")
    emit("")
    emit("  stimulus : process")
    emit("  begin")
    emit("    rst <= '1';")
    emit("    wait until rising_edge(clk);")
    emit("    rst <= '0';")
    emit("    for i in 0 to N_CYCLES - 1 loop")
    for port in process.in_ports():
        port_id = sanitize(port.name)
        width = widths[port.name]
        emit(f"      {port_id} <= to_signed(stim_{port_id}_val(i), {width});")
    emit(f"      wait for {clock_period_ns - 1} ns;")
    for port in process.out_ports():
        port_id = sanitize(port.name)
        width = widths[port.name]
        emit(f"      assert (not gold_{port_id}_ok(i)) or "
             f"({port_id} = to_signed(gold_{port_id}_val(i), {width}))")
        emit(f"        report \"{name}.{port.name} mismatch at cycle \" & "
             f"integer'image(i)")
        emit("        severity error;")
    emit("      wait until rising_edge(clk);")
    emit("    end loop;")
    emit("    report \"testbench completed\" severity note;")
    emit("    wait;")
    emit("  end process stimulus;")
    emit("")
    emit(f"end architecture bench;")
    return "\n".join(lines) + "\n"
