"""Shared builders and measurement helpers for the benchmark suite.

The centerpiece is :func:`table1_rows`, which regenerates the paper's
Table 1 — source-code size, simulation speed (cycles/sec) and process
size (MByte) for the HCOR and DECT designs across the four simulation
approaches — on this machine.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

#: The paper's Table 1 (for side-by-side reporting).
PAPER_TABLE1 = {
    ("HCOR", "interpreted"): {"speed": 606, "size_mb": 4.4, "loc": 320},
    ("HCOR", "compiled"): {"speed": 4545, "size_mb": 2.8, "loc": 1700},
    ("HCOR", "event_rt"): {"speed": 355, "size_mb": 14.0, "loc": 1600},
    ("HCOR", "netlist"): {"speed": 3.5, "size_mb": None, "loc": 77000},
    ("DECT", "interpreted"): {"speed": 70, "size_mb": 9.5, "loc": 8000},
    ("DECT", "compiled"): {"speed": 492, "size_mb": 4.2, "loc": 26000},
    ("DECT", "netlist"): {"speed": 0.46, "size_mb": None, "loc": 59000},
}


def source_lines(module) -> int:
    """Non-blank, non-comment source lines of a module."""
    lines = inspect.getsource(module).splitlines()
    return sum(
        1 for line in lines
        if line.strip() and not line.strip().startswith("#")
    )


def _timed_rate(step: Callable[[], None], min_seconds: float = 0.4,
                max_cycles: int = 200000) -> float:
    """Cycles per second of a single-cycle step callable."""
    count = 0
    start = time.perf_counter()
    while True:
        step()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or count >= max_cycles:
            return count / elapsed


def _traced_mb(build: Callable[[], object]):
    """Peak incremental memory (MB) of building an object, plus the object."""
    gc.collect()
    tracemalloc.start()
    obj = build()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return obj, peak / 1e6


# -- HCOR measurement -----------------------------------------------------------


def hcor_interpreted_rate() -> float:
    from repro.designs.hcor import build_hcor
    from repro.sim import CycleScheduler

    design = build_hcor()
    scheduler = CycleScheduler(design.system)
    pin = design.soft_in
    return _timed_rate(lambda: scheduler.step({pin: 0.25}))


def hcor_compiled_rate() -> float:
    from repro.designs.hcor import build_hcor
    from repro.sim import CompiledSimulator

    design = build_hcor()
    simulator = CompiledSimulator(design.system)
    pins = {"soft": 0.25}
    return _timed_rate(lambda: simulator.step(pins))


def hcor_event_rate() -> float:
    from repro.designs.hcor import build_hcor
    from repro.sim import EventSimulator

    design = build_hcor()
    simulator = EventSimulator(design.system)
    pins = {"soft": 0.25}
    return _timed_rate(lambda: simulator.step(pins))


def hcor_netlist_programs(lanes: int = 1,
                          cycles: int = 2000) -> List[Dict[str, object]]:
    """Per-cycle pins of the HCOR netlist rows, one seeded stream per lane
    (a list of per-lane raws when ``lanes > 1``).

    Each soft symbol is +-1 plus noise of one LSB, as raw s<6,3> values
    (eighths), like perfbench's HCOR stream without its sync words.
    """
    streams = []
    for lane in range(lanes):
        rng = np.random.default_rng(1998 + lane)
        signs = rng.integers(0, 2, size=cycles) * 16 - 8
        streams.append((signs + rng.integers(-1, 2, size=cycles)).tolist())
    if lanes == 1:
        return [{"soft": raw} for raw in streams[0]]
    return [{"soft": list(raws)} for raws in zip(*streams)]


def _kernel(native: bool):
    """Where gate simulators run: the native kernel, or the Python kernel
    of the paper's netlist row."""
    from repro.synth.gatesim import _python_kernel

    return nullcontext() if native else _python_kernel()


def hcor_netlist_rate(native: bool = False) -> float:
    from repro.designs.hcor import build_hcor
    from repro.synth import GateSimulator, synthesize_process

    design = build_hcor()
    synthesis = synthesize_process(design.process)
    with _kernel(native):
        simulator = GateSimulator(synthesis.netlist)
    program = itertools.cycle(hcor_netlist_programs())
    return _timed_rate(lambda: simulator.step(next(program)),
                       min_seconds=0.3, max_cycles=2000)


def hcor_compiled_batched_rate(lanes: int = 64) -> float:
    """Lane-cycles/sec of the batched compiled engine (64 streams)."""
    from repro.designs.hcor import build_hcor
    from repro.sim import BatchedCompiledSimulator

    simulator = BatchedCompiledSimulator(build_hcor().system, lanes=lanes)
    pins = {"soft": 0.25}
    return lanes * _timed_rate(lambda: simulator.step(pins))


def hcor_netlist_batched_rate(lanes: int = 64) -> float:
    """Lane-cycles/sec of the word-parallel gate engine (64 streams)."""
    from repro.designs.hcor import build_hcor
    from repro.synth import GateSimulator, synthesize_process

    synthesis = synthesize_process(build_hcor().process)
    simulator = GateSimulator(synthesis.netlist, lanes=lanes)
    program = itertools.cycle(hcor_netlist_programs(lanes))
    return lanes * _timed_rate(lambda: simulator.step(next(program)),
                               min_seconds=0.3, max_cycles=2000)


def hcor_loc() -> Dict[str, int]:
    import repro.designs.hcor as hcor_module
    from repro.designs.hcor import build_hcor
    from repro.hdl import generate_vhdl, line_count

    design = build_hcor()
    return {
        "python": source_lines(hcor_module),
        "vhdl": line_count(generate_vhdl(design.system)),
    }


# -- DECT measurement ---------------------------------------------------------------


def _dect_stimulus():
    from repro.dsp import (
        ComplexLmsEqualizer, build_burst, modulate, random_payloads,
    )

    rng = np.random.default_rng(33)
    a, b = random_payloads(rng)
    burst = build_burst(a, b)
    samples = modulate(burst.bits, 8)
    equalizer = ComplexLmsEqualizer()
    equalizer.train(samples, burst.bits[:32])
    return burst, list(samples[::4]), equalizer.weights


def _dect_interpreted_run():
    """The interpreted transceiver and a step that feeds it one cycle of
    the seeded burst, paced by the chip's sample acknowledge."""
    from repro.designs.dect import DectTransceiver

    _burst, grid, weights = _dect_stimulus()
    transceiver = DectTransceiver()
    coefs = transceiver.chip_coefficients(weights)
    chip = transceiver.chip
    pointer = [0]

    def step():
        sample = grid[pointer[0]] if pointer[0] < len(grid) else 0j
        transceiver.scheduler.step({
            chip.sample_i: float(np.real(sample)),
            chip.sample_q: float(np.imag(sample)),
            chip.hold: 0,
            chip.coef_re: float(np.real(coefs[0])),
            chip.coef_im: float(np.imag(coefs[0])),
        })
        if chip.ack.valid and int(chip.ack.value):
            pointer[0] += 1

    return transceiver, step


def dect_interpreted_rate(cycles: int = 400) -> float:
    _transceiver, step = _dect_interpreted_run()
    start = time.perf_counter()
    for _ in range(cycles):
        step()
    return cycles / (time.perf_counter() - start)


def dect_compiled_rate(cycles: int = 3000) -> float:
    from repro.designs.dect import build_transceiver
    from repro.sim import CompiledSimulator

    _burst, grid, weights = _dect_stimulus()
    chip = build_transceiver()
    simulator = CompiledSimulator(chip.system)
    pins = {"sample_i": 0.5, "sample_q": -0.25, "hold_request": 0,
            "ctl_coef_re": 0.1, "ctl_coef_im": 0.0}
    start = time.perf_counter()
    for _ in range(cycles):
        simulator.step(pins)
    return cycles / (time.perf_counter() - start)


def dect_event_rate(cycles: int = 150) -> float:
    from repro.designs.dect import build_transceiver
    from repro.sim import EventSimulator

    chip = build_transceiver()
    simulator = EventSimulator(chip.system)
    pins = {"sample_i": 0.5, "sample_q": -0.25, "hold_request": 0,
            "ctl_coef_re": 0.1, "ctl_coef_im": 0.0}
    start = time.perf_counter()
    for _ in range(cycles):
        simulator.step(pins)
    return cycles / (time.perf_counter() - start)


def dect_netlist_rate(cycles: int = 200, native: bool = False):
    """Cycles/sec of every DECT component netlist replaying the port logs
    of a *cycles*-long interpreted run (the generated testbench of Fig. 8).

    The replay runs twice from the initial state and the second pass is
    timed.
    """
    from repro.designs.dect import build_transceiver
    from repro.fixpt import Fx, quantize_raw
    from repro.sim import PortLog
    from repro.synth import GateSimulator, synthesize_system

    transceiver, step = _dect_interpreted_run()
    logs = {process.name: PortLog(process)
            for process in transceiver.chip.system.timed_processes()}
    transceiver.scheduler.monitors.extend(logs.values())
    for _ in range(cycles):
        step()

    def raw(token, fmt) -> int:
        return token.raw if isinstance(token, Fx) else quantize_raw(token, fmt)

    synthesis = synthesize_system(build_transceiver().system)
    replays = []
    for component in synthesis.components:
        log = logs[component.netlist.name]
        ports = [(port.name, port.sig.fmt, log.inputs[port.name])
                 for port in log.process.in_ports()]
        program = [{name: raw(tokens[cycle], fmt)
                    for name, fmt, tokens in ports
                    if tokens[cycle] is not None}
                   for cycle in range(cycles)]
        with _kernel(native):
            simulator = GateSimulator(component.netlist)
        replays.append((simulator, simulator.save_state(), program))

    def replay() -> float:
        for simulator, initial, _program in replays:
            simulator.restore_state(initial)
        start = time.perf_counter()
        for cycle in range(cycles):
            for simulator, _initial, program in replays:
                simulator.step(program[cycle])
        return time.perf_counter() - start

    replay()
    return cycles / replay(), synthesis


def dect_loc() -> Dict[str, int]:
    import repro.designs.dect.controller as controller_mod
    import repro.designs.dect.datapaths as datapaths_mod
    import repro.designs.dect.formats as formats_mod
    import repro.designs.dect.irom as irom_mod
    import repro.designs.dect.pcctrl as pcctrl_mod
    import repro.designs.dect.program as program_mod
    import repro.designs.dect.ram as ram_mod
    import repro.designs.dect.transceiver as transceiver_mod
    from repro.designs.dect import build_transceiver
    from repro.hdl import generate_vhdl, line_count

    python = sum(source_lines(m) for m in (
        controller_mod, datapaths_mod, formats_mod, irom_mod, pcctrl_mod,
        program_mod, ram_mod, transceiver_mod,
    ))
    chip = build_transceiver()
    return {"python": python, "vhdl": line_count(generate_vhdl(chip.system))}


# -- the table --------------------------------------------------------------------


@dataclass
class Table1Row:
    design: str
    approach: str
    loc: Optional[int]
    speed: float
    size_mb: Optional[float]

    def paper(self) -> Dict[str, object]:
        return PAPER_TABLE1.get((self.design, self.approach), {})


def table1_rows(include_dect: bool = True,
                include_netlist: bool = True) -> List[Table1Row]:
    """Measure every Table 1 cell on this machine."""
    rows: List[Table1Row] = []
    hcor_sizes = hcor_loc()

    from repro.designs.hcor import build_hcor
    from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator

    _design, interp_mb = _traced_mb(
        lambda: CycleScheduler(build_hcor().system))
    _sim, compiled_mb = _traced_mb(
        lambda: CompiledSimulator(build_hcor().system))
    _ev, event_mb = _traced_mb(
        lambda: EventSimulator(build_hcor().system))

    rows.append(Table1Row("HCOR", "interpreted", hcor_sizes["python"],
                          hcor_interpreted_rate(), interp_mb))
    rows.append(Table1Row("HCOR", "compiled", hcor_sizes["python"],
                          hcor_compiled_rate(), compiled_mb))
    rows.append(Table1Row("HCOR", "event_rt", hcor_sizes["vhdl"],
                          hcor_event_rate(), event_mb))
    if include_netlist:
        rows.append(Table1Row("HCOR", "netlist", None,
                              hcor_netlist_rate(), None))
        rows.append(Table1Row("HCOR", "netlist_native", None,
                              hcor_netlist_rate(native=True), None))
    if include_dect:
        dect_sizes = dect_loc()
        rows.append(Table1Row("DECT", "interpreted", dect_sizes["python"],
                              dect_interpreted_rate(), None))
        rows.append(Table1Row("DECT", "compiled", dect_sizes["python"],
                              dect_compiled_rate(), None))
        rows.append(Table1Row("DECT", "event_rt", dect_sizes["vhdl"],
                              dect_event_rate(), None))
        if include_netlist:
            rate, _synthesis = dect_netlist_rate()
            rows.append(Table1Row("DECT", "netlist", None, rate, None))
            rate, _synthesis = dect_netlist_rate(native=True)
            rows.append(Table1Row("DECT", "netlist_native", None, rate,
                                  None))
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """Render measured rows next to the paper's numbers."""
    header = (f"{'design':<6} {'approach':<14} {'LoC':>7} "
              f"{'cyc/s':>10} {'MB':>7} | {'paper c/s':>10} {'paper LoC':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = row.paper()
        lines.append(
            f"{row.design:<6} {row.approach:<14} "
            f"{row.loc if row.loc is not None else '-':>7} "
            f"{row.speed:>10.1f} "
            f"{f'{row.size_mb:.1f}' if row.size_mb is not None else '-':>7} | "
            f"{paper.get('speed', '-'):>10} {paper.get('loc', '-'):>10}"
        )
    return "\n".join(lines)
