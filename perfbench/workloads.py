"""The two seeded workloads: the HCOR correlator and the DECT transceiver.

Each workload supplies a function that captures the design, a seeded
stimulus program (one ``{pin: value}`` mapping per cycle) with the output
every cycle must show, and the component its fault campaign runs on.
:func:`setup` turns a workload into the four Table 1 engines, a compile
turnaround task and a campaign, timing every stage in spans.  Design
turnaround is measured twice over:

* set-up time is the whole turnaround from source to four running
  engines, dominated by ``synthesize_system`` (controller and datapath
  synthesis, linkage, netlist optimization);
* the compile turnaround alone (capture, then ``CompiledSimulator``:
  lower, IR passes, emit, ``compile()``) is short enough to repeat as a
  timed task beside the engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from harness import (
    NO_MISMATCH, CampaignTask, Replay, Tracer, TurnaroundTask, span_seconds,
)


@dataclass
class Stimulus:
    """A stimulus program and the reference output of every cycle."""

    program: List[Dict[str, object]]
    expected: List[int]
    #: End-of-program check on the compiled engine's design: failures.
    end_check: Optional[Callable[[object], int]] = None
    #: Failures found while deriving the program (reference decode).
    failures: int = 0


# -- HCOR: a stream of noisy DECT bursts ---------------------------------------------


class Hcor:
    """HCOR hunting for S-field sync words in a stream of soft symbols.

    The stream holds 16 bursts (S-field plus a 388-bit D-field, each
    symbol +-1 with noise of one LSB) separated by 40-80 symbols of line
    noise.  The D-field is random but for an idle tail of zeros: the FSM
    rearms while the last D-field symbols are still in its window, and a
    random tail could look like a sync word.  Soft symbols sit on the
    s<6,3> grid, so every engine sees exact values; the sync pulse must
    fire one cycle after each sync word's last symbol and nowhere else.
    """

    name = "hcor"
    watch = "sync"
    campaign_component = "hcor"
    campaign_chunk = 128
    campaign_cycles = 24
    setup_repeats = 5
    replay_window = 1500
    bursts = 16
    idle_tail = 24

    @staticmethod
    def build():
        from repro.designs.hcor import build_hcor

        return build_hcor()

    def stimulus(self, seed: int) -> Stimulus:
        from repro.dsp.dect import D_FIELD_BITS, SYNC_RFP, s_field

        rng = np.random.default_rng(seed)
        eighths: List[int] = []
        pulses = []
        for _ in range(self.bursts):
            gap = int(rng.integers(40, 81))
            eighths.extend(rng.integers(-1, 2, size=gap).tolist())
            payload = rng.integers(0, 2, size=D_FIELD_BITS - self.idle_tail)
            bits = s_field() + payload.tolist() + [0] * self.idle_tail
            noise = rng.integers(-1, 2, size=len(bits)).tolist()
            start = len(eighths)
            eighths.extend((8 if bit else -8) + n
                           for bit, n in zip(bits, noise))
            pulses.append(start + len(s_field()))
        eighths.extend(rng.integers(-1, 2, size=40).tolist())

        # The pulse fires the cycle after a window ending at cycle t
        # reaches the threshold (10.4, i.e. 83 eighths); a lock then
        # ignores the next 388 symbols.  A sync word scores at least 112
        # eighths, its S-field sidelobes at most 80.  No other window the
        # searching FSM sees may reach the threshold, or the reference
        # would be wrong.
        sign = np.array([1 if bit else -1 for bit in SYNC_RFP])
        corr = np.correlate(np.array(eighths), sign, mode="valid")
        searching = np.ones(len(corr), dtype=bool)
        for pulse in pulses:
            searching[pulse - len(sign):pulse + 380 - len(sign)] = False
        if np.any(corr[searching] >= 83):
            raise RuntimeError(f"seed {seed}: HCOR stream reaches threshold")

        expected = [0] * len(eighths)
        for cycle in pulses:
            expected[cycle] = 1
        program = [{"soft": value / 8} for value in eighths]
        return Stimulus(program, expected)


# -- DECT: one chip-paced burst decode ---------------------------------------------------


class Dect:
    """The 22-datapath DECT transceiver decoding one seeded burst.

    A random burst is modulated on a clean channel and the host-side LMS
    equalizer is trained on its S-field.  A chip-paced run of the
    compiled engine (the chip's LOAD acks advance the sample stream)
    records the pin values of every cycle and the program counter trace;
    it must decode the A- and B-fields exactly.  That pin program is the
    stimulus every engine replays, and the program counter trace is the
    reference each must reproduce.
    """

    name = "dect"
    watch = "pc"
    campaign_component = "alu"
    campaign_chunk = 128
    campaign_cycles = 24
    setup_repeats = 3
    replay_window = 200

    @staticmethod
    def build():
        from repro.designs.dect import build_transceiver

        return build_transceiver()

    def stimulus(self, seed: int) -> Stimulus:
        from repro.designs.dect import DectTransceiver
        from repro.dsp import (
            ComplexLmsEqualizer, build_burst, modulate, random_payloads,
        )
        from repro.sim import CompiledSimulator

        rng = np.random.default_rng(seed)
        a_payload, b_payload = random_payloads(rng)
        burst = build_burst(a_payload, b_payload)
        samples = modulate(burst.bits, 8)
        equalizer = ComplexLmsEqualizer()
        equalizer.train(samples, burst.bits[:32])
        coefficients = DectTransceiver.chip_coefficients(equalizer.weights)
        grid = list(samples[::4])

        chip = self.build()
        simulator = CompiledSimulator(chip.system, watch=[chip.ack, chip.pc])
        done_pc = len(chip.irom.words) - 1
        pointer = coef_index = 0
        program: List[Dict[str, object]] = []
        expected: List[int] = []
        for _cycle in range(6000):
            sample = grid[pointer] if pointer < len(grid) else 0j
            coef = coefficients[min(coef_index, len(coefficients) - 1)]
            pins = {
                "sample_i": float(sample.real),
                "sample_q": float(sample.imag),
                "hold_request": 0,
                "ctl_coef_re": float(coef.real),
                "ctl_coef_im": float(coef.imag),
            }
            program.append(pins)
            simulator.step(pins)
            if int(simulator.output(chip.ack)):
                pointer += 1
            if coef_index < len(coefficients) - 1:
                coef_index = int(simulator.snapshot()["coefadr_addr"])
            pc = int(simulator.output(chip.pc))
            expected.append(pc)
            if pc == done_pc and pointer > 16:
                break

        def end_check(design) -> int:
            a_bits = [int(b) for b in design.rams["out_a"].dump()]
            b_bits = [int(b) for b in design.rams["out_b"].dump()]
            return int(a_bits != burst.a_field) + int(
                b_bits[:len(burst.b_field)] != burst.b_field)

        return Stimulus(program, expected, end_check, end_check(chip))


WORKLOADS = {"hcor": Hcor(), "dect": Dect()}


# -- set-up: the four engines and the campaign ------------------------------------------


@dataclass
class Bench:
    """Everything one run measures, built by :func:`setup`."""

    replays: List[Replay]
    turnaround: TurnaroundTask
    campaign: CampaignTask
    counts: Dict[str, float]
    stimulus_failures: int
    #: Wall time of this set-up.
    seconds: float

    @property
    def tasks(self) -> List[object]:
        return [*self.replays, self.turnaround, self.campaign]


def _channel(system, name: str):
    return next(chan for chan in system.channels if chan.name == name)


def setup(workload, seed: int, tracer: Tracer) -> Bench:
    """Build the engines and campaign for one seeded run of *workload*."""
    from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator, PortLog
    from repro.synth import GateSimulator, synthesize_system
    from repro.verify import collapse_faults, random_stimulus

    with tracer.span("setup") as total:
        with tracer.span("stimulus", units=1):
            stimulus = workload.stimulus(seed)
        program, expected = stimulus.program, stimulus.expected
        length = len(program)
        watch = workload.watch

        # Interpreted: the cycle scheduler, logging every component's ports
        # for the netlist replay.
        with tracer.span("capture", units=1):
            design = workload.build()
        with tracer.span("interpreted_build", units=1):
            scheduler = CycleScheduler(design.system)
            channels = {chan.name: chan for chan in design.system.channels}
            channel_program = [{channels[k]: v for k, v in pins.items()}
                               for pins in program]
            logs = [PortLog(p) for p in design.system.timed_processes()]
            scheduler.monitors.extend(logs)
            interpreted_init = scheduler.save_state()
        interpreted_watch = channels[watch]

        def interpreted_step(cycle: int):
            scheduler.step(channel_program[cycle])
            return interpreted_watch.value if interpreted_watch.valid else None

        def interpreted_restart() -> int:
            # One logged program pass is what the netlist replays.
            for log in logs:
                if log in scheduler.monitors:
                    scheduler.monitors.remove(log)
            scheduler.restore_state(interpreted_init)
            return 0

        # Compiled: generated step function.
        def build_compiled():
            with tracer.span("capture", units=1):
                design = workload.build()
            with tracer.span("compiled_build", units=1):
                return design, CompiledSimulator(
                    design.system, watch=[_channel(design.system, watch)])

        compiled_design, compiled = build_compiled()
        compiled_init = compiled.save_state()
        compiled_outputs = compiled.outputs

        def compiled_step(cycle: int):
            compiled.step(program[cycle])
            return compiled_outputs[watch]

        def compiled_restart() -> int:
            failures = 0
            if stimulus.end_check is not None:
                failures = stimulus.end_check(compiled_design)
            compiled.restore_state(compiled_init)
            return failures

        # Event-driven RT: no checkpoint, so a restart rebuilds it.
        event = {}

        def build_event() -> None:
            with tracer.span("capture", units=1):
                event_design = workload.build()
            with tracer.span("event_build", units=1):
                simulator = EventSimulator(event_design.system)
            sig = _channel(event_design.system, watch).producer.sig
            box = event.setdefault("box", [None])

            def monitor(sim, sig=sig, box=box):
                box[0] = sim.value(sig)

            simulator.monitors.append(monitor)
            event["sim"] = simulator

        build_event()
        event_box = event["box"]

        def event_step(cycle: int):
            event["sim"].step(program[cycle])
            return event_box[0]

        def event_restart() -> int:
            build_event()
            return 0

        # Netlist: synthesize every timed component, replay the port logs.
        with tracer.span("capture", units=1):
            synth_design = workload.build()
        with tracer.span("synth", units=1):
            synthesis = synthesize_system(synth_design.system)
        with tracer.span("levelize", units=1):
            netlist_replay = NetlistReplay(
                [(c.netlist, GateSimulator(c.netlist))
                 for c in synthesis.components], logs)

        # Campaign: a seeded order of the collapsed fault universe.
        netlist = next(c.netlist for c in synthesis.components
                       if c.process.name == workload.campaign_component)
        with tracer.span("collapse", units=1):
            representatives = list(collapse_faults(netlist).classes)
        random.Random(seed).shuffle(representatives)
        campaign = CampaignTask(
            netlist,
            random_stimulus(netlist, workload.campaign_cycles, seed=seed),
            representatives, workload.campaign_chunk)

    # The slow engines cycle through the program's first
    # ``replay_window`` cycles, so every run samples the same cycles
    # however fast the host is; the compiled engine runs the whole program.
    window = min(workload.replay_window, length)
    replays = [
        Replay("interpreted", interpreted_step, expected, lambda: window,
               interpreted_restart),
        Replay("compiled", compiled_step, expected, lambda: length,
               compiled_restart),
        Replay("event_rt", event_step, expected, lambda: window,
               event_restart),
        Replay("netlist", netlist_replay.step, NO_MISMATCH,
               netlist_replay.length, netlist_replay.restart),
    ]
    turnaround = TurnaroundTask(lambda: build_compiled()[1],
                                compiled.ir_op_count)
    counts = {
        "ir_ops": compiled.ir_op_count,
        "ir_pass_ms": sum(stat["time_us"]
                          for stat in compiled.pass_stats.values()) / 1000,
        "gates": synthesis.total_gates,
        "collapsed_faults": len(representatives),
    }
    return Bench(replays, turnaround, campaign, counts, stimulus.failures,
                 span_seconds(total))


class NetlistReplay:
    """The interpreted run's port logs replayed through component netlists.

    This is the paper's generated-testbench check (Fig. 8): every cycle
    drives each synthesized component with the inputs its process saw
    and compares every output it produced.  ``step`` returns the number
    of mismatching outputs.
    """

    def __init__(self, netlists, logs) -> None:
        from repro.fixpt import Fx, quantize_raw

        self._fx = Fx
        self._quantize_raw = quantize_raw
        by_name = {log.process.name: log for log in logs}
        self.logs = logs
        self.components = []
        for netlist, simulator in netlists:
            log = by_name[netlist.name]
            process = log.process
            inputs = [(p.name, p.sig.fmt, log.inputs[p.name])
                      for p in process.in_ports()]
            outputs = [(p.name, p.sig.fmt, log.outputs[p.name])
                       for p in process.out_ports()]
            captured: Dict[str, int] = {}
            names = [name for name, _fmt, _tokens in outputs]

            def sample(sim, captured=captured, names=names):
                for name in names:
                    captured[name] = sim.output(name)

            simulator.monitors = [sample]
            self.components.append(
                (simulator, simulator.save_state(), inputs, outputs,
                 captured))

    def _raw(self, token, fmt) -> int:
        if isinstance(token, self._fx):
            return token.raw
        return self._quantize_raw(token, fmt)

    def length(self) -> int:
        return self.logs[0].cycles

    def step(self, cycle: int) -> int:
        mismatches = 0
        raw = self._raw
        for simulator, _init, inputs, outputs, captured in self.components:
            pins = {}
            for name, fmt, tokens in inputs:
                token = tokens[cycle]
                if token is not None:
                    pins[name] = raw(token, fmt)
            simulator.step(pins)
            for name, fmt, tokens in outputs:
                token = tokens[cycle]
                if token is not None and captured[name] != raw(token, fmt):
                    mismatches += 1
        return mismatches

    def restart(self) -> int:
        for simulator, init, _inputs, _outputs, _captured in self.components:
            simulator.restore_state(init)
        return 0
