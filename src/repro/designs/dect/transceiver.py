"""The assembled DECT transceiver ASIC (paper Fig. 5).

Central VLIW controller + program-counter controller + instruction ROM +
22 datapaths + 7 RAM cells, wired into one :class:`~repro.core.System`.
:class:`DectTransceiver` adds the testbench-side conveniences: sample
pacing (the chip's LOAD acks clock the stream), coefficient loading over
the CTL bus, and result extraction from the output RAMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...core import Channel, Ram, System
from ...fixpt import Fx, quantize
from ...sim import CycleScheduler
from . import formats as F
from .controller import build_vliw
from .datapaths import build_all
from .irom import CONDITIONS, InstructionRom, Program
from .pcctrl import build_pcctrl
from .program import burst_program
from .ram import build_rams


@dataclass
class DectChip:
    """The wired system plus its external channels."""

    system: System
    clk: "Clock"
    datapaths: Dict[str, "TimedProcess"]
    rams: Dict[str, Ram]
    irom: InstructionRom
    # external input channels
    sample_i: Channel
    sample_q: Channel
    hold: Channel
    coef_re: Channel
    coef_im: Channel
    # observability channels
    pc: Channel
    status: Channel
    soft: Channel
    ack: Channel
    sym_count: Channel
    dr_word: Channel
    dr_valid: Channel


def build_transceiver(program: Optional[Program] = None,
                      a_len: int = 64, payload_len: int = 388) -> DectChip:
    """Wire the full transceiver system."""
    from ...core import Clock

    clk = Clock("dect_clk")
    dps = build_all(clk)
    rams = build_rams()
    vliw = build_vliw(clk)
    pcctrl = build_pcctrl(clk)
    if program is None:
        program = burst_program(a_len=a_len, payload_len=payload_len)
    irom = InstructionRom(program.assemble())

    # symcnt compare constants must match the program's field lengths.
    from .datapaths import build_symcnt

    dps["symcnt"] = build_symcnt(clk, a_len=a_len, d_len=payload_len)

    system = System("dect_transceiver")
    for process in dps.values():
        system.add(process)
    for ram in rams.values():
        system.add(ram)
    system.add(vliw)
    system.add(pcctrl)
    system.add(irom)

    def port(name: str, port_name: str):
        return (dps[name] if name in dps else
                {"vliw": vliw, "pcctrl": pcctrl}[name]).port(port_name)

    connect = system.connect

    # -- sequencer spine -----------------------------------------------------------
    pc_chan = connect(pcctrl.port("pc"), irom.port("pc"), name="pc")
    connect(irom.port("word"), vliw.port("word"), name="iword")
    connect(pcctrl.port("hold_active"), vliw.port("hold_active"),
            name="hold_active")
    connect(vliw.port("pc_op"), pcctrl.port("pc_op"))
    connect(vliw.port("cond"), pcctrl.port("cond_sel"))
    connect(vliw.port("target"), pcctrl.port("target"))

    # instruction busses
    for name in dps:
        connect(vliw.port(name), dps[name].port("instr"),
                name=f"ibus_{name}")

    # condition flags
    connect(dps["thresh"].port("hit"), pcctrl.port("hit"), name="c_hit")
    connect(dps["symcnt"].port("a_done"), pcctrl.port("a_done"),
            name="c_a_done")
    connect(dps["symcnt"].port("d_done"), pcctrl.port("d_done"),
            name="c_d_done")
    connect(dps["symcnt"].port("b_done"), pcctrl.port("b_done"),
            name="c_b_done")
    crc_ok = connect(dps["crc"].port("ok"), pcctrl.port("crc_ok"),
                     dps["ctlreg"].port("crc_ok"), name="c_crc_ok")
    connect(dps["alu"].port("flag"), pcctrl.port("alu_flag"),
            rams["scratch"].port("we"), name="c_alu_flag")

    # -- external pins ----------------------------------------------------------------
    sample_i = connect(None, dps["io_i"].port("sample"), name="sample_i")
    sample_q = connect(None, dps["io_q"].port("sample"), name="sample_q")
    hold = connect(None, pcctrl.port("hold"), name="hold_request")
    coef_re = connect(None, *(dps[f"fir{i}"].port("coef_re")
                              for i in range(4)), name="ctl_coef_re")
    coef_im = connect(None, *(dps[f"fir{i}"].port("coef_im")
                              for i in range(4)), name="ctl_coef_im")

    # -- receive datapath ----------------------------------------------------------------
    ack = connect(dps["io_i"].port("ack"), name="ack_i")
    connect(dps["io_q"].port("ack"), rams["samp_q"].port("we"), name="ack_q")
    system.attach(ack, rams["samp_i"].port("we"))
    connect(dps["io_i"].port("q"), dps["agc"].port("i"))
    connect(dps["io_q"].port("q"), dps["agc"].port("q"))
    agc_i = connect(dps["agc"].port("yi"), dps["fir0"].port("in_re"),
                    dps["disc"].port("raw_re"), rams["samp_i"].port("wdata"))
    agc_q = connect(dps["agc"].port("yq"), dps["fir0"].port("in_im"),
                    dps["disc"].port("raw_im"), rams["samp_q"].port("wdata"))
    for i in range(3):
        connect(dps[f"fir{i}"].port("cas_re"),
                dps[f"fir{i + 1}"].port("in_re"))
        connect(dps[f"fir{i}"].port("cas_im"),
                dps[f"fir{i + 1}"].port("in_im"))
    lms_x_re = connect(dps["fir3"].port("cas_re"), dps["lms"].port("x_re"))
    lms_x_im = connect(dps["fir3"].port("cas_im"), dps["lms"].port("x_im"))
    for i in range(4):
        connect(dps[f"fir{i}"].port("p_re"), dps["sum"].port(f"p_re{i}"))
        connect(dps[f"fir{i}"].port("p_im"), dps["sum"].port(f"p_im{i}"))
    connect(dps["sum"].port("y_re"), dps["disc"].port("c_re"))
    connect(dps["sum"].port("y_im"), dps["disc"].port("c_im"))
    connect(dps["sum"].port("c_re"), name="sum_center_re")
    connect(dps["sum"].port("c_im"), name="sum_center_im")
    soft = connect(dps["disc"].port("soft"), dps["slicer"].port("soft"),
                   dps["hcor_dp"].port("soft"), dps["dbg"].port("probe"),
                   dps["lms"].port("e_re"), dps["lms"].port("e_im"),
                   name="soft")
    connect(dps["hcor_dp"].port("corr"), dps["thresh"].port("corr"))
    bit_chan = connect(dps["slicer"].port("bit"), dps["crc"].port("bit"),
                       dps["drout"].port("bit"),
                       rams["out_a"].port("wdata"),
                       rams["out_b"].port("wdata"), name="bit")

    # -- output / bookkeeping ---------------------------------------------------------
    sym_count = connect(dps["symcnt"].port("count"),
                        rams["samp_i"].port("waddr"),
                        rams["samp_q"].port("waddr"), name="sym_count")
    out_addr = connect(dps["outadr"].port("addr"),
                       rams["out_a"].port("waddr"),
                       rams["out_b"].port("waddr"),
                       rams["out_a"].port("addr"),
                       rams["out_b"].port("addr"),
                       rams["samp_i"].port("addr"),
                       rams["samp_q"].port("addr"), name="out_addr")
    push = connect(dps["drout"].port("push"), rams["out_a"].port("we"),
                   rams["out_b"].port("we"), name="push")
    connect(dps["deframe"].port("a_en"), rams["out_a"].port("wgate"))
    connect(dps["deframe"].port("b_en"), rams["out_b"].port("wgate"))
    connect(dps["deframe"].port("field"), name="field")
    dr_word = connect(dps["drout"].port("word"), name="dr_word")
    dr_valid = connect(dps["drout"].port("valid"), name="dr_valid")
    status = connect(dps["ctlreg"].port("status"), name="ctl_status")
    connect(dps["crc"].port("lfsr"), name="crc_lfsr")
    connect(dps["dbg"].port("q"), name="dbg_q")

    # -- coefficient RAM / LMS lane -----------------------------------------------------
    coef_addr = connect(dps["coefadr"].port("addr"),
                        rams["coef_re"].port("addr"),
                        rams["coef_im"].port("addr"),
                        rams["coef_re"].port("waddr"),
                        rams["coef_im"].port("waddr"), name="coef_addr")
    connect(rams["coef_re"].port("q"), dps["lms"].port("w_re"))
    connect(rams["coef_im"].port("q"), dps["lms"].port("w_im"))
    connect(dps["lms"].port("we"), rams["coef_re"].port("we"),
            rams["coef_im"].port("we"), name="lms_we")
    connect(dps["lms"].port("out_re"), rams["coef_re"].port("wdata"))
    connect(dps["lms"].port("out_im"), rams["coef_im"].port("wdata"))

    # -- ALU / scratch RAM ----------------------------------------------------------------
    connect(dps["alu"].port("r3"), rams["scratch"].port("addr"),
            rams["scratch"].port("waddr"), name="alu_r3")
    connect(dps["alu"].port("r0"), rams["scratch"].port("wdata"),
            name="alu_r0")
    connect(rams["scratch"].port("q"), dps["alu"].port("ext"),
            name="scratch_q")
    connect(dps["alu"].port("r1"), name="alu_r1")
    connect(dps["alu"].port("r2"), name="alu_r2")

    return DectChip(
        system=system, clk=clk, datapaths=dps, rams=rams, irom=irom,
        sample_i=sample_i, sample_q=sample_q, hold=hold,
        coef_re=coef_re, coef_im=coef_im,
        pc=pc_chan, status=status, soft=soft, ack=ack,
        sym_count=sym_count, dr_word=dr_word, dr_valid=dr_valid,
    )


class DectTransceiver:
    """Testbench-level wrapper: build, drive, and read back the chip."""

    def __init__(self, a_len: int = 64, payload_len: int = 388,
                 program: Optional[Program] = None, obs=None):
        self.chip = build_transceiver(program=program, a_len=a_len,
                                      payload_len=payload_len)
        #: Optional :class:`repro.obs.Capture` shared by both engines.
        self.obs = obs
        self.scheduler = CycleScheduler(self.chip.system, obs=obs)
        self.cycles = 0

    @staticmethod
    def chip_coefficients(weights: Sequence[complex]) -> List[complex]:
        """Reorder reference equalizer weights for the causal chip FIR.

        Chip tap j holds reference weight ``N-1-j`` (the chip delay line
        runs newest-first), introducing the fixed decision delay.
        """
        weights = list(weights)
        return [weights[len(weights) - 1 - j] for j in range(len(weights))]

    def run_burst(self, samples: Sequence[complex],
                  coefficients: Sequence[complex],
                  max_cycles: int = 40000,
                  hold_cycles: Sequence[int] = ()) -> Dict[str, object]:
        """Feed a T/2-spaced complex sample stream through the chip.

        ``coefficients`` are in *chip order* (use
        :meth:`chip_coefficients` to convert reference weights).  The
        chip paces the stream via its LOAD acks.  ``hold_cycles`` lists
        testbench cycles during which the external hold_request pin is
        asserted (the Fig. 2 behaviour).
        """
        chip = self.chip
        scheduler = self.scheduler
        coefficients = list(coefficients)
        pointer = 0
        done_pc = len(chip.irom.words) - 1
        coef_index = 0
        hold_set = set(hold_cycles)
        pc_trace: List[int] = []
        soft_trace: List[float] = []

        for _cycle in range(max_cycles):
            sample = samples[pointer] if pointer < len(samples) else 0j
            coef = coefficients[min(coef_index, len(coefficients) - 1)]
            inputs = {
                chip.sample_i: float(np.real(sample)),
                chip.sample_q: float(np.imag(sample)),
                chip.hold: 1 if self.cycles in hold_set else 0,
                chip.coef_re: float(np.real(coef)),
                chip.coef_im: float(np.imag(coef)),
            }
            scheduler.step(inputs)
            self.cycles += 1
            # Chip-paced stream advance.
            if chip.ack.valid and int(chip.ack.value):
                pointer += 1
            # The CTL host tracks the coefficient-load sequencer.
            coef_index = int(chip.datapaths["coefadr"]
                             .port("addr").sig.current)
            pc_value = int(chip.pc.value) if chip.pc.valid else -1
            pc_trace.append(pc_value)
            if chip.soft.valid:
                soft_trace.append(float(chip.soft.value))
            if pc_value == done_pc and pointer > 16:
                break

        status = int(chip.status.value) if chip.status.valid else 0
        return {
            "cycles": self.cycles,
            "samples_consumed": pointer,
            "status": status,
            "sync_found": bool(status & 1),
            "crc_ok": bool(status & 2),
            "a_bits": [int(b) for b in chip.rams["out_a"].dump()],
            "b_bits": [int(b) for b in chip.rams["out_b"].dump()],
            "pc_trace": pc_trace,
            "soft_trace": soft_trace,
        }

    def run_burst_compiled(self, samples: Sequence[complex],
                           coefficients: Sequence[complex],
                           max_cycles: int = 40000,
                           obs=None) -> Dict[str, object]:
        """The same burst flow on the compiled-code simulator (Fig. 7).

        The generated step function replaces the interpreted cycle
        scheduler; the untimed RAM blocks are shared, so results are
        read back from the same RAM objects.  ``obs`` instruments this
        compiled run (defaults to the transceiver's own capture — pass
        a fresh :class:`~repro.obs.Capture` to keep the engines' counts
        separate for lockstep comparison).
        """
        from ...sim import CompiledSimulator

        chip = self.chip
        simulator = CompiledSimulator(chip.system,
                                      watch=[chip.ack, chip.pc, chip.status],
                                      obs=obs if obs is not None else self.obs)
        coefficients = list(coefficients)
        pointer = 0
        coef_index = 0
        done_pc = len(chip.irom.words) - 1
        for _cycle in range(max_cycles):
            sample = samples[pointer] if pointer < len(samples) else 0j
            coef = coefficients[min(coef_index, len(coefficients) - 1)]
            simulator.step({
                "sample_i": float(np.real(sample)),
                "sample_q": float(np.imag(sample)),
                "hold_request": 0,
                "ctl_coef_re": float(np.real(coef)),
                "ctl_coef_im": float(np.imag(coef)),
            })
            if int(simulator.output(chip.ack)):
                pointer += 1
            if coef_index < len(coefficients) - 1:
                coef_index = int(simulator.snapshot()["coefadr_addr"])
            if int(simulator.output(chip.pc)) == done_pc and pointer > 16:
                break
        status = int(simulator.output(chip.status))
        return {
            "cycles": simulator.cycle,
            "samples_consumed": pointer,
            "status": status,
            "sync_found": bool(status & 1),
            "crc_ok": bool(status & 2),
            "a_bits": [int(b) for b in chip.rams["out_a"].dump()],
            "b_bits": [int(b) for b in chip.rams["out_b"].dump()],
            "simulator": simulator,
        }


def lint_targets():
    """Design objects for ``tools/lint.py``."""
    return [build_transceiver().system]
