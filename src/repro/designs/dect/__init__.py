"""The DECT base-station radiolink transceiver ASIC (the paper's driver).

The architecture of Fig. 5: a central VLIW controller and program-counter
controller (with the Fig. 2 execute/hold behaviour), an instruction ROM,
22 datapaths decoding between 2 and 57 instructions each, and 7 RAM cells
modeled as high-level untimed blocks.
"""

from .controller import build_vliw
from .datapaths import DATAPATH_TABLES, build_all
from .irom import CONDITIONS, PC_OPS, WORD_BITS, InstructionRom, Program
from .pcctrl import build_pcctrl
from .program import DEFAULT_WARMUP_SYMBOLS, burst_program
from .ram import build_rams
from .transceiver import DectChip, DectTransceiver, build_transceiver

__all__ = [
    "CONDITIONS",
    "DATAPATH_TABLES",
    "DEFAULT_WARMUP_SYMBOLS",
    "DectChip",
    "DectTransceiver",
    "InstructionRom",
    "PC_OPS",
    "Program",
    "WORD_BITS",
    "build_all",
    "build_pcctrl",
    "build_rams",
    "build_transceiver",
    "build_vliw",
    "burst_program",
]
