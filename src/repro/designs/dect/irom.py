"""Instruction ROM and microcode assembler for the VLIW controller.

The instruction word carries one opcode field per datapath (in
:data:`~repro.designs.dect.datapaths.DATAPATH_TABLES` order, LSB first)
followed by the sequencer fields: a PC operation, a condition selector
and a branch target.  The :class:`Program` assembler provides labels,
branches and named opcode fields; :class:`InstructionRom` is the
high-level (untimed) lookup-table component of the paper's Fig. 2/5, a
:class:`~repro.core.Rom`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ...core import Rom
from ...core.errors import ModelError
from .datapaths import DATAPATH_TABLES
from .formats import field_width, opcode

#: Sequencer PC operations.
PC_OPS = ["NEXT", "JMP", "JCC", "JNC"]
PC_OP_BITS = 2

#: Condition codes selectable by JCC/JNC.
CONDITIONS = ["hit", "a_done", "d_done", "b_done", "crc_ok", "alu_flag"]
COND_BITS = 3

#: Branch target width (4096 microwords max).
TARGET_BITS = 12


def _field_layout() -> List[Tuple[str, int, int]]:
    """(name, lsb, width) for each datapath field, then sequencer fields."""
    layout = []
    position = 0
    for name, table in DATAPATH_TABLES:
        width = field_width(table)
        layout.append((name, position, width))
        position += width
    layout.append(("pc_op", position, PC_OP_BITS))
    position += PC_OP_BITS
    layout.append(("cond", position, COND_BITS))
    position += COND_BITS
    layout.append(("target", position, TARGET_BITS))
    position += TARGET_BITS
    return layout


FIELD_LAYOUT = _field_layout()
WORD_BITS = FIELD_LAYOUT[-1][1] + FIELD_LAYOUT[-1][2]
_FIELD_BY_NAME = {name: (lsb, width) for name, lsb, width in FIELD_LAYOUT}
_TABLE_BY_NAME = dict(DATAPATH_TABLES)


def field_slice(name: str) -> Tuple[int, int]:
    """(lsb, width) of a named instruction field."""
    return _FIELD_BY_NAME[name]


@dataclass
class _Step:
    fields: Dict[str, int]
    pc_op: int
    cond: int
    target: Union[int, str]


class Program:
    """Microcode assembler with labels and symbolic opcodes."""

    def __init__(self) -> None:
        self._steps: List[_Step] = []
        self._labels: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._steps)

    @property
    def here(self) -> int:
        """The address of the next emitted step."""
        return len(self._steps)

    def label(self, name: str) -> int:
        """Define a label at the current address."""
        if name in self._labels:
            raise ModelError(f"duplicate label {name!r}")
        self._labels[name] = self.here
        return self.here

    def step(self, pc_op: str = "NEXT", cond: Optional[str] = None,
             target: Union[int, str, None] = None, **fields: str) -> int:
        """Emit one microword.

        Keyword arguments name datapaths and give the mnemonic to issue,
        e.g. ``program.step(io_i="LOAD", disc="SOFTRAW")``; unnamed
        datapaths get NOP.  ``pc_op``/``cond``/``target`` control the
        sequencer.
        """
        encoded: Dict[str, int] = {}
        for name, mnemonic in fields.items():
            table = _TABLE_BY_NAME.get(name)
            if table is None:
                raise ModelError(f"unknown datapath field {name!r}")
            try:
                encoded[name] = opcode(table, mnemonic)
            except ValueError:
                raise ModelError(
                    f"datapath {name!r} has no instruction {mnemonic!r}"
                ) from None
        op_index = PC_OPS.index(pc_op)
        cond_index = CONDITIONS.index(cond) if cond is not None else 0
        if pc_op in ("JMP", "JCC", "JNC") and target is None:
            raise ModelError(f"{pc_op} needs a target")
        self._steps.append(_Step(encoded, op_index, cond_index, target or 0))
        return len(self._steps) - 1

    def resolve(self, target: Union[int, str]) -> int:
        if isinstance(target, str):
            try:
                return self._labels[target]
            except KeyError:
                raise ModelError(f"undefined label {target!r}") from None
        return int(target)

    def assemble(self) -> List[int]:
        """Encode the program into instruction words."""
        words: List[int] = []
        for step in self._steps:
            word = 0
            for name, value in step.fields.items():
                lsb, width = _FIELD_BY_NAME[name]
                if value >= (1 << width):
                    raise ModelError(
                        f"opcode {value} does not fit field {name!r}"
                    )
                word |= value << lsb
            lsb, _w = _FIELD_BY_NAME["pc_op"]
            word |= step.pc_op << lsb
            lsb, _w = _FIELD_BY_NAME["cond"]
            word |= step.cond << lsb
            lsb, width = _FIELD_BY_NAME["target"]
            resolved = self.resolve(step.target)
            if resolved >= (1 << width):
                raise ModelError(f"branch target {resolved} out of range")
            word |= resolved << lsb
            words.append(word)
        return words


class InstructionRom(Rom):
    """The microcode lookup table, modeled at high level (untimed): a
    :class:`~repro.core.Rom` read at ``pc`` onto ``word``.  Past the
    program it reads 0, the all-NOP word, so the sequencer fetches on."""

    def __init__(self, words: List[int], name: str = "irom"):
        super().__init__(name, words, address="pc", data="word")
