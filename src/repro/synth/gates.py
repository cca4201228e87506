"""The gate library: primitive cells and their area cost.

Area is expressed in NAND2-equivalent gates, the unit the paper uses for
its "75 Kgate" / "6 Kgate" complexity figures.  The numbers follow typical
standard-cell relative areas for a 0.7 um CMOS library of the era.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class GateKind(enum.Enum):
    """Primitive cell types available to technology mapping.

    Each member carries ``code``, its position in :data:`KINDS`: a
    :class:`~repro.synth.netlist.Netlist` stores kinds as these small
    integers, which need no enum hashing or class lookups.
    """

    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    INV = "inv"
    AND2 = "and2"
    OR2 = "or2"
    NAND2 = "nand2"
    NOR2 = "nor2"
    XOR2 = "xor2"
    XNOR2 = "xnor2"
    MUX2 = "mux2"  # inputs: (sel, a, b) -> sel ? a : b
    DFF = "dff"    # input: (d,) -> q, clocked


#: Every kind in code order: ``KINDS[kind.code] is kind``.
KINDS: Tuple[GateKind, ...] = tuple(GateKind)
for _code, _kind in enumerate(KINDS):
    _kind.code = _code
del _code, _kind


#: Area per cell in NAND2 equivalents.
AREA: Dict[GateKind, float] = {
    GateKind.CONST0: 0.0,
    GateKind.CONST1: 0.0,
    GateKind.BUF: 0.67,
    GateKind.INV: 0.67,
    GateKind.AND2: 1.33,
    GateKind.OR2: 1.33,
    GateKind.NAND2: 1.0,
    GateKind.NOR2: 1.0,
    GateKind.XOR2: 2.33,
    GateKind.XNOR2: 2.33,
    GateKind.MUX2: 2.33,
    GateKind.DFF: 5.33,
}

#: Number of data inputs each kind consumes.
ARITY: Dict[GateKind, int] = {
    GateKind.CONST0: 0,
    GateKind.CONST1: 0,
    GateKind.BUF: 1,
    GateKind.INV: 1,
    GateKind.AND2: 2,
    GateKind.OR2: 2,
    GateKind.NAND2: 2,
    GateKind.NOR2: 2,
    GateKind.XOR2: 2,
    GateKind.XNOR2: 2,
    GateKind.MUX2: 3,
    GateKind.DFF: 1,
}


def evaluate_gate(kind: GateKind, inputs) -> int:
    """Boolean function of one cell over bit inputs (0/1)."""
    if kind is GateKind.CONST0:
        return 0
    if kind is GateKind.CONST1:
        return 1
    if kind is GateKind.BUF:
        return inputs[0]
    if kind is GateKind.INV:
        return 1 - inputs[0]
    if kind is GateKind.AND2:
        return inputs[0] & inputs[1]
    if kind is GateKind.OR2:
        return inputs[0] | inputs[1]
    if kind is GateKind.NAND2:
        return 1 - (inputs[0] & inputs[1])
    if kind is GateKind.NOR2:
        return 1 - (inputs[0] | inputs[1])
    if kind is GateKind.XOR2:
        return inputs[0] ^ inputs[1]
    if kind is GateKind.XNOR2:
        return 1 - (inputs[0] ^ inputs[1])
    if kind is GateKind.MUX2:
        return inputs[1] if inputs[0] else inputs[2]
    raise ValueError(f"cannot evaluate {kind} combinationally")


def evaluate_gate_word(kind: GateKind, inputs, mask: int) -> int:
    """Word-parallel boolean function of one cell.

    Bit L of every operand carries lane L's value, so one bitwise Python
    operation evaluates the cell for ``mask.bit_length()`` independent
    stimulus vectors at once — the classic bit-sliced simulation trick.
    *mask* is ``(1 << lanes) - 1``; every result is masked to it, and with
    ``mask == 1`` this degenerates exactly to :func:`evaluate_gate`.
    """
    if kind is GateKind.CONST0:
        return 0
    if kind is GateKind.CONST1:
        return mask
    if kind is GateKind.BUF:
        return inputs[0]
    if kind is GateKind.INV:
        return inputs[0] ^ mask
    if kind is GateKind.AND2:
        return inputs[0] & inputs[1]
    if kind is GateKind.OR2:
        return inputs[0] | inputs[1]
    if kind is GateKind.NAND2:
        return (inputs[0] & inputs[1]) ^ mask
    if kind is GateKind.NOR2:
        return (inputs[0] | inputs[1]) ^ mask
    if kind is GateKind.XOR2:
        return inputs[0] ^ inputs[1]
    if kind is GateKind.XNOR2:
        return (inputs[0] ^ inputs[1]) ^ mask
    if kind is GateKind.MUX2:
        sel = inputs[0]
        return (sel & inputs[1]) | ((sel ^ mask) & inputs[2])
    raise ValueError(f"cannot evaluate {kind} combinationally")
