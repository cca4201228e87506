"""A typed three-address IR for lowered signal-flow graphs.

The paper feeds simulation, HDL generation and synthesis from one
``gen_code()`` data structure.  This module is that shared form for the
reproduction: an :class:`IRBlock` is a list of :class:`IROp` values in
SSA/topological order, where a value id is simply the op's index in the
list.  Every op carries the binary-point position (``frac``) and the
signed-vector width of its result, so a back-end never re-derives
fixed-point alignment — the lowering (:mod:`repro.ir.lower`) has already
made every shift, quantization and mux-branch alignment explicit.

Value domains
-------------
``frac`` is an ``int`` for fixed-point values: the op's result is a raw
integer whose real value is ``raw * 2**-frac``.  ``frac is None`` marks
the float/interpreter domain (unformatted signals); only the compiled
simulator accepts such ops — HDL generation and synthesis require
formats everywhere and never see them.

Opcodes
-------
=============  =========================  =====================================
opcode         attrs                      meaning (raw domain)
=============  =========================  =====================================
``const``      ``(raw,)``                 integer literal at ``frac``
``fconst``     ``(value,)``               float literal (``frac is None``)
``read``       ``(sig,)``                 leaf read of a signal/register
``add sub``    ``()``                     operands pre-aligned to equal frac
``mul``        ``()``                     result frac = sum of operand fracs
``neg abs``    ``()``                     arithmetic; one growth bit
``shl``        ``(bits,)``                ``raw << bits`` (float: ``* 2**bits``)
``ashr``       ``(bits,)``                arithmetic ``raw >> bits``
``retag``      ``()``                     raw unchanged, frac/width re-labelled
``cmp``        ``(pyop,)``                pre-aligned compare; 0/1 at frac 0
``band bor
bxor``         ``(wl, signed)``           masked bitwise op, sign-folded
``bnot``       ``(wl, signed)``           masked bitwise invert, sign-folded
``mux``        ``()``                     args = (sel, t, f); t/f pre-aligned
``bitsel``     ``(index,)``               bit of a frac-0 value
``slice``      ``(hi, lo)``               unsigned field of a frac-0 value
``concat``     ``(widths...)``            frac-0 parts, first = most significant
``quantize``   ``(fmt,)``                 round/saturate/wrap into *fmt*
``tofloat``    ``()``                     raw at frac -> Python float
``toint``      ``()``                     float -> ``int()`` (truncation)
=============  =========================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import CodegenError
# The wordlength boundary is defined once, in the number system; it is
# re-exported here for the back-ends that render it.
from ..fixpt import quantize_raw, quantize_raw_at, sign_fold

#: Opcodes whose result lives in the float/interpreter domain markers.
FLOAT_OPS = frozenset({"fconst", "tofloat"})

#: Opcodes that never deserve a temporary (already atomic references).
LEAF_OPS = frozenset({"const", "fconst", "read"})

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class IROp:
    """One three-address operation; its value id is its block index."""

    opcode: str
    args: Tuple[int, ...] = ()
    attrs: Tuple = ()
    #: Binary-point position of the result; None = float domain.
    frac: Optional[int] = 0
    #: Signed-vector bits needed to hold the result (0 in float domain).
    width: int = 0


@dataclass(frozen=True)
class Store:
    """Commit a block value into a signal/register target.

    The lowered value already includes the quantization into the
    target's format (or a ``tofloat`` for unformatted targets), so a
    back-end only renders an assignment.
    """

    target: object  # Sig
    value: int


@dataclass
class IRBlock:
    """An SSA op list plus the stores/roots that keep it alive."""

    ops: List[IROp] = field(default_factory=list)
    stores: List[Store] = field(default_factory=list)
    #: Extra live value ids (FSM guard conditions, watched expressions).
    roots: List[int] = field(default_factory=list)
    #: Source locations (value id -> SrcLoc) of the model expressions each
    #: op was lowered from.  A side-table so op identity/CSE keys are
    #: unaffected; populated by the lowerer, dropped by the optimization
    #: passes (lint analyses run on freshly lowered, unoptimized blocks).
    locs: Dict[int, object] = field(default_factory=dict)

    def emit(self, op: IROp) -> int:
        self.ops.append(op)
        return len(self.ops) - 1

    def op_count(self) -> int:
        return len(self.ops)

    def counts(self) -> Dict[str, int]:
        """Op histogram by opcode (handy for tests and benchmarks)."""
        out: Dict[str, int] = {}
        for op in self.ops:
            out[op.opcode] = out.get(op.opcode, 0) + 1
        return out


def execute(block: IRBlock,
            read: Callable[[object], object],
            override: Optional[Callable[[int, object], object]] = None
            ) -> Dict[int, object]:
    """Reference interpreter: evaluate every op of *block*.

    *read* maps a leaf signal to its current value — a raw integer for
    formatted signals, a Python number for unformatted ones.  Returns
    the full id -> value map so tests can check stores and roots.  This
    is the executable specification the fast back-ends are validated
    against; it is deliberately simple, not fast.

    *override*, when given, maps ``(value id, computed value)`` to the
    value actually recorded — the hook the bit-liveness soundness
    harness uses to flip claimed-dead bits of one intermediate value
    and confirm no observable moves.
    """
    values: Dict[int, object] = {}
    for index, op in enumerate(block.ops):
        a = [values[arg] for arg in op.args]
        code = op.opcode
        if code == "const" or code == "fconst":
            result = op.attrs[0]
        elif code == "read":
            result = read(op.attrs[0])
        elif code == "add":
            result = a[0] + a[1]
        elif code == "sub":
            result = a[0] - a[1]
        elif code == "mul":
            result = a[0] * a[1]
        elif code == "neg":
            result = -a[0]
        elif code == "abs":
            result = abs(a[0])
        elif code == "shl":
            bits = op.attrs[0]
            if op.frac is None:
                result = a[0] * (2.0 ** bits)
            else:
                result = a[0] << bits
        elif code == "ashr":
            result = a[0] >> op.attrs[0]
        elif code == "retag":
            result = a[0]
        elif code == "cmp":
            result = 1 if _CMP[op.attrs[0]](a[0], a[1]) else 0
        elif code in ("band", "bor", "bxor"):
            wl, signed = op.attrs
            mask = (1 << wl) - 1
            x, y = a[0] & mask, a[1] & mask
            raw = x & y if code == "band" else (
                x | y if code == "bor" else x ^ y)
            result = sign_fold(raw, wl, signed)
        elif code == "bnot":
            wl, signed = op.attrs
            result = sign_fold(~a[0], wl, signed)
        elif code == "mux":
            sel = a[0]
            taken = bool(int(sel)) if isinstance(sel, float) else bool(sel)
            result = a[1] if taken else a[2]
        elif code == "bitsel":
            result = (a[0] >> op.attrs[0]) & 1
        elif code == "slice":
            hi, lo = op.attrs
            result = (a[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
        elif code == "concat":
            result = 0
            for value, width in zip(a, op.attrs):
                result = (result << width) | (value & ((1 << width) - 1))
        elif code == "quantize":
            fmt = op.attrs[0]
            src = block.ops[op.args[0]]
            if src.frac is None:
                result = quantize_raw(a[0], fmt)
            else:
                result = quantize_raw_at(a[0], src.frac, fmt)
        elif code == "tofloat":
            src = block.ops[op.args[0]]
            result = a[0] if not src.frac else a[0] * (2.0 ** -src.frac)
        elif code == "toint":
            result = int(a[0])
        else:
            raise CodegenError(f"unknown IR opcode {code!r}")
        if override is not None:
            result = override(index, result)
        values[index] = result
    return values
