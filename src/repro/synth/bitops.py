"""Word-level operators expanded to gate-level logic.

Datapath synthesis (the Cathedral-3 substitute) works on *words*: vectors
of nets in two's complement, LSB first, with an implied binary point.
This module provides the bit-parallel expansions: ripple-carry adders,
array multipliers, comparators, shifters (pure wiring), multiplexers and
the quantization logic (round / saturate / wrap) that implements the
fixed-point wordlength boundaries in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..fixpt import FxFormat, Overflow, Rounding
from ..core.errors import SynthesisError
from .gates import GateKind
from .netlist import Net, Netlist

# Reading an enum member through its class costs a metaclass lookup; the
# per-bit expansions below pass module constants instead.
_INV = GateKind.INV
_AND2 = GateKind.AND2
_OR2 = GateKind.OR2
_XOR2 = GateKind.XOR2
_XNOR2 = GateKind.XNOR2
_MUX2 = GateKind.MUX2


@dataclass
class Word:
    """A two's-complement value on wires: nets LSB-first + binary point."""

    nets: List[Net]
    frac: int = 0

    @property
    def width(self) -> int:
        return len(self.nets)

    @property
    def msb(self) -> Net:
        return self.nets[-1]


def const_word(nl: Netlist, raw: int, width: int, frac: int = 0) -> Word:
    """A constant word holding two's-complement *raw*."""
    nets = []
    for i in range(width):
        nets.append(nl.const((raw >> i) & 1))
    return Word(nets, frac)


def sign_extend(nl: Netlist, word: Word, width: int) -> Word:
    """Extend (or keep) *word* to *width* bits by repeating the MSB."""
    if width < word.width:
        raise SynthesisError("sign_extend cannot shrink a word")
    nets = list(word.nets) + [word.msb] * (width - word.width)
    return Word(nets, word.frac)


def align(nl: Netlist, word: Word, frac: int) -> Word:
    """Move the binary point to *frac* (pure wiring).

    Increasing frac appends constant-zero LSBs; decreasing truncates LSBs
    (round-toward-minus-infinity, as the fixed-point library does).
    """
    if frac == word.frac:
        return word
    if frac > word.frac:
        zeros = [nl.const(0)] * (frac - word.frac)
        return Word(zeros + list(word.nets), frac)
    drop = word.frac - frac
    if drop >= word.width:
        return Word([word.msb], frac)
    return Word(list(word.nets[drop:]), frac)


def _full_adder(nl: Netlist, a: Net, b: Net, cin: Net):
    x = nl.add(_XOR2, (a, b))
    s = nl.add(_XOR2, (x, cin))
    t1 = nl.add(_AND2, (a, b))
    t2 = nl.add(_AND2, (x, cin))
    cout = nl.add(_OR2, (t1, t2))
    return s, cout


def add(nl: Netlist, a: Word, b: Word, extra_bits: int = 1) -> Word:
    """Ripple-carry addition; result grows by *extra_bits*."""
    frac = max(a.frac, b.frac)
    a = align(nl, a, frac)
    b = align(nl, b, frac)
    width = max(a.width, b.width) + extra_bits
    a = sign_extend(nl, a, width)
    b = sign_extend(nl, b, width)
    carry = nl.const(0)
    bits: List[Net] = []
    for i in range(width):
        s, carry = _full_adder(nl, a.nets[i], b.nets[i], carry)
        bits.append(s)
    return Word(bits, frac)


def invert(nl: Netlist, a: Word) -> Word:
    """Bitwise complement."""
    return Word([nl.add(_INV, (n,)) for n in a.nets], a.frac)


def sub(nl: Netlist, a: Word, b: Word, extra_bits: int = 1) -> Word:
    """a - b via a + ~b + 1."""
    frac = max(a.frac, b.frac)
    a = align(nl, a, frac)
    b = align(nl, b, frac)
    width = max(a.width, b.width) + extra_bits
    a = sign_extend(nl, a, width)
    b = sign_extend(nl, b, width)
    nb = invert(nl, b)
    carry = nl.const(1)
    bits: List[Net] = []
    for i in range(width):
        s, carry = _full_adder(nl, a.nets[i], nb.nets[i], carry)
        bits.append(s)
    return Word(bits, frac)


def negate(nl: Netlist, a: Word) -> Word:
    """Two's-complement negation (one growth bit)."""
    zero = const_word(nl, 0, a.width, a.frac)
    return sub(nl, zero, a)


def absolute(nl: Netlist, a: Word) -> Word:
    """Absolute value: sign ? -a : a."""
    neg = negate(nl, a)
    wide = sign_extend(nl, a, neg.width)
    return mux_word(nl, a.msb, neg, wide)


def multiply(nl: Netlist, a: Word, b: Word) -> Word:
    """Signed array multiplier.

    Both operands are sign-extended to the full product width; the
    shift-add array computes the product modulo 2**W, which equals the
    true signed product because W covers every representable result.
    """
    width = a.width + b.width
    frac = a.frac + b.frac
    ax = sign_extend(nl, a, width)
    bx = sign_extend(nl, b, width)
    acc: Optional[Word] = None
    for i in range(width):
        row_nets = [nl.const(0)] * i
        for j in range(width - i):
            row_nets.append(nl.add(_AND2, (ax.nets[j], bx.nets[i])))
        row = Word(row_nets[:width], 0)
        if acc is None:
            acc = row
        else:
            summed = add(nl, acc, row, extra_bits=0)
            acc = Word(summed.nets[:width], 0)
    assert acc is not None
    return Word(acc.nets, frac)


def equal(nl: Netlist, a: Word, b: Word) -> Net:
    """1-bit equality."""
    frac = max(a.frac, b.frac)
    a = align(nl, a, frac)
    b = align(nl, b, frac)
    width = max(a.width, b.width)
    a = sign_extend(nl, a, width)
    b = sign_extend(nl, b, width)
    bits = [
        nl.add(_XNOR2, (a.nets[i], b.nets[i])) for i in range(width)
    ]
    return _and_tree(nl, bits)


def less_than(nl: Netlist, a: Word, b: Word) -> Net:
    """1-bit signed a < b: the sign of (a - b)."""
    diff = sub(nl, a, b)
    return diff.msb


def _and_tree(nl: Netlist, bits: Sequence[Net]) -> Net:
    nodes = list(bits)
    if not nodes:
        return nl.const(1)
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            nxt.append(nl.add(_AND2, (nodes[i], nodes[i + 1])))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return nodes[0]


def or_tree(nl: Netlist, bits: Sequence[Net]) -> Net:
    """OR reduction of a list of nets."""
    nodes = list(bits)
    if not nodes:
        return nl.const(0)
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            nxt.append(nl.add(_OR2, (nodes[i], nodes[i + 1])))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return nodes[0]


def bitwise(nl: Netlist, kind: GateKind, a: Word, b: Word) -> Word:
    """Bitwise AND/OR/XOR on integer words."""
    width = max(a.width, b.width)
    a = sign_extend(nl, a, width)
    b = sign_extend(nl, b, width)
    return Word(
        [nl.add(kind, (a.nets[i], b.nets[i])) for i in range(width)], a.frac
    )


def mux_word(nl: Netlist, sel: Net, if_true: Word, if_false: Word) -> Word:
    """Word multiplexer: sel ? if_true : if_false."""
    frac = max(if_true.frac, if_false.frac)
    t = align(nl, if_true, frac)
    f = align(nl, if_false, frac)
    width = max(t.width, f.width)
    t = sign_extend(nl, t, width)
    f = sign_extend(nl, f, width)
    return Word(
        [nl.add(_MUX2, (sel, t.nets[i], f.nets[i]))
         for i in range(width)],
        frac,
    )


def shift_left(nl: Netlist, a: Word, bits: int) -> Word:
    """Constant left shift: value grows, pure wiring."""
    zeros = [nl.const(0)] * bits
    return Word(zeros + list(a.nets) + [a.msb] * 0, a.frac)


def shift_right(nl: Netlist, a: Word, bits: int) -> Word:
    """Constant arithmetic right shift modeled as a binary-point move."""
    return Word(list(a.nets), a.frac + bits)


def quantize(nl: Netlist, a: Word, fmt: FxFormat) -> Word:
    """Fold a word into *fmt*: round/truncate, then saturate or wrap.

    The result has ``vector_width(fmt)`` bits (one headroom bit for
    unsigned formats, matching the HDL generators).
    """
    from ..ir.formats import vector_width

    out_width = vector_width(fmt)
    shift = a.frac - fmt.frac_bits
    value = a
    if shift > 0 and fmt.rounding is Rounding.ROUND:
        half = const_word(nl, 1 << (shift - 1), shift + 1, a.frac)
        value = add(nl, value, half)
    if shift != 0:
        value = align(nl, value, fmt.frac_bits)

    if fmt.overflow is Overflow.SATURATE:
        if value.width < out_width:
            value = sign_extend(nl, value, out_width)
        hi = const_word(nl, fmt.raw_max, out_width, fmt.frac_bits)
        lo = const_word(nl, fmt.raw_min, out_width, fmt.frac_bits)
        above = less_than(
            nl, sign_extend(nl, hi, value.width), value
        )
        below = less_than(
            nl, value, sign_extend(nl, lo, value.width)
        )
        trunc = Word(list(value.nets[:out_width]), fmt.frac_bits)
        clipped = mux_word(nl, below, lo, trunc)
        result = mux_word(nl, above, hi, clipped)
        return Word(result.nets[:out_width], fmt.frac_bits)

    # Wraparound: keep the low fmt.wl bits; unsigned formats zero the
    # headroom bit so the word reads as a non-negative value.
    if value.width < fmt.wl:
        value = sign_extend(nl, value, fmt.wl)
    low = list(value.nets[:fmt.wl])
    if not fmt.signed:
        low.append(nl.const(0))
    return Word(low, fmt.frac_bits)
