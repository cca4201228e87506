"""Interval (value-range) analysis over lowered IR blocks.

The dataflow analysis behind the overflow-proof rules: every IR value id
is mapped to a conservative ``[lo, hi]`` interval of its *raw* integer
value (at the op's binary point ``frac``).  Leaf reads start from the
signal's :class:`~repro.fixpt.FxFormat` range — the strongest invariant
that holds on every cycle — and ranges propagate forward through
``add``/``sub``/``mul``/shift/``mux``/bit ops exactly as
:func:`repro.ir.ops.execute` computes them, so the reference interpreter
is the soundness oracle (the test suite brute-forces small wordlengths
against it, and cross-checks every constant the IR const-folding pass
proves).

``quantize`` ops are where wordlength effects happen, so that is where
the analysis *judges*: it computes the rounded value interval at the
target binary point and compares it against the format's representable
raw range, classifying each step as safe, possibly overflowing, or
**certainly** overflowing (the entire reachable range falls outside the
format — the paper's §3.3 fixed-point refinement gone wrong, proven
without simulation).  Float-domain ops (``frac is None``) map to the
unknown interval; formats recover the range at the next boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fixpt import FxFormat, Overflow
from ..fixpt.quantize import round_raw_at
from ..ir.ops import IRBlock, IROp

#: The unknown interval (float domain / unbounded).
TOP = None


class Interval:
    """An inclusive raw-integer range ``[lo, hi]``.

    A plain ``__slots__`` class rather than a frozen dataclass: the
    range-proof pass builds one per IR op in every pass-pipeline
    iteration, so construction cost is compile turnaround.  Treat
    instances as immutable values.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp(self, lo: int, hi: int) -> "Interval":
        return Interval(min(max(self.lo, lo), hi), min(max(self.hi, lo), hi))

    def __contains__(self, raw: int) -> bool:
        return self.lo <= raw <= self.hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo}, hi={self.hi})"

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def fmt_interval(fmt: FxFormat) -> Interval:
    """The raw range representable by *fmt*."""
    return Interval(fmt.raw_min, fmt.raw_max)


@dataclass(frozen=True)
class Finding:
    """One judgement made while propagating ranges."""

    kind: str          # "overflow" | "collapse"
    vid: int           # the quantize op's value id
    fmt: FxFormat
    #: Rounded value interval at the target binary point, before the
    #: overflow policy is applied.
    value: Interval
    #: True when the entire interval falls outside the format.
    certain: bool = False

    def describe(self) -> str:
        scale = 2.0 ** -self.fmt.frac_bits
        lo, hi = self.value.lo * scale, self.value.hi * scale
        if self.kind == "collapse":
            return (f"quantize into {self.fmt} collapses the whole value "
                    f"range [{lo:g}, {hi:g}] to one constant")
        word = "always" if self.certain else "can"
        return (f"quantize into {self.fmt} {word} overflow{'s' if self.certain else ''}: "
                f"value range [{lo:g}, {hi:g}] vs representable "
                f"[{float(self.fmt.min_value):g}, {float(self.fmt.max_value):g}] "
                f"({self.fmt.overflow.value} on overflow)")


@dataclass
class Analysis:
    """The result of :func:`analyze` on one block."""

    block: IRBlock
    intervals: List[Optional[Interval]] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    def of(self, vid: int) -> Optional[Interval]:
        """The interval of value id *vid* (None = unknown)."""
        return self.intervals[vid]

    def store_interval(self, index: int) -> Optional[Interval]:
        """The interval committed by store *index*."""
        return self.intervals[self.block.stores[index].value]


def shifted_interval(source: Interval, frac: int, fmt: FxFormat) -> Interval:
    """*source* (raw at binary point *frac*) pushed through the quantize
    shift into *fmt*, before the overflow policy — the value interval
    :func:`~repro.fixpt.quantize.quantize_raw_at` judges.  The shift is
    monotonic, so the end points map to the end points."""
    return Interval(round_raw_at(source.lo, frac, fmt),
                    round_raw_at(source.hi, frac, fmt))


def _signed_bits(raw: int) -> int:
    """Signed-vector bits needed to represent *raw* exactly."""
    if raw >= 0:
        return raw.bit_length() + 1
    return (-raw - 1).bit_length() + 1


def signed_width(value: Interval) -> int:
    """Smallest signed-vector width holding every raw in *value*."""
    return max(_signed_bits(value.lo), _signed_bits(value.hi))


def minimal_format(value: Interval, fmt: FxFormat):
    """The smallest ``(wl, iwl, signed)`` holding *value* at *fmt*'s
    binary point.

    *value* is a raw interval at ``fmt.frac_bits``; the suggested format
    keeps the binary point (``wl - iwl``) and the signedness unless the
    value forces a sign bit.  This is the advice L4xx overflow findings
    and the L5xx bit rules both append, so the two families stay
    consistent.
    """
    signed = fmt.signed or value.lo < 0
    if signed:
        wl = max(signed_width(value), 1)
    else:
        wl = max(value.hi.bit_length(), 1)
    return wl, wl - fmt.frac_bits, signed


def describe_format(wl: int, iwl: int, signed: bool) -> str:
    """Human form of a suggested format, matching FxFormat's repr."""
    sign = "" if signed else ", signed=False"
    return f"FxFormat({wl}, {iwl}{sign})"


def _mul(a: Interval, b: Interval) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def analyze(block: IRBlock,
            leaf_interval=None) -> Analysis:
    """Propagate raw-value intervals through every op of *block*.

    *leaf_interval* optionally maps a leaf signal to a tighter
    :class:`Interval` than its format range (e.g. a primary input with a
    known stimulus range); return None from it to fall back to the
    format.
    """
    result = Analysis(block)
    iv: List[Optional[Interval]] = result.intervals
    findings = result.findings
    for vid, op in enumerate(block.ops):
        iv.append(transfer(block, op, iv, vid, findings, leaf_interval))
    return result


def transfer(block: IRBlock, op: IROp, intervals: List[Optional[Interval]],
             vid: int, findings: Optional[List[Finding]] = None,
             leaf_interval=None) -> Optional[Interval]:
    """Single-op interval transfer over caller-supplied operand facts.

    The one transfer function: :func:`analyze` folds it over a block,
    and the reduced product (:mod:`repro.lint.bits`) and the
    ``elide_quantize`` pass re-run it over their own operand facts.
    *intervals* must hold an entry for every operand id; quantize
    judgements are appended to *findings* when given and never built
    otherwise.  The opcodes the lowerer emits most are tested first.
    """
    code = op.opcode
    args = op.args

    # Ops with their own range rules (they recover from unknown operands).
    if code == "const":
        raw = op.attrs[0]
        return Interval(raw, raw)
    if code == "read":
        sig = op.attrs[0]
        if leaf_interval is not None:
            got = leaf_interval(sig)
            if got is not None:
                return got
        fmt = getattr(sig, "fmt", None)
        if op.frac is None or fmt is None:
            return TOP
        return fmt_interval(fmt)
    if code == "cmp" or code == "bitsel":
        return Interval(0, 1)
    if code == "quantize":
        fmt: FxFormat = op.attrs[0]
        src_frac = block.ops[args[0]].frac
        source = intervals[args[0]]
        if src_frac is None or source is TOP:
            return fmt_interval(fmt)  # float source: only the format bounds it
        lo, hi = fmt.raw_min, fmt.raw_max
        value = shifted_interval(source, src_frac, fmt)
        if lo <= value.lo and value.hi <= hi:
            if (findings is not None and value.lo == value.hi
                    and source.lo != source.hi):
                findings.append(Finding("collapse", vid, fmt, value))
            return value
        if findings is not None:
            certain = value.hi < lo or value.lo > hi
            findings.append(Finding("overflow", vid, fmt, value, certain))
        if fmt.overflow is Overflow.WRAP:
            return fmt_interval(fmt)  # wrapping is not monotonic
        return value.clamp(lo, hi)
    if code == "slice":
        hi, lo = op.attrs
        return Interval(0, (1 << (hi - lo + 1)) - 1)
    if code == "concat":
        return Interval(0, (1 << sum(op.attrs)) - 1)
    if code in ("band", "bor", "bxor", "bnot"):
        wl, signed = op.attrs
        if signed:
            return Interval(-(1 << (wl - 1)), (1 << (wl - 1)) - 1)
        return Interval(0, (1 << wl) - 1)

    # Everything below propagates unknowns.
    if op.frac is None or not args:
        return TOP
    a = intervals[args[0]]
    if a is TOP:
        return TOP
    if code == "mux":
        t, f = intervals[args[1]], intervals[args[2]]
        if t is TOP or f is TOP:
            return TOP
        return t.hull(f)
    if code in ("add", "sub", "mul"):
        b = intervals[args[1]]
        if b is TOP:
            return TOP
        if code == "add":
            return Interval(a.lo + b.lo, a.hi + b.hi)
        if code == "sub":
            return Interval(a.lo - b.hi, a.hi - b.lo)
        return _mul(a, b)
    if code == "shl":
        bits = op.attrs[0]
        return Interval(a.lo << bits, a.hi << bits)
    if code == "ashr":
        bits = op.attrs[0]
        return Interval(a.lo >> bits, a.hi >> bits)
    if code == "retag" or code == "toint":
        return a
    if code == "neg":
        return Interval(-a.hi, -a.lo)
    if code == "abs":
        lo = 0 if a.lo <= 0 <= a.hi else min(abs(a.lo), abs(a.hi))
        return Interval(lo, max(abs(a.lo), abs(a.hi)))
    return TOP  # tofloat and anything unrecognized
