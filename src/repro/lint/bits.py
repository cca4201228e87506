"""Bit-level abstract interpretation over lowered IR blocks.

Where :mod:`repro.lint.interval` reasons about whole-word raw ranges,
this module tracks individual bits, with two cooperating domains:

* **Known bits** (forward).  Each value id maps to a :class:`KnownBits`
  fact — a pair of Python-int masks ``zeros``/``ones`` marking bits
  proved constant on every execution.  Python's unbounded two's
  complement makes the representation exact for the IR's raw integers:
  a *negative* mask claims an infinite tail of high bits (e.g.
  ``zeros = ~0b111`` says the value is a 3-bit unsigned quantity).
  Transfers cover every raw-domain opcode, including the fixed-point
  align/quantize ops the lowerer inserts; ``add``/``sub`` use the
  carry-propagation construction from LLVM's ``KnownBits``.

* **Bit liveness** (backward).  Demand masks flow from the observables
  (stores and roots — exactly what :mod:`repro.ir.equiv` compares)
  back to every operand: a bit is *dead* when flipping it can never
  change any observable.  Demand transfers are deliberately
  unconditional — a saturating or erroring quantize demands its whole
  operand even when the interval proves overflow impossible, because a
  liveness claim must survive arbitrary bit flips, not just reachable
  values (the brute-force harness in ``tests/lint/test_bits.py`` flips
  every claimed-dead bit and checks the observables).

The two domains and the interval domain form a **reduced product**:
each op's interval is recomputed over already-refined operand
intervals, known bits are seeded from the interval's common high bits,
and a finite unknown-mask tightens the interval right back
(:func:`bits_from_interval` / :func:`interval_from_bits`).

On top of the analysis:

* :func:`narrow_block` — the ``narrow_bitwidth`` IR pass body:
  constant-fold anything the product proves constant, rewrite
  provably-in-range quantizes into pure shifts, and relabel every op
  with its minimal width (range-exact, or demand-narrowed plus one
  guard bit so ``numeric_std.resize``'s keep-the-sign truncation stays
  faithful on every demanded bit).  Registered in
  :data:`repro.ir.passes.PIPELINES` as ``"narrow"`` and shipped under
  ``PassManager(validate=...)`` translation-validation obligations.
* :func:`elide_quantize_block` — the ``elide_quantize`` IR pass body
  of the compiled engines' ``"engine"`` pipeline: the same
  quantize-to-shift rewrite under the same safety predicate
  (:func:`quantize_safe`), driven by plain forward interval facts only,
  so the saturations, wrap folds and overflow checks that can never
  fire drop out of the generated step function.
* :func:`wordlength_report` — per-signal minimal ``(wl, iwl)`` rows
  for a design, the static seed for wordlength exploration; publishes
  to an obs metrics registry via the duck-typed ``counter().inc()``
  protocol.

Layering: this module may import only ``repro.core``, ``repro.ir``,
``repro.fixpt`` and :mod:`repro.lint.interval` (contract #7 in
``tools/check_layering.py``) — it is the one lint module
``repro.ir.passes`` reaches (lazily, for both pass bodies), mirroring
``ir/equiv.py``'s sanctioned edge onto the interval domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..fixpt import FxFormat, Overflow, Rounding
from ..ir.ops import IRBlock, IROp, LEAF_OPS, Store
from .interval import (
    Analysis,
    Interval,
    analyze,
    fmt_interval,
    minimal_format,
    shifted_interval,
    signed_width,
    transfer,
)


def _mask(bits: int) -> int:
    return (1 << bits) - 1


@dataclass(frozen=True)
class KnownBits:
    """Bits proved constant: ``zeros`` known 0, ``ones`` known 1.

    Masks are plain Python ints in two's complement, so a negative mask
    represents an infinite run of known high bits.  The concretization
    is ``{v : v & zeros == 0 and ~v & ones == 0}``; ``zeros & ones``
    must be empty.
    """

    zeros: int
    ones: int

    def __post_init__(self) -> None:
        if self.zeros & self.ones:
            raise ValueError(
                f"contradictory known bits: zeros={self.zeros:#x} "
                f"ones={self.ones:#x}")

    @property
    def known(self) -> int:
        return self.zeros | self.ones

    @property
    def unknown(self) -> int:
        return ~(self.zeros | self.ones)

    @property
    def is_constant(self) -> bool:
        return self.zeros | self.ones == -1

    @property
    def value(self) -> int:
        """The constant value (only valid when :attr:`is_constant`)."""
        return self.ones

    def contains(self, raw: int) -> bool:
        """True when *raw* is compatible with every known bit."""
        return (raw & self.zeros) == 0 and (~raw & self.ones) == 0

    def __str__(self) -> str:
        if self.is_constant:
            return f"const {self.ones}"
        unknown = self.unknown
        if unknown < 0:
            return f"zeros={self.zeros:#x} ones={self.ones:#x}"
        bits = max(unknown.bit_length(), self.ones.bit_length(), 1)
        digits = []
        for i in reversed(range(bits)):
            bit = 1 << i
            digits.append("?" if unknown & bit
                          else ("1" if self.ones & bit else "0"))
        return "…" + "".join(digits)


#: No bit known (the lattice top).
TOP_BITS = KnownBits(0, 0)


def const_bits(raw: int) -> KnownBits:
    """The exact fact for a constant raw value."""
    return KnownBits(~raw, raw)


def join_bits(a: KnownBits, b: KnownBits) -> KnownBits:
    """Union of concretizations: keep only bits known in both."""
    return KnownBits(a.zeros & b.zeros, a.ones & b.ones)


def meet_bits(a: KnownBits, b: KnownBits) -> KnownBits:
    """Intersection of two sound facts.

    Contradictory bits (possible only on vacuous paths, e.g. after a
    quantize that raises on every input) fall back to unknown rather
    than asserting an empty set.
    """
    zeros = a.zeros | b.zeros
    ones = a.ones | b.ones
    conflict = zeros & ones
    return KnownBits(zeros & ~conflict, ones & ~conflict)


def bits_from_interval(interval: Optional[Interval]) -> KnownBits:
    """Common high bits every raw in *interval* shares."""
    if interval is None:
        return TOP_BITS
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return const_bits(lo)
    diff = lo ^ hi
    if diff < 0:
        return TOP_BITS  # signs differ: no common high bits
    high = ~_mask(diff.bit_length())
    common = lo & high
    return KnownBits(~common & high, common & high)


def interval_from_bits(kb: KnownBits) -> Optional[Interval]:
    """The raw range implied by *kb* (None when the sign is unknown)."""
    unknown = kb.unknown
    if unknown < 0:
        return None
    return Interval(kb.ones, kb.ones | unknown)


def _tighten(interval: Optional[Interval],
             kb: KnownBits) -> Optional[Interval]:
    bound = interval_from_bits(kb)
    if bound is None:
        return interval
    if interval is None:
        return bound
    lo, hi = max(interval.lo, bound.lo), min(interval.hi, bound.hi)
    if lo > hi:
        return interval  # vacuous path: keep the base fact
    return Interval(lo, hi)


def _trailing_ones(mask: int) -> Optional[int]:
    """Consecutive set low bits of *mask* (None when infinite)."""
    if mask == -1:
        return None
    return ((~mask) & (mask + 1)).bit_length() - 1


def _not_bits(a: KnownBits) -> KnownBits:
    return KnownBits(a.ones, a.zeros)


def _add_bits(a: KnownBits, b: KnownBits, carry_zero: bool = True,
              carry_one: bool = False) -> KnownBits:
    """Known bits of ``a + b (+ carry)`` by carry propagation.

    The construction from LLVM's ``KnownBits::computeForAddCarry``:
    compute the sum with every unknown bit at its max and at its min;
    wherever both agree *and* all three inputs of that bit position are
    known, the result bit is known.
    """
    psz = ~a.zeros + ~b.zeros + (0 if carry_zero else 1)
    pso = a.ones + b.ones + (1 if carry_one else 0)
    carry_known = ~(psz ^ a.zeros ^ b.zeros) | (pso ^ a.ones ^ b.ones)
    known = a.known & b.known & carry_known
    return KnownBits(~psz & known, pso & known)


def _sub_bits(a: KnownBits, b: KnownBits) -> KnownBits:
    return _add_bits(a, _not_bits(b), carry_zero=False, carry_one=True)


def _neg_bits(a: KnownBits) -> KnownBits:
    return _sub_bits(const_bits(0), a)


def _mul_bits(a: KnownBits, b: KnownBits) -> KnownBits:
    if a.is_constant and b.is_constant:
        return const_bits(a.value * b.value)
    if (a.is_constant and a.value == 0) or (b.is_constant and b.value == 0):
        return const_bits(0)
    # Low-k agreement: the product mod 2**k needs only the operands'
    # low k bits, so when both are fully known the product's low k
    # bits are too.
    ka = _trailing_ones(a.known)
    kb = _trailing_ones(b.known)
    finite = [k for k in (ka, kb) if k is not None]
    k = min(finite) if finite else 0
    if k > 0:
        window = _mask(k)
        low = ((a.ones & window) * (b.ones & window)) & window
        kb_low = KnownBits(~low & window, low)
    else:
        kb_low = TOP_BITS
    # Trailing zeros multiply out: tz(a*b) >= tz(a) + tz(b).
    tz = (_trailing_ones(a.zeros) or 0) + (_trailing_ones(b.zeros) or 0)
    return meet_bits(kb_low, KnownBits(_mask(tz), 0))


def _abs_bits(a: KnownBits) -> KnownBits:
    if a.zeros < 0:  # an infinite known-zero tail: the value is >= 0
        return a
    if a.ones < 0:   # an infinite known-one tail: the value is < 0
        return _neg_bits(a)
    # Negation preserves trailing zeros, so |x| does too.
    return KnownBits(_mask(_trailing_ones(a.zeros) or 0), 0)


def _shl_bits(a: KnownBits, bits: int) -> KnownBits:
    return KnownBits((a.zeros << bits) | _mask(bits), a.ones << bits)


def _ashr_bits(a: KnownBits, bits: int) -> KnownBits:
    return KnownBits(a.zeros >> bits, a.ones >> bits)


def _window_bits(a: KnownBits, wl: int) -> KnownBits:
    """Known bits of ``raw & ((1 << wl) - 1)`` (an unsigned window)."""
    window = _mask(wl)
    return KnownBits((a.zeros & window) | ~window, a.ones & window)


def _fold_bits(kb: KnownBits, wl: int, signed: bool) -> KnownBits:
    """Known bits of ``sign_fold(window_value, wl, signed)``.

    *kb* must be window knowledge (bits at and above *wl* known zero).
    """
    if not signed:
        return kb
    low = _mask(wl - 1)
    top = 1 << (wl - 1)
    zeros, ones = kb.zeros & low, kb.ones & low
    if kb.zeros & top:
        zeros |= ~low
    elif kb.ones & top:
        ones |= ~low
    return KnownBits(zeros, ones)


_CMP_DECIDE = {
    "<": lambda a, b: 1 if a.hi < b.lo else (0 if a.lo >= b.hi else None),
    "<=": lambda a, b: 1 if a.hi <= b.lo else (0 if a.lo > b.hi else None),
    ">": lambda a, b: 1 if a.lo > b.hi else (0 if a.hi <= b.lo else None),
    ">=": lambda a, b: 1 if a.lo >= b.hi else (0 if a.hi < b.lo else None),
}


def _cmp_decide(pyop: str, ia: Optional[Interval], ib: Optional[Interval],
                ka: Optional[KnownBits],
                kb: Optional[KnownBits]) -> Optional[int]:
    """Decide a compare from refined operand facts, when possible."""
    equal = disjoint = None
    if ia is not None and ib is not None:
        if ia.is_constant and ib.is_constant:
            equal = ia.lo == ib.lo
        if ia.hi < ib.lo or ia.lo > ib.hi:
            disjoint = True
        if pyop in _CMP_DECIDE:
            return _CMP_DECIDE[pyop](ia, ib)
    if ka is not None and kb is not None:
        # A bit known 0 on one side and 1 on the other proves inequality.
        if (ka.zeros & kb.ones) | (ka.ones & kb.zeros):
            disjoint = True
    if pyop == "==":
        return 1 if equal else (0 if disjoint else None)
    if pyop == "!=":
        return 0 if equal else (1 if disjoint else None)
    return None


#: The 0/1 fact for undecided compares and bit selects.
_BOOL_BITS = KnownBits(~1, 0)


def _quantize_shift(src_frac: int, fmt: FxFormat) -> int:
    return src_frac - fmt.frac_bits


def quantize_safe(source: Optional[Interval], src_frac: Optional[int],
                  fmt: FxFormat) -> bool:
    """True when no raw value in *source* can overflow a quantize.

    *source* is the raw range of the quantize's operand at binary point
    *src_frac*.  The rounded shift into *fmt* must land inside the
    format's raw range for every value; then the overflow policy never
    fires and :func:`quantize_shift` computes the quantize exactly.  An
    unknown range or a float-domain source (``src_frac is None``) is
    never safe.  The one safety predicate behind both quantize rewrites.
    """
    if source is None or src_frac is None:
        return False
    value = shifted_interval(source, src_frac, fmt)
    return fmt.raw_min <= value.lo and value.hi <= fmt.raw_max


def quantize_shift(out: IRBlock, op: IROp, src: int, src_frac: int,
                   width: int) -> int:
    """Emit quantize *op* of value *src* without its overflow policy.

    The shift :func:`~repro.fixpt.quantize.quantize_raw_at` performs
    before it judges the range: a ``retag`` at an equal binary point,
    ``shl`` to gain fraction bits, ``ashr`` to drop them (ROUND adds
    half an LSB first).  Appends to *out* and returns the result's value
    id, labelled at *op*'s binary point with *width*.  Exact only when
    :func:`quantize_safe` holds for *src*'s range.
    """
    fmt: FxFormat = op.attrs[0]
    shift = _quantize_shift(src_frac, fmt)
    if shift == 0:
        return out.emit(IROp("retag", (src,), (), op.frac, width))
    if shift < 0:
        return out.emit(IROp("shl", (src,), (-shift,), op.frac, width))
    if fmt.rounding is Rounding.ROUND:
        half = out.emit(IROp("const", (), (1 << (shift - 1),), src_frac,
                             shift + 1))
        src = out.emit(IROp("add", (src, half), (), src_frac,
                            max(out.ops[src].width, shift + 1) + 1))
    return out.emit(IROp("ashr", (src,), (shift,), op.frac, width))


def _quantize_bits(src: KnownBits, source_interval: Optional[Interval],
                   src_frac: int, fmt: FxFormat) -> KnownBits:
    shift = _quantize_shift(src_frac, fmt)
    if shift < 0:
        shifted = _shl_bits(src, -shift)
    elif shift == 0:
        shifted = src
    elif fmt.rounding is Rounding.ROUND:
        shifted = _ashr_bits(_add_bits(src, const_bits(1 << (shift - 1))),
                             shift)
    else:
        shifted = _ashr_bits(src, shift)
    if quantize_safe(source_interval, src_frac, fmt):
        return shifted
    if fmt.overflow is Overflow.SATURATE:
        return join_bits(join_bits(shifted, const_bits(fmt.raw_min)),
                         const_bits(fmt.raw_max))
    if fmt.overflow is Overflow.WRAP:
        return _fold_bits(_window_bits(shifted, fmt.wl), fmt.wl, fmt.signed)
    return shifted  # ERROR: completing executions took the plain shift


def _transfer_bits(block: IRBlock, op: IROp, vid: int,
                   known: List[KnownBits],
                   intervals: List[Optional[Interval]]) -> KnownBits:
    """Forward known-bits transfer for one op over refined operand facts."""
    code = op.opcode
    if op.frac is None:
        return TOP_BITS
    args = op.args
    kbs = [known[a] for a in args]

    if code == "const":
        return const_bits(op.attrs[0])
    if code == "read":
        return TOP_BITS  # the interval reduction supplies format bits
    if code == "add":
        return _add_bits(kbs[0], kbs[1])
    if code == "sub":
        return _sub_bits(kbs[0], kbs[1])
    if code == "mul":
        return _mul_bits(kbs[0], kbs[1])
    if code == "neg":
        return _neg_bits(kbs[0])
    if code == "abs":
        return _abs_bits(kbs[0])
    if code == "shl":
        return _shl_bits(kbs[0], op.attrs[0])
    if code == "ashr":
        return _ashr_bits(kbs[0], op.attrs[0])
    if code == "retag":
        return kbs[0]
    if code == "cmp":
        decided = _cmp_decide(op.attrs[0], intervals[args[0]],
                              intervals[args[1]], kbs[0], kbs[1])
        return _BOOL_BITS if decided is None else const_bits(decided)
    if code in ("band", "bor", "bxor"):
        wl, signed = op.attrs
        wa, wb = _window_bits(kbs[0], wl), _window_bits(kbs[1], wl)
        if code == "band":
            out = KnownBits(wa.zeros | wb.zeros, wa.ones & wb.ones)
        elif code == "bor":
            out = KnownBits(wa.zeros & wb.zeros, wa.ones | wb.ones)
        else:
            agreed = wa.known & wb.known
            bits = wa.ones ^ wb.ones
            out = KnownBits(~bits & agreed, bits & agreed)
        return _fold_bits(out, wl, signed)
    if code == "bnot":
        wl, signed = op.attrs
        window = _mask(wl)
        src = kbs[0]
        out = KnownBits((src.ones & window) | ~window, src.zeros & window)
        return _fold_bits(out, wl, signed)
    if code == "mux":
        sel = intervals[args[0]]
        if sel is not None and sel.is_constant:
            return kbs[1] if sel.lo else kbs[2]
        return join_bits(kbs[1], kbs[2])
    if code == "bitsel":
        index = op.attrs[0]
        src = kbs[0]
        if (src.zeros >> index) & 1:
            return const_bits(0)
        if (src.ones >> index) & 1:
            return const_bits(1)
        return _BOOL_BITS
    if code == "slice":
        hi, lo = op.attrs
        window = _mask(hi - lo + 1)
        src = kbs[0]
        return KnownBits(((src.zeros >> lo) & window) | ~window,
                         (src.ones >> lo) & window)
    if code == "concat":
        zeros, ones = -1, 0
        position = sum(op.attrs)
        for kb, width in zip(kbs, op.attrs):
            position -= width
            window = _mask(width)
            region = window << position
            zeros = (zeros & ~region) | ((kb.zeros & window) << position)
            ones |= (kb.ones & window) << position
        return KnownBits(zeros, ones)
    if code == "quantize":
        src_op = block.ops[args[0]]
        if src_op.frac is None:
            return TOP_BITS  # float source: the interval bounds it
        return _quantize_bits(kbs[0], intervals[args[0]], src_op.frac,
                              op.attrs[0])
    if code == "toint":
        return TOP_BITS
    return TOP_BITS


def _below(demand: int) -> int:
    """Every bit at or below the highest demanded bit (carry closure)."""
    if demand == 0:
        return 0
    if demand < 0:
        return -1
    return _mask(demand.bit_length())


def _window_demand(demand: int, wl: int, signed: bool) -> int:
    """Demand on a sign-folded window value, mapped inside the window."""
    if not signed:
        return demand & _mask(wl)
    low = demand & _mask(wl - 1)
    if demand >> (wl - 1):
        low |= 1 << (wl - 1)  # every replicated bit is the fold bit
    return low


def store_window(target) -> Optional[int]:
    """The demand a store places on its committed value.

    The lowered value is already quantized into the target's format, so
    its low ``wl`` bits determine it exactly; unformatted targets demand
    everything.
    """
    fmt = getattr(target, "fmt", None)
    if fmt is None:
        return -1
    return _mask(fmt.wl)


def _backward_demand(block: IRBlock, known: List[KnownBits],
                     store_demand: Optional[Callable[[Store],
                                                     Optional[int]]] = None
                     ) -> List[int]:
    """Backward bit-liveness: demand masks from observables to leaves."""
    demand = [0] * len(block.ops)
    for root in block.roots:
        demand[root] = -1
    for store in block.stores:
        d = store_demand(store) if store_demand is not None else None
        if d is None:
            d = store_window(store.target)
        demand[store.value] |= d
    for vid in reversed(range(len(block.ops))):
        d = demand[vid]
        if d == 0:
            continue
        op = block.ops[vid]
        args = op.args
        if not args:
            continue
        if op.frac is None:
            for a in args:
                demand[a] = -1
            continue
        code = op.opcode
        if code in ("add", "sub", "mul"):
            below = _below(d)
            demand[args[0]] |= below
            demand[args[1]] |= below
        elif code == "neg":
            demand[args[0]] |= _below(d)
        elif code in ("abs", "cmp", "toint"):
            for a in args:
                demand[a] = -1
        elif code == "shl":
            demand[args[0]] |= d >> op.attrs[0]
        elif code == "ashr":
            demand[args[0]] |= d << op.attrs[0]
        elif code == "retag":
            demand[args[0]] |= d
        elif code in ("band", "bor", "bxor"):
            wl, signed = op.attrs
            window = _window_demand(d, wl, signed)
            if code == "bxor":
                demand[args[0]] |= window
                demand[args[1]] |= window
            else:
                # A bit the sibling pins to the op's absorbing element
                # (0 for and, 1 for or) is dead on this operand: the
                # sibling keeps its real value under our flips.
                sibling = (known[args[1]], known[args[0]])
                for a, other in zip(args, sibling):
                    kill = other.zeros if code == "band" else other.ones
                    demand[a] |= window & ~kill
        elif code == "bnot":
            wl, signed = op.attrs
            demand[args[0]] |= _window_demand(d, wl, signed)
        elif code == "mux":
            demand[args[0]] = -1  # any flipped selector bit can retarget
            demand[args[1]] |= d
            demand[args[2]] |= d
        elif code == "bitsel":
            demand[args[0]] |= 1 << op.attrs[0]
        elif code == "slice":
            hi, lo = op.attrs
            demand[args[0]] |= (d & _mask(hi - lo + 1)) << lo
        elif code == "concat":
            position = sum(op.attrs)
            for a, width in zip(args, op.attrs):
                position -= width
                demand[a] |= (d >> position) & _mask(width)
        elif code == "quantize":
            fmt: FxFormat = op.attrs[0]
            src = block.ops[args[0]]
            if src.frac is None:
                demand[args[0]] = -1
            elif fmt.overflow is Overflow.ERROR:
                # The raise is observable even when the result is not.
                demand[args[0]] = -1
            elif fmt.overflow is Overflow.SATURATE:
                demand[args[0]] = -1  # the clamp compares the whole value
            else:  # WRAP: a pure shift-and-fold, bit for bit
                window = _window_demand(d, fmt.wl, fmt.signed)
                shift = _quantize_shift(src.frac, fmt)
                if shift < 0:
                    demand[args[0]] |= window >> -shift
                elif shift == 0:
                    demand[args[0]] |= window
                elif fmt.rounding is Rounding.ROUND:
                    demand[args[0]] |= _below(window << shift)
                else:
                    demand[args[0]] |= window << shift
        else:
            for a in args:
                demand[a] = -1
    return demand


@dataclass
class BitsAnalysis:
    """The reduced product of known bits, liveness and intervals."""

    block: IRBlock
    #: Forward known-bits fact per value id.
    known: List[KnownBits] = field(default_factory=list)
    #: Interval per value id, refined by the product (at least as tight
    #: as the plain interval analysis).
    intervals: List[Optional[Interval]] = field(default_factory=list)
    #: Backward demand mask per value id (0 = fully dead).
    demand: List[int] = field(default_factory=list)
    #: Quantize vids proved overflow-free on their refined source range.
    quantize_safe: Dict[int, bool] = field(default_factory=dict)
    #: The unrefined interval analysis (findings feed the L4xx rules).
    base: Optional[Analysis] = None

    def dead_mask(self, vid: int) -> int:
        """Bits of *vid* no observable ever reads, within its width."""
        return _mask(self.block.ops[vid].width) & ~self.demand[vid]


def analyze_bits(block: IRBlock, leaf_interval=None,
                 store_demand: Optional[Callable[[Store], Optional[int]]]
                 = None) -> BitsAnalysis:
    """Run the reduced-product bit analysis over *block*.

    *leaf_interval* is forwarded to the interval domain.  *store_demand*
    optionally overrides the demand a store contributes (return None to
    fall back to the format window) — the L5xx dead-bit rule passes a
    hook that zeroes internal wires so only architectural observables
    generate demand.
    """
    result = BitsAnalysis(block)
    result.base = analyze(block, leaf_interval=leaf_interval)
    intervals: List[Optional[Interval]] = result.intervals
    known: List[KnownBits] = result.known
    for vid, op in enumerate(block.ops):
        refined = transfer(block, op, intervals, vid,
                           leaf_interval=leaf_interval)
        intervals.append(refined)
        kb = _transfer_bits(block, op, vid, known, intervals)
        kb = meet_bits(kb, bits_from_interval(refined))
        known.append(kb)
        intervals[vid] = _tighten(refined, kb)
        if op.opcode == "quantize":
            src = block.ops[op.args[0]]
            result.quantize_safe[vid] = quantize_safe(
                intervals[op.args[0]], src.frac, op.attrs[0])
    result.demand = _backward_demand(block, known, store_demand)
    return result


# ---------------------------------------------------------------------------
# The narrow_bitwidth pass body.

#: Opcodes whose rendered width is structural (HDL emits the exact
#: concatenation) — relabelling them would desynchronize the back-ends.
_NO_NARROW = frozenset({"read", "concat"})


def _range_width(interval: Optional[Interval]) -> Optional[int]:
    if interval is None:
        return None
    return max(signed_width(interval), 1)


def _demand_width(demand: int) -> Optional[int]:
    """Width covering every demanded bit, plus one guard bit.

    The guard bit keeps ``numeric_std.resize`` — which preserves the
    sign bit rather than truncating two's-complement-style — faithful
    on the highest demanded bit.
    """
    if demand < 0:
        return None
    if demand == 0:
        return 1
    return demand.bit_length() + 2


def narrow_block(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Rewrite *block* with bit-analysis facts (the pass body).

    Three rewrites, each justified by the reduced product and checked
    by translation validation when the PassManager runs with
    ``validate=``:

    * ops whose refined interval is a single constant become ``const``
      (skipping ``Overflow.ERROR`` quantizes that may raise);
    * quantizes proved overflow-free on every reachable value become
      pure shifts — the saturation comparators they would synthesize
      disappear;
    * every op's width label drops to the minimum of its range-exact
      width and its demanded width (+1 guard bit); operator allocation
      sizes instances straight from these labels, so narrower labels
      are narrower hardware.
    """
    analysis = analyze_bits(block)
    out = IRBlock()
    remap: Dict[int, int] = {}
    changed = False

    for vid, op in enumerate(block.ops):
        args = tuple(remap[a] for a in op.args)
        interval = analysis.intervals[vid]
        if op.frac is None:
            remap[vid] = out.emit(IROp(op.opcode, args, op.attrs, op.frac,
                                       op.width))
            continue

        width = op.width
        if op.opcode not in _NO_NARROW:
            candidates = [width]
            range_w = _range_width(interval)
            if range_w is not None:
                candidates.append(range_w)
            demand_w = _demand_width(analysis.demand[vid])
            if demand_w is not None:
                candidates.append(demand_w)
            narrowed = max(1, min(candidates))
            if narrowed < width:
                width = narrowed
                changed = True

        fmt: Optional[FxFormat] = (op.attrs[0] if op.opcode == "quantize"
                                   else None)
        safe = analysis.quantize_safe.get(vid, False)
        can_const = (interval is not None and interval.is_constant
                     and op.opcode not in LEAF_OPS
                     and (fmt is None or safe
                          or fmt.overflow is not Overflow.ERROR))
        if can_const:
            remap[vid] = out.emit(IROp("const", (), (interval.lo,),
                                       op.frac, width))
            changed = True
            continue

        if op.opcode == "mux":
            sel = analysis.intervals[op.args[0]]
            if sel is not None and sel.is_constant:
                remap[vid] = args[1] if sel.lo else args[2]
                changed = True
                continue

        if safe:  # quantize_safe implies a fixed-point source
            remap[vid] = quantize_shift(out, op, args[0],
                                        block.ops[op.args[0]].frac, width)
            changed = True
            continue

        remap[vid] = out.emit(IROp(op.opcode, args, op.attrs, op.frac,
                                   width))

    out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
    out.roots = [remap[r] for r in block.roots]
    return out, changed


# ---------------------------------------------------------------------------
# The elide_quantize pass body.

def elide_quantize_block(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Rewrite every quantize that provably never fires into its shift.

    One forward walk of plain interval facts (:func:`transfer`, no
    known bits, no liveness, no findings) over *block*.  A fixed-point
    quantize whose source range passes :func:`quantize_safe` becomes
    :func:`quantize_shift`: the clamp, the wrap fold or the overflow
    check goes, and the result is bit-identical on every reachable
    input.  Float-domain sources are unknown and never rewritten.
    Every other op keeps its width label, so nothing but the quantizes
    changes.  Returns *block* itself when nothing is rewritten.

    The proof rests on the leaf-range invariant of the engines that
    run this pass: every formatted leaf holds a raw value inside its
    format (stores quantize, pins are quantized on the way in, register
    inits are quantized at construction).
    """
    ops = block.ops
    intervals: List[Optional[Interval]] = []
    safe = set()
    for vid, op in enumerate(ops):
        intervals.append(transfer(block, op, intervals, vid))
        if op.opcode == "quantize":
            src = op.args[0]
            if quantize_safe(intervals[src], ops[src].frac, op.attrs[0]):
                safe.add(vid)
    if not safe:
        return block, False

    # Ops are immutable, so every op whose operand ids survive is shared
    # with the input block; ids only move after a ROUND rewrite, which
    # inserts its half-LSB constant and add.
    out = IRBlock()
    emitted = out.ops
    remap: List[int] = []
    for vid, op in enumerate(ops):
        if vid in safe:
            src = op.args[0]
            remap.append(quantize_shift(out, op, remap[src], ops[src].frac,
                                        op.width))
        elif len(emitted) == vid:
            remap.append(vid)
            emitted.append(op)
        else:
            args = tuple(remap[a] for a in op.args)
            remap.append(out.emit(IROp(op.opcode, args, op.attrs, op.frac,
                                       op.width)))
    if len(emitted) == len(ops):
        out.stores = list(block.stores)
        out.roots = list(block.roots)
    else:
        out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
        out.roots = [remap[r] for r in block.roots]
    return out, True


# ---------------------------------------------------------------------------
# Wordlength reporting.

@dataclass(frozen=True)
class SignalWordlength:
    """Minimal-format advice for one committed signal."""

    signal: str
    sfg: str
    wl: int
    iwl: int
    min_wl: int
    min_iwl: int
    signed: bool
    #: Bits of the format window the analysis proves constant.
    const_bits: int
    #: Bits of the format window no observable demands.
    dead_bits: int

    @property
    def savings(self) -> int:
        return max(self.wl - self.min_wl, 0)


@dataclass
class WordlengthReport:
    """Per-signal minimal widths for a design (exploration seed)."""

    rows: List[SignalWordlength] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return sum(row.wl for row in self.rows)

    @property
    def minimal_bits(self) -> int:
        return sum(min(row.min_wl, row.wl) for row in self.rows)

    def publish(self, metrics) -> None:
        """Push per-signal stats into a metrics registry.

        Duck-typed on ``counter(name).inc(amount)`` (the
        :class:`repro.obs.metrics.MetricsRegistry` protocol); counters
        land under ``wordlength/<sfg>.<signal>/<field>`` (the SFG
        qualifier keeps same-named signals in different SFGs distinct).
        """
        for row in self.rows:
            base = f"wordlength/{row.sfg}.{row.signal}"
            metrics.counter(f"{base}/wl").inc(row.wl)
            metrics.counter(f"{base}/min_wl").inc(min(row.min_wl, row.wl))
            if row.const_bits:
                metrics.counter(f"{base}/const_bits").inc(row.const_bits)
            if row.dead_bits:
                metrics.counter(f"{base}/dead_bits").inc(row.dead_bits)

    def format_text(self) -> str:
        lines = [f"{'signal':24} {'format':>12} {'minimal':>12} "
                 f"{'const':>6} {'dead':>5}"]
        for row in sorted(self.rows, key=lambda r: (-r.savings, r.signal)):
            fmt = f"({row.wl},{row.iwl})"
            minimal = f"({row.min_wl},{row.min_iwl})"
            lines.append(f"{row.signal:24} {fmt:>12} {minimal:>12} "
                         f"{row.const_bits:>6} {row.dead_bits:>5}")
        lines.append(f"total {self.total_bits} bits, "
                     f"minimal {self.minimal_bits} bits")
        return "\n".join(lines)


def _design_sfgs(design):
    """Every (process, sfg) pair of a design object, duck-typed."""
    if hasattr(design, "all_sfgs"):      # a Process
        return [(design, sfg) for sfg in design.all_sfgs()]
    if hasattr(design, "timed_processes"):   # a System
        out = []
        for process in design.timed_processes():
            out.extend((process, sfg) for sfg in process.all_sfgs())
        return out
    return [(None, design)]              # a bare SFG


def wordlength_report(design) -> WordlengthReport:
    """Per-signal minimal ``(wl, iwl)`` for every committed signal.

    Walks every SFG of *design* (a System, Process or SFG), lowers it,
    runs :func:`analyze_bits`, and reports — for each store with a
    format — the smallest format (at the same binary point) that holds
    the refined value interval, plus how many window bits are provably
    constant and how many are never demanded by any observable.
    """
    from ..ir.lower import lower_sfg

    report = WordlengthReport()
    for _process, sfg in _design_sfgs(design):
        try:
            block = lower_sfg(sfg)
        except ReproError:
            continue  # unlowerable SFGs are other rules' findings
        analysis = analyze_bits(block)
        for store in block.stores:
            fmt = getattr(store.target, "fmt", None)
            if fmt is None:
                continue
            interval = analysis.intervals[store.value]
            if interval is None:
                interval = fmt_interval(fmt)
            min_wl, min_iwl, signed = minimal_format(interval, fmt)
            window = _mask(fmt.wl)
            kb = analysis.known[store.value]
            const = bin(kb.known & window).count("1")
            dead = bin(window & ~analysis.demand[store.value]).count("1")
            report.rows.append(SignalWordlength(
                signal=getattr(store.target, "name", "?"),
                sfg=getattr(sfg, "name", "?"),
                wl=fmt.wl, iwl=fmt.iwl,
                min_wl=min_wl, min_iwl=min_iwl, signed=signed,
                const_bits=const, dead_bits=dead))
    return report
