"""Fixed-point value and format types.

A fixed-point number is stored as an arbitrary-precision raw integer
``raw`` with an implied binary point: ``value = raw * 2**-frac_bits``.
Because Python integers are unbounded, intermediate arithmetic is exact;
wordlength effects (rounding, saturation, wraparound) are applied only when
a value is forced into a :class:`FxFormat`, which is precisely how a
hardware datapath behaves at register and bus boundaries.

Every operation works on aligned raw integers: comparisons and ``int()``
shift both sides to a common binary point instead of building
:class:`~fractions.Fraction` values, and the format an operator derives
from its operand formats is built once per pair and remembered by the
format that derived it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Real = Union[int, float, Fraction, "Fx"]


class Rounding(enum.Enum):
    """Quantization behaviour for bits dropped below the LSB."""

    TRUNCATE = "truncate"  # round toward minus infinity (drop bits)
    ROUND = "round"        # round half up (add half LSB, then truncate)


class Overflow(enum.Enum):
    """Behaviour when a value exceeds the representable range."""

    SATURATE = "saturate"  # clip to min/max representable
    WRAP = "wrap"          # two's-complement wraparound
    ERROR = "error"        # raise FxOverflowError


# Defined in core.errors so it sits in the ReproError hierarchy (with
# ArithmeticError as a secondary base); re-imported here so existing
# ``from repro.fixpt.fixed import FxOverflowError`` call sites keep working.
from ..core.errors import FxOverflowError  # noqa: E402  (re-export)

#: The fields that define a format: all that a pickle or copy carries.
_FIELDS = ("wl", "iwl", "signed", "rounding", "overflow")


@dataclass(frozen=True)
class FxFormat:
    """A fixed-point wordlength specification.

    Parameters
    ----------
    wl:
        Total word length in bits, including the sign bit when signed.
    iwl:
        Integer word length: the number of bits left of the binary point,
        including the sign bit when signed.  May be negative (all-fraction
        formats) or exceed ``wl`` (formats with trailing implied zeros).
    signed:
        Two's-complement when True, unsigned otherwise.
    rounding / overflow:
        Quantization behaviour applied when values enter this format.

    Attributes
    ----------
    frac_bits:
        Number of bits right of the binary point (may be negative).
    raw_min / raw_max:
        Smallest and largest representable raw integer.

    These are computed once at construction, with the hash and an empty
    memo of the formats :class:`Fx` arithmetic derives from this one.
    None of them is part of a pickle or copy — enum hashes follow
    ``PYTHONHASHSEED`` — so loading rebuilds them from the five fields.
    """

    wl: int
    iwl: int
    signed: bool = True
    rounding: Rounding = Rounding.TRUNCATE
    overflow: Overflow = Overflow.SATURATE

    def __post_init__(self) -> None:
        if self.wl < 1:
            raise ValueError(f"word length must be >= 1, got {self.wl}")
        if self.signed and self.wl < 1:
            raise ValueError("signed formats need at least 1 bit")
        init = object.__setattr__
        init(self, "frac_bits", self.wl - self.iwl)
        if self.signed:
            init(self, "raw_min", -(1 << (self.wl - 1)))
            init(self, "raw_max", (1 << (self.wl - 1)) - 1)
        else:
            init(self, "raw_min", 0)
            init(self, "raw_max", (1 << self.wl) - 1)
        # The hash the generated dataclass __hash__ would compute.
        init(self, "_hash", hash((self.wl, self.iwl, self.signed,
                                  self.rounding, self.overflow)))
        # Partner format -> (union, sum, difference, product) formats.
        init(self, "_pairs", {})
        # Shift distance (positive = left) -> shifted format.
        init(self, "_shifts", {})

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def min_value(self) -> Fraction:
        """Smallest representable real value."""
        return Fraction(self.raw_min, 1) / (1 << max(self.frac_bits, 0)) * self._scale_up()

    @property
    def max_value(self) -> Fraction:
        """Largest representable real value."""
        return Fraction(self.raw_max, 1) / (1 << max(self.frac_bits, 0)) * self._scale_up()

    def _scale_up(self) -> int:
        # When frac_bits is negative the LSB weighs 2**-frac_bits.
        return (1 << -self.frac_bits) if self.frac_bits < 0 else 1

    @property
    def lsb(self) -> Fraction:
        """Weight of one raw-integer step."""
        return Fraction(1, 1 << self.frac_bits) if self.frac_bits >= 0 else Fraction(1 << -self.frac_bits)

    def is_integer(self) -> bool:
        """True when this format has no fractional bits."""
        return self.frac_bits <= 0

    def can_hold(self, other: "FxFormat") -> bool:
        """True when every value of *other* is exactly representable here."""
        if other.signed and not self.signed:
            return False
        extra_int = self.iwl - other.iwl
        extra_frac = self.frac_bits - other.frac_bits
        if extra_frac < 0:
            return False
        if not other.signed and self.signed:
            # Unsigned values need one more integer bit in a signed format.
            return extra_int >= 1
        return extra_int >= 0

    def union(self, other: "FxFormat") -> "FxFormat":
        """The smallest format holding every value of *self* and *other*."""
        return self._derived(other)[0]

    def _derived(self, other: "FxFormat") -> tuple:
        """The formats *self* derives with *other*, built on first use.

        Returns ``(union, sum, difference, product)``: the union holds
        both operands, a sum grows it by one integer bit, a difference is
        also signed, and a product adds the operands' integer and fraction
        widths.  Every derived format keeps *self*'s rounding and overflow.
        """
        try:
            return self._pairs[other]
        except KeyError:
            pass
        signed = self.signed or other.signed

        def eff_iwl(fmt: FxFormat) -> int:
            # Integer bits excluding the sign bit, normalised to signedness.
            return fmt.iwl - (1 if fmt.signed else 0)

        iwl_mag = max(eff_iwl(self), eff_iwl(other))
        frac = max(self.frac_bits, other.frac_bits)
        iwl = iwl_mag + (1 if signed else 0)
        union = FxFormat(iwl + frac, iwl, signed, self.rounding, self.overflow)
        product_iwl = self.iwl + other.iwl
        product = FxFormat(max(1, product_iwl + self.frac_bits + other.frac_bits),
                           product_iwl, signed, self.rounding, self.overflow)
        derived = (union, _grow_int(union, 1),
                   _grow_int(_make_signed(union), 1), product)
        self._pairs[other] = derived
        return derived

    def _shifted(self, bits: int) -> "FxFormat":
        """The format of a shift by *bits*, remembered per distance.

        A left shift (positive *bits*) grows the integer field, a right
        shift the fraction field; the raw integer is what moves.
        """
        try:
            return self._shifts[bits]
        except KeyError:
            pass
        if bits >= 0:
            fmt = _grow_int(self, bits)
        else:
            fmt = FxFormat(self.wl - bits, self.iwl, self.signed,
                           self.rounding, self.overflow)
        self._shifts[bits] = fmt
        return fmt

    def __str__(self) -> str:
        sign = "s" if self.signed else "u"
        return f"<{sign}{self.wl},{self.iwl}>"


#: Convenient default used when coercing bare Python ints into Fx.
INT32 = FxFormat(wl=32, iwl=32, signed=True)


#: The formats of :func:`_format_for_int` up to 64 bits, one per width, so
#: that an ``int`` operand brings a format whose derived formats its
#: partner already remembers instead of a new format every time.
_INT_FORMATS = {bits: FxFormat(wl=bits, iwl=bits, signed=True)
                for bits in range(2, 65)}


def _format_for_int(value: int) -> FxFormat:
    """Smallest signed integer format holding *value*."""
    bits = max(value.bit_length(), 1) + 1  # +1 sign bit
    fmt = _INT_FORMATS.get(bits)
    if fmt is None:
        fmt = FxFormat(wl=bits, iwl=bits, signed=True)
    return fmt


def _format_for_float(value: float, frac_bits: int = 31) -> FxFormat:
    """A generous signed format holding *value* with *frac_bits* fraction."""
    mag = abs(value)
    int_bits = max(1, int(math.floor(math.log2(mag))) + 2) if mag >= 1.0 else 1
    return FxFormat(wl=int_bits + 1 + frac_bits, iwl=int_bits + 1, signed=True)


class Fx:
    """A fixed-point number.

    ``Fx(value, fmt)`` quantizes *value* into *fmt*.  Arithmetic between
    ``Fx`` values is exact (formats grow), matching hardware full-precision
    datapath operators; use :meth:`cast` (or construct a new ``Fx``) to model
    a register or bus boundary where quantization occurs.
    """

    __slots__ = ("_raw", "_fmt")

    def __init__(self, value: Real = 0, fmt: FxFormat = None, *, raw: int = None):
        if fmt is None:
            if isinstance(value, Fx):
                fmt = value._fmt
            elif isinstance(value, int):
                fmt = _format_for_int(value)
            elif isinstance(value, float):
                fmt = _format_for_float(value)
            else:
                raise TypeError(f"cannot infer format for {type(value).__name__}")
        self._fmt = fmt
        if raw is not None:
            self._raw = quantize_raw_at(raw, fmt.frac_bits, fmt)
        else:
            self._raw = quantize_raw(value, fmt)

    # -- accessors ---------------------------------------------------------

    @property
    def fmt(self) -> FxFormat:
        """The format this value is quantized to."""
        return self._fmt

    @property
    def raw(self) -> int:
        """The underlying raw integer (two's-complement semantics)."""
        return self._raw

    def as_fraction(self) -> Fraction:
        """The exact real value as a :class:`fractions.Fraction`."""
        fb = self._fmt.frac_bits
        if fb >= 0:
            return Fraction(self._raw, 1 << fb)
        return Fraction(self._raw * (1 << -fb), 1)

    def __float__(self) -> float:
        fb = self._fmt.frac_bits
        return self._raw * (2.0 ** -fb)

    def __int__(self) -> int:
        raw, fb = self._raw, self._fmt.frac_bits
        if fb <= 0:
            return raw << -fb
        # Truncate toward zero, as int() of the exact value does.
        return raw >> fb if raw >= 0 else -(-raw >> fb)

    def __index__(self) -> int:
        if not self._fmt.is_integer():
            raise TypeError(f"{self} has fractional bits; cannot index")
        return int(self)

    def __bool__(self) -> bool:
        return self._raw != 0

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    # -- format movement ----------------------------------------------------

    def cast(self, fmt: FxFormat) -> "Fx":
        """Quantize into *fmt* — models a register/bus wordlength boundary."""
        return _fx(quantize_raw_at(self._raw, self._fmt.frac_bits, fmt), fmt)

    # -- arithmetic (exact; formats grow) ------------------------------------
    #
    # Every result below fits its derived format by construction, so it is
    # built directly, without a range check.

    @staticmethod
    def _coerce(value: Real) -> "Fx":
        if isinstance(value, Fx):
            return value
        if value.__class__ is int:
            # Its own integer format holds an int exactly: nothing to round.
            return _fx(value, _format_for_int(value))
        return Fx(value)

    def __add__(self, other: Real) -> "Fx":
        if other.__class__ is not Fx:
            other = self._coerce(other)
        fa, fb = self._fmt, other._fmt
        fmt = fa._derived(fb)[1]
        shift = fa.frac_bits - fb.frac_bits
        if shift >= 0:
            return _fx(self._raw + (other._raw << shift), fmt)
        return _fx((self._raw << -shift) + other._raw, fmt)

    def __radd__(self, other: Real) -> "Fx":
        return self._coerce(other).__add__(self)

    def __sub__(self, other: Real) -> "Fx":
        if other.__class__ is not Fx:
            other = self._coerce(other)
        fa, fb = self._fmt, other._fmt
        fmt = fa._derived(fb)[2]
        shift = fa.frac_bits - fb.frac_bits
        if shift >= 0:
            return _fx(self._raw - (other._raw << shift), fmt)
        return _fx((self._raw << -shift) - other._raw, fmt)

    def __rsub__(self, other: Real) -> "Fx":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Real) -> "Fx":
        if other.__class__ is not Fx:
            other = self._coerce(other)
        fa, fb = self._fmt, other._fmt
        fmt = fa._derived(fb)[3]
        return _fx(self._raw * other._raw, fmt)

    def __rmul__(self, other: Real) -> "Fx":
        return self._coerce(other).__mul__(self)

    def __neg__(self) -> "Fx":
        # -x takes the format of x - x: signed, one integer bit grown.
        return _fx(-self._raw, self._fmt._derived(self._fmt)[2])

    def __abs__(self) -> "Fx":
        return -self if self._raw < 0 else _fx(self._raw, self._fmt)

    def __lshift__(self, bits: int) -> "Fx":
        """Shift left: multiply by 2**bits, growing the integer field."""
        if bits < 0:
            return self >> -bits
        return _fx(self._raw << bits, self._fmt._shifted(bits))

    def __rshift__(self, bits: int) -> "Fx":
        """Shift right: divide by 2**bits, growing the fraction field."""
        if bits < 0:
            return self << -bits
        # Raw value unchanged; the binary point moves by adding frac bits.
        return _fx(self._raw, self._fmt._shifted(-bits))

    # -- bitwise (integer formats only) ---------------------------------------

    def _bitwise(self, other: Real, op) -> "Fx":
        other = self._coerce(other)
        if not (self._fmt.is_integer() and other._fmt.is_integer()):
            raise TypeError("bitwise operations require integer fixed-point formats")
        fmt = self._fmt.union(other._fmt)
        return _fx(sign_fold(op(self._raw, other._raw), fmt.wl, fmt.signed), fmt)

    def __and__(self, other: Real) -> "Fx":
        return self._bitwise(other, lambda a, b: a & b)

    def __or__(self, other: Real) -> "Fx":
        return self._bitwise(other, lambda a, b: a | b)

    def __xor__(self, other: Real) -> "Fx":
        return self._bitwise(other, lambda a, b: a ^ b)

    def __invert__(self) -> "Fx":
        if not self._fmt.is_integer():
            raise TypeError("bitwise operations require integer fixed-point formats")
        return _fx(sign_fold(~self._raw, self._fmt.wl, self._fmt.signed), self._fmt)

    # -- comparisons -----------------------------------------------------------

    def _aligned(self, other: Real):
        """Two integers that order as ``self`` and *other* do.

        Dyadic values (``Fx``, ``int``, ``float``) are shifted to a common
        binary point; a float NaN or infinity raises as converting it to a
        ratio does.  Anything else goes through :class:`Fraction`, and a
        non-dyadic ratio is cross-multiplied.
        """
        raw, frac = self._raw, self._fmt.frac_bits
        if isinstance(other, Fx):
            value, at = other._raw, other._fmt.frac_bits
        elif isinstance(other, float):
            value, denominator = other.as_integer_ratio()
            at = denominator.bit_length() - 1
        elif isinstance(other, int):
            value, at = other, 0
        else:
            if not isinstance(other, Fraction):
                other = Fraction(other)
            value, denominator = other.numerator, other.denominator
            if denominator & (denominator - 1):
                if frac >= 0:
                    return raw * denominator, value << frac
                return (raw << -frac) * denominator, value
            at = denominator.bit_length() - 1
        if frac >= at:
            return raw, value << (frac - at)
        return raw << (at - frac), value

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Fx, int, float, Fraction)):
            return NotImplemented
        a, b = self._aligned(other)
        return a == b

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __lt__(self, other: Real) -> bool:
        a, b = self._aligned(other)
        return a < b

    def __le__(self, other: Real) -> bool:
        a, b = self._aligned(other)
        return a <= b

    def __gt__(self, other: Real) -> bool:
        a, b = self._aligned(other)
        return a > b

    def __ge__(self, other: Real) -> bool:
        a, b = self._aligned(other)
        return a >= b

    def __repr__(self) -> str:
        return f"Fx({float(self)!r}, {self._fmt})"


_new_fx = object.__new__


def _fx(raw: int, fmt: FxFormat) -> Fx:
    """An :class:`Fx` of *raw*, which the caller guarantees fits *fmt*."""
    value = _new_fx(Fx)
    value._raw = raw
    value._fmt = fmt
    return value


def _make_signed(fmt: FxFormat) -> FxFormat:
    if fmt.signed:
        return fmt
    return FxFormat(
        wl=fmt.wl + 1,
        iwl=fmt.iwl + 1,
        signed=True,
        rounding=fmt.rounding,
        overflow=fmt.overflow,
    )


def _grow_int(fmt: FxFormat, bits: int) -> FxFormat:
    return FxFormat(
        wl=fmt.wl + bits,
        iwl=fmt.iwl + bits,
        signed=fmt.signed,
        rounding=fmt.rounding,
        overflow=fmt.overflow,
    )


# The integer core lives in quantize.py, which builds on the types above;
# importing it last lets both modules use each other at module scope.
from .quantize import quantize_raw, quantize_raw_at, sign_fold  # noqa: E402
