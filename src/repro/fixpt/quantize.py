"""Quantization of real values into fixed-point formats.

Everything here is exact integer arithmetic.  :func:`quantize_raw_at` is
the single definition of a wordlength boundary — shift a raw integer to
the target binary point, rounding per the format, then apply the
overflow policy — and every other quantization reduces to it: an
:class:`Fx` is its raw integer at its fraction bits, an ``int`` a raw
integer at binary point 0 and a ``float`` the dyadic rational its
``as_integer_ratio()`` names.  Only a :class:`~fractions.Fraction` whose
denominator is not a power of two needs a division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .fixed import Fx, FxFormat, FxOverflowError, Overflow, Rounding, _fx


def sign_fold(raw: int, wl: int, signed: bool) -> int:
    """Wrap *raw* into the two's-complement range of a *wl*-bit word."""
    raw &= (1 << wl) - 1
    if signed and raw >= 1 << (wl - 1):
        raw -= 1 << wl
    return raw


def round_raw_at(raw: int, frac: int, fmt: FxFormat) -> int:
    """Shift a raw integer at binary point *frac* to *fmt*'s binary point.

    Bits dropped below the new LSB are resolved per ``fmt.rounding``:
    TRUNCATE rounds toward minus infinity, ROUND adds half an LSB first
    (round half up).  The result is the value before the overflow
    policy — what :func:`quantize_raw_at` judges against the range.
    """
    shift = frac - fmt.frac_bits
    if shift <= 0:
        return raw << -shift
    if fmt.rounding is Rounding.ROUND:
        return (raw + (1 << (shift - 1))) >> shift
    return raw >> shift


def quantize_raw_at(raw: int, frac: int, fmt: FxFormat) -> int:
    """Quantize a raw integer at binary point *frac* into *fmt*.

    This is the single arithmetic definition every back-end renders:
    shift to the target binary point (rounding per the format), then
    apply the overflow policy.  Raises :class:`FxOverflowError` for
    ``Overflow.ERROR`` formats when the value does not fit.
    """
    value = raw if frac == fmt.frac_bits else round_raw_at(raw, frac, fmt)
    lo, hi = fmt.raw_min, fmt.raw_max
    if lo <= value <= hi:
        return value
    if fmt.overflow is Overflow.SATURATE:
        return hi if value > hi else lo
    if fmt.overflow is Overflow.WRAP:
        return sign_fold(value, fmt.wl, fmt.signed)
    raise FxOverflowError(
        f"overflow quantizing raw {raw} (frac {frac}) into {fmt}: "
        f"{value} not in [{lo}, {hi}]"
    )


def quantize_raw(value: Union[int, float, Fraction, Fx], fmt: FxFormat) -> int:
    """Quantize *value* and return the raw integer in *fmt*.

    Rounding is applied first (per ``fmt.rounding``) to resolve bits below
    the LSB, then overflow handling (per ``fmt.overflow``) folds the result
    into the representable range.  A NaN raises :class:`ValueError` and an
    infinity :class:`OverflowError`, as converting them to a ratio does.
    """
    if isinstance(value, Fx):
        return quantize_raw_at(value._raw, value._fmt.frac_bits, fmt)
    if isinstance(value, float):
        numerator, denominator = value.as_integer_ratio()
        return quantize_raw_at(numerator, denominator.bit_length() - 1, fmt)
    if isinstance(value, int):
        # int(): a bool or other int subclass must not become the raw.
        return quantize_raw_at(
            value if value.__class__ is int else int(value), 0, fmt)
    if not isinstance(value, Fraction):
        raise TypeError(f"cannot quantize {type(value).__name__}")
    numerator, denominator = value.numerator, value.denominator
    if not denominator & (denominator - 1):
        return quantize_raw_at(numerator, denominator.bit_length() - 1, fmt)
    # Not dyadic: floor division at the target binary point.
    fb = fmt.frac_bits
    if fb >= 0:
        numerator <<= fb
    else:
        denominator <<= -fb
    if fmt.rounding is Rounding.ROUND:
        # Round half up: floor(x + 1/2).
        raw = (2 * numerator + denominator) // (2 * denominator)
    else:
        raw = numerator // denominator
    return quantize_raw_at(raw, fb, fmt)


def quantize(value: Union[int, float, Fraction, Fx], fmt: FxFormat) -> Fx:
    """Quantize *value* into *fmt*, returning an :class:`Fx`."""
    return _fx(quantize_raw(value, fmt), fmt)
