"""Property-based tests (hypothesis) for fixed-point arithmetic."""

import math
import operator
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixpt import (
    Fx, FxFormat, FxOverflowError, Overflow, Rounding, quantize, quantize_raw,
)


@st.composite
def formats(draw, max_wl=24):
    wl = draw(st.integers(min_value=1, max_value=max_wl))
    iwl = draw(st.integers(min_value=0, max_value=wl))
    signed = draw(st.booleans())
    rounding = draw(st.sampled_from(list(Rounding)))
    overflow = draw(st.sampled_from([Overflow.SATURATE, Overflow.WRAP]))
    return FxFormat(wl=wl, iwl=iwl, signed=signed,
                    rounding=rounding, overflow=overflow)


@st.composite
def fx_values(draw):
    fmt = draw(formats())
    raw = draw(st.integers(min_value=fmt.raw_min, max_value=fmt.raw_max))
    return Fx(raw=raw, fmt=fmt)


@given(fx_values(), fx_values())
def test_add_is_exact(a, b):
    """Addition never loses precision: formats grow instead."""
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@given(fx_values(), fx_values())
def test_sub_is_exact(a, b):
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()


@given(fx_values(), fx_values())
def test_mul_is_exact(a, b):
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()


@given(fx_values())
def test_neg_is_exact(a):
    assert (-a).as_fraction() == -a.as_fraction()


@given(fx_values())
def test_double_negation_is_identity(a):
    assert (-(-a)).as_fraction() == a.as_fraction()


@given(fx_values(), st.integers(min_value=0, max_value=16))
def test_shift_left_multiplies(a, bits):
    assert (a << bits).as_fraction() == a.as_fraction() * (2 ** bits)


@given(fx_values(), st.integers(min_value=0, max_value=16))
def test_shift_right_divides_exactly(a, bits):
    assert (a >> bits).as_fraction() == a.as_fraction() / (2 ** bits)


@given(fx_values())
def test_quantize_idempotent(a):
    """Quantizing a value already in the format changes nothing."""
    assert quantize(a, a.fmt).raw == a.raw


@given(fx_values(), formats())
def test_quantize_stays_in_range(a, fmt):
    q = quantize(a, fmt)
    assert fmt.raw_min <= q.raw <= fmt.raw_max


@given(fx_values(), formats())
def test_saturation_error_bounded(a, fmt):
    """With saturation, quantization error <= LSB unless the value clipped."""
    if fmt.overflow is not Overflow.SATURATE:
        return
    q = quantize(a, fmt)
    exact = a.as_fraction()
    if fmt.min_value <= exact <= fmt.max_value:
        assert abs(q.as_fraction() - exact) < fmt.lsb

    else:
        # Clipped to the nearest boundary.
        assert q.raw in (fmt.raw_min, fmt.raw_max)


@given(fx_values(), fx_values())
def test_comparisons_match_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())
    assert (a >= b) == (a.as_fraction() >= b.as_fraction())


@given(fx_values(), fx_values())
def test_union_holds_both(a, b):
    u = a.fmt.union(b.fmt)
    assert u.can_hold(a.fmt)
    assert u.can_hold(b.fmt)
    # And quantizing into the union is lossless.
    assert quantize(a, u).as_fraction() == a.as_fraction()
    assert quantize(b, u).as_fraction() == b.as_fraction()


@st.composite
def integer_fx(draw, wl=12):
    signed = draw(st.booleans())
    fmt = FxFormat(wl, wl, signed=signed)
    raw = draw(st.integers(min_value=fmt.raw_min, max_value=fmt.raw_max))
    return Fx(raw=raw, fmt=fmt)


@given(integer_fx(), integer_fx())
def test_bitwise_matches_python_semantics(a, b):
    """Bitwise results equal Python's, folded into the union width."""
    u = a.fmt.union(b.fmt)
    mask = (1 << u.wl) - 1

    def fold(value):
        value &= mask
        if u.signed and value >= (1 << (u.wl - 1)):
            value -= 1 << u.wl
        return value

    assert int(a & b) == fold(int(a) & int(b))
    assert int(a | b) == fold(int(a) | int(b))
    assert int(a ^ b) == fold(int(a) ^ int(b))


@given(integer_fx())
def test_invert_is_involution(a):
    assert int(~~a) == int(a)


# -- the integer core against the Fraction reference ---------------------------------
#
# The functions below are the Fraction-based definitions quantization,
# int() and the comparisons had before they moved to exact integer
# arithmetic.  The strategies reach what ``formats()`` above never draws:
# negative fraction bits (iwl > wl), negative iwl and Overflow.ERROR, and
# inputs at the edges of float and integer range.


def reference_range(fmt):
    """(raw_min, raw_max), derived independently of the format."""
    if fmt.signed:
        return -(1 << (fmt.wl - 1)), (1 << (fmt.wl - 1)) - 1
    return 0, (1 << fmt.wl) - 1


def reference_fold(raw, fmt):
    """The overflow policy as the reference applied it."""
    lo, hi = reference_range(fmt)
    if lo <= raw <= hi:
        return raw
    if fmt.overflow is Overflow.SATURATE:
        return hi if raw > hi else lo
    if fmt.overflow is Overflow.WRAP:
        span = 1 << fmt.wl
        raw &= span - 1
        if fmt.signed and raw >= (1 << (fmt.wl - 1)):
            raw -= span
        return raw
    raise FxOverflowError(f"raw value {raw} overflows format {fmt}")


def reference_exact(value):
    if isinstance(value, Fx):
        return value.as_fraction()
    return Fraction(value)


def reference_quantize_raw(value, fmt):
    """quantize_raw through Fraction: scale, round, then fold."""
    exact = reference_exact(value)
    fb = fmt.wl - fmt.iwl
    scaled = exact * (1 << fb) if fb >= 0 else exact / (1 << -fb)
    if scaled.denominator == 1:
        raw = scaled.numerator
    elif fmt.rounding is Rounding.ROUND:
        shifted = scaled + Fraction(1, 2)
        raw = shifted.numerator // shifted.denominator
    else:
        raw = scaled.numerator // scaled.denominator
    return reference_fold(raw, fmt)


def reference_int(x):
    exact = x.as_fraction()
    return int(exact) if exact >= 0 else -int(-exact)


COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge]


def outcome(fn, *args):
    """A call's result, or the type of what it raised."""
    try:
        return "value", fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc)


@st.composite
def wide_formats(draw, max_wl=40):
    wl = draw(st.integers(min_value=1, max_value=max_wl))
    iwl = draw(st.integers(min_value=-16, max_value=wl + 16))
    return FxFormat(wl=wl, iwl=iwl, signed=draw(st.booleans()),
                    rounding=draw(st.sampled_from(list(Rounding))),
                    overflow=draw(st.sampled_from(list(Overflow))))


@st.composite
def wide_fx(draw):
    fmt = draw(wide_formats())
    raw = draw(st.integers(min_value=fmt.raw_min, max_value=fmt.raw_max))
    return Fx(raw=raw, fmt=fmt)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               0.5, -0.5, 2.0 ** 53 + 2, -(2.0 ** 60) - 4096, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan]

reals = st.one_of(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.fractions(),
    st.builds(Fraction, st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
              st.integers(min_value=0, max_value=70).map(lambda k: 1 << k)),
    wide_fx(),
)


@settings(max_examples=400)
@given(reals, wide_formats())
def test_quantize_raw_matches_reference(value, fmt):
    assert outcome(quantize_raw, value, fmt) == \
        outcome(reference_quantize_raw, value, fmt)


@given(wide_formats(), st.integers(min_value=-(2 ** 60), max_value=2 ** 60))
def test_raw_construction_matches_reference_fold(fmt, raw):
    assert outcome(lambda: Fx(raw=raw, fmt=fmt).raw) == \
        outcome(reference_fold, raw, fmt)


@given(wide_formats())
def test_format_range_matches_reference(fmt):
    assert (fmt.raw_min, fmt.raw_max) == reference_range(fmt)
    assert fmt.frac_bits == fmt.wl - fmt.iwl


@given(wide_fx())
def test_int_matches_reference(x):
    assert int(x) == reference_int(x)


@settings(max_examples=400)
@given(wide_fx(), reals)
def test_comparisons_match_reference(x, other):
    for op in COMPARISONS:
        assert outcome(op, x, other) == \
            outcome(lambda: op(x.as_fraction(), reference_exact(other)))


def _as_kind(exact, kind):
    """*exact* (a dyadic Fraction) as an int, float, Fraction or Fx."""
    if kind == "fraction":
        return exact
    if kind == "float":
        return float(exact)
    if kind == "int":
        return int(exact)
    frac = exact.denominator.bit_length() - 1
    width = abs(exact.numerator).bit_length() + 2
    return Fx(exact, FxFormat(width, width - frac))


kinds = st.sampled_from(["fraction", "float", "int", "fx"])


@settings(max_examples=300)
@given(wide_formats(), st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
       kinds)
def test_rounding_ties_match_reference(fmt, m, kind):
    """Values exactly half an LSB between two steps of *fmt*."""
    value = _as_kind(Fraction(2 * m + 1) / Fraction(2) ** (fmt.frac_bits + 1),
                     kind)
    assert outcome(quantize_raw, value, fmt) == \
        outcome(reference_quantize_raw, value, fmt)


@settings(max_examples=300)
@given(wide_fx(), st.integers(min_value=-40, max_value=40),
       st.integers(min_value=1, max_value=60), kinds, wide_formats())
def test_comparisons_near_value_match_reference(x, n, d, kind, fmt):
    """Ties and near neighbours: x against itself, requantized and offset."""
    exact = x.as_fraction()
    others = [
        _as_kind(exact, kind),
        quantize(x, replace(fmt, overflow=Overflow.SATURATE)),
        exact + Fraction(n, d),
        exact * Fraction(d, 1 + 2 * abs(n)),
        _as_kind(exact + Fraction(n, 2 ** (d % 24)), kind),
    ]
    for other in others:
        for op in COMPARISONS:
            assert outcome(op, x, other) == \
                outcome(lambda: op(exact, reference_exact(other)))


# -- derived formats against their reference derivations -------------------------------


def reference_union(a, b):
    signed = a.signed or b.signed
    iwl = (max(a.iwl - (1 if a.signed else 0), b.iwl - (1 if b.signed else 0))
           + (1 if signed else 0))
    frac = max(a.frac_bits, b.frac_bits)
    return FxFormat(iwl + frac, iwl, signed, a.rounding, a.overflow)


def grown(fmt, bits):
    return FxFormat(fmt.wl + bits, fmt.iwl + bits, fmt.signed,
                    fmt.rounding, fmt.overflow)


def signed_version(fmt):
    return fmt if fmt.signed else FxFormat(fmt.wl + 1, fmt.iwl + 1, True,
                                           fmt.rounding, fmt.overflow)


@given(wide_fx(), wide_fx(), st.integers(min_value=0, max_value=8))
def test_derived_formats_match_reference(a, b, bits):
    union = reference_union(a.fmt, b.fmt)
    product = FxFormat(a.fmt.wl + b.fmt.wl, a.fmt.iwl + b.fmt.iwl,
                       a.fmt.signed or b.fmt.signed,
                       a.fmt.rounding, a.fmt.overflow)
    right = FxFormat(a.fmt.wl + bits, a.fmt.iwl, a.fmt.signed,
                     a.fmt.rounding, a.fmt.overflow)
    ea, eb = a.as_fraction(), b.as_fraction()
    cases = [
        (a + b, grown(union, 1), ea + eb),
        (a - b, grown(signed_version(union), 1), ea - eb),
        (a * b, product, ea * eb),
        (-a, grown(signed_version(a.fmt), 1), -ea),
        (a << bits, grown(a.fmt, bits), ea * 2 ** bits),
        (a >> bits, right, ea / 2 ** bits),
    ]
    assert a.fmt.union(b.fmt) == union
    for result, fmt, exact in cases:
        assert result.fmt == fmt
        assert hash(result.fmt) == hash(fmt)
        # Results are built without a range check: they must fit.
        assert fmt.raw_min <= result.raw <= fmt.raw_max
        assert result.as_fraction() == exact
    # Asking again returns the remembered format.
    assert (a + b).fmt is (a + b).fmt


def reference_int_format(n):
    bits = max(n.bit_length(), 1) + 1
    return FxFormat(bits, bits, True)


@given(wide_fx(), st.one_of(st.integers(min_value=-300, max_value=300),
                            st.integers(min_value=-(2 ** 80), max_value=2 ** 80)))
def test_int_operands_match_reference(a, n):
    ref = reference_int_format(n)
    ea = a.as_fraction()

    def product(x, y):
        return FxFormat(x.wl + y.wl, x.iwl + y.iwl, x.signed or y.signed,
                        x.rounding, x.overflow)

    cases = [
        (a + n, grown(reference_union(a.fmt, ref), 1), ea + n),
        (n + a, grown(reference_union(ref, a.fmt), 1), n + ea),
        (a - n, grown(signed_version(reference_union(a.fmt, ref)), 1), ea - n),
        (n - a, grown(signed_version(reference_union(ref, a.fmt)), 1), n - ea),
        (a * n, product(a.fmt, ref), ea * n),
        (n * a, product(ref, a.fmt), n * ea),
    ]
    for result, fmt, exact in cases:
        assert result.fmt == fmt
        assert fmt.raw_min <= result.raw <= fmt.raw_max
        assert result.as_fraction() == exact
    # An int of up to 63 bits brings a shared format, so the format its
    # partner derives is remembered, not rebuilt on every operation.
    if ref.wl <= 64:
        assert (a + n).fmt is (a + n).fmt
        assert (n * a).fmt is (n * a).fmt
