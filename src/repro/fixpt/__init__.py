"""Fixed-point arithmetic library.

The paper (section 3) simulates finite-wordlength effects with a C++
fixed-point library, simulating the *quantization* of values rather than
their bit-vector representation.  This package is the Python equivalent:

* :class:`FxFormat` — a wordlength specification (total bits, integer bits,
  signedness, rounding and overflow behaviour).
* :class:`Fx` — a fixed-point value; arithmetic grows precision exactly and
  quantization only happens at explicit format boundaries, mirroring
  hardware datapath behaviour.
* :func:`quantize` — quantize any real number into a format, and
  :func:`quantize_raw_at` — the exact-integer wordlength boundary every
  back-end renders.
* :class:`RangeTracer` — record observed value ranges and overflow events to
  drive wordlength optimization.
"""

from .fixed import Fx, FxFormat, FxOverflowError, Overflow, Rounding
from .quantize import quantize, quantize_raw, quantize_raw_at, sign_fold
from .trace import RangeRecord, RangeTracer

__all__ = [
    "Fx",
    "FxFormat",
    "FxOverflowError",
    "Overflow",
    "Rounding",
    "quantize",
    "quantize_raw",
    "quantize_raw_at",
    "sign_fold",
    "RangeRecord",
    "RangeTracer",
]
