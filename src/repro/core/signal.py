"""Signals: the information carriers of timed descriptions.

The paper (section 3.1) distinguishes *plain* signals from *registered*
signals.  Registered signals have a current value and a next value, accessed
at signal reference and assignment respectively, and are bound to a
:class:`~repro.core.clock.Clock` that controls their update.  Both kinds can
carry floating-point values (algorithm-level modeling) or fixed-point values
(bit-true modeling) — the value kind is selected by giving the signal an
:class:`~repro.fixpt.FxFormat`.

Assignment inside an open SFG uses the ``<<=`` operator::

    with sfg:
        out <<= a + b        # combinational assignment
        acc <<= acc + inp    # register next-value assignment
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from ..fixpt import Fx, FxFormat, quantize
from .clock import Clock
from .errors import ModelError
from .expr import Expr, Value, _as_expr
from .srcloc import here

_GENSYM = itertools.count()


def _int_fmt(value: int) -> FxFormat:
    """Smallest signed integer format holding the Python int *value*."""
    bits = max(value.bit_length(), 1) + 1
    return FxFormat(wl=bits, iwl=bits, signed=True)


def _coerce_value(value: Value, fmt: Optional[FxFormat]) -> Value:
    """Quantize *value* into *fmt* when a format is set, else keep it raw."""
    if fmt is None:
        return float(value) if isinstance(value, Fx) else value
    return quantize(value, fmt)


class Sig(Expr):
    """A plain (combinational) signal.

    Reading a ``Sig`` in an expression builds a DAG leaf; its simulated
    value lives in :attr:`value`.  When a format is given, every value
    written is quantized into it — the wordlength boundary of a wire.
    """

    __slots__ = ("name", "fmt", "_value")

    def __init__(self, name: str = None, fmt: FxFormat = None, init: Value = 0):
        self.name = name if name is not None else f"sig{next(_GENSYM)}"
        self.fmt = fmt
        self._value = _coerce_value(init, fmt)
        self.loc = here()

    @property
    def value(self) -> Value:
        """The signal's current simulated value."""
        return self._value

    @value.setter
    def value(self, new: Value) -> None:
        fmt = self.fmt
        self._value = (quantize(new, fmt) if fmt is not None
                       else _coerce_value(new, None))

    def evaluate(self) -> Value:
        return self._value

    def result_fmt(self) -> Optional[FxFormat]:
        return self.fmt

    def is_register(self) -> bool:
        """True for registered signals (overridden by :class:`Register`)."""
        return False

    def __ilshift__(self, other) -> "Sig":
        """``sig <<= expr`` — record an assignment in the open SFG."""
        from .sfg import _active_sfg

        sfg = _active_sfg()
        if sfg is None:
            raise ModelError(
                f"assignment to {self.name!r} outside an SFG; "
                "use 'with sfg:' or sfg.assign(target, expr)"
            )
        sfg.assign(self, _as_expr(other))
        return self

    def __repr__(self) -> str:
        fmt = f", {self.fmt}" if self.fmt is not None else ""
        return f"{type(self).__name__}({self.name!r}{fmt})"


class Register(Sig):
    """A registered signal: current value read, next value assigned.

    Bound to a :class:`Clock`; :meth:`Clock.tick` copies next into current.
    A register whose next value was not assigned in a cycle holds its value.
    """

    __slots__ = ("clk", "init", "_next", "_next_set")

    def __init__(self, name: str = None, clk: Clock = None, fmt: FxFormat = None,
                 init: Value = 0):
        if clk is None:
            raise ModelError(f"register {name!r} needs a clock")
        super().__init__(name=name, fmt=fmt, init=init)
        self.clk = clk
        self.init = self._value
        self._next: Value = None
        self._next_set = False
        clk._attach(self)

    @property
    def current(self) -> Value:
        """The register's current (pre-edge) value."""
        return self._value

    @property
    def next(self) -> Value:
        """The pending next value, or the current value if none pending."""
        return self._next if self._next_set else self._value

    def set_next(self, value: Value) -> None:
        """Schedule *value* to become current at the next clock tick."""
        fmt = self.fmt
        self._next = (quantize(value, fmt) if fmt is not None
                      else _coerce_value(value, None))
        self._next_set = True

    def _update(self) -> None:
        if self._next_set:
            self._value = self._next
            self._next_set = False

    def _reset(self) -> None:
        self._value = self.init
        self._next = None
        self._next_set = False

    def is_register(self) -> bool:
        return True


def sig_like(template: Sig, name: str = None) -> Sig:
    """A fresh plain signal with the same format as *template*."""
    return Sig(name=name, fmt=template.fmt)
