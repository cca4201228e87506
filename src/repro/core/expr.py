"""Expression nodes for signal-flow-graph construction.

This is the Python equivalent of the paper's Figure 3: the C++ ``sig``
class overloads ``operator+`` to return a ``sigadd`` node, reusing the
compiler's parser to build the signal-flow-graph data structure.  Here the
:class:`Expr` base class overloads the Python arithmetic operators; writing
``a + b * c`` therefore *constructs a DAG* rather than computing a number.
Every node supports

* :meth:`Expr.evaluate` — the paper's ``simulate()``: compute the node's
  value from current signal values, and
* a structural interface (``children``, :meth:`Expr.leaves`) that the HDL
  code generators and the synthesis tools traverse — the paper's
  ``gen_code()``.

Comparison operators are deliberately *not* overloaded (``__eq__`` must
keep Python identity semantics so expressions stay hashable); use the
:func:`eq`, :func:`ne`, :func:`lt`, :func:`le`, :func:`gt`, :func:`ge`
helpers instead.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional, Sequence, Set, Tuple, Union

from ..fixpt import Fx, FxFormat, quantize
from .errors import ModelError, SynthesisError
from .srcloc import here

Value = Union[int, float, Fx]

_SHIFT_OPS = {"<<", ">>"}
_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
UNARY_OPS = {"-", "~", "abs"}

#: Format used for boolean results (comparisons, bit selects).
BOOL = FxFormat(wl=1, iwl=1, signed=False)


# -- binary operator evaluators -----------------------------------------------
#
# Module-level functions, one per operator, so that a BinOp picks its
# evaluator once and a captured design stays picklable.


def _shift_left(a: Value, b: Value) -> Value:
    bits = int(b)
    if isinstance(a, (Fx, int)):
        return a << bits
    return a * (2.0 ** bits)


def _shift_right(a: Value, b: Value) -> Value:
    bits = int(b)
    if isinstance(a, (Fx, int)):
        return a >> bits
    return a * (2.0 ** -bits)


def _bit_and(a: Value, b: Value) -> Value:
    return _bit_operand(a) & _bit_operand(b)


def _bit_or(a: Value, b: Value) -> Value:
    return _bit_operand(a) | _bit_operand(b)


def _bit_xor(a: Value, b: Value) -> Value:
    return _bit_operand(a) ^ _bit_operand(b)


def _bit_operand(value: Value) -> Value:
    return value if isinstance(value, Fx) else int(value)


# Comparisons give a 1-bit unsigned value.


def _cmp_eq(a: Value, b: Value) -> int:
    return 1 if a == b else 0


def _cmp_ne(a: Value, b: Value) -> int:
    return 1 if a != b else 0


def _cmp_lt(a: Value, b: Value) -> int:
    return 1 if a < b else 0


def _cmp_le(a: Value, b: Value) -> int:
    return 1 if a <= b else 0


def _cmp_gt(a: Value, b: Value) -> int:
    return 1 if a > b else 0


def _cmp_ge(a: Value, b: Value) -> int:
    return 1 if a >= b else 0


#: Binary operators with their evaluation semantics.
_EVALUATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": _bit_and, "|": _bit_or, "^": _bit_xor,
    "<<": _shift_left, ">>": _shift_right,
    "==": _cmp_eq, "!=": _cmp_ne, "<": _cmp_lt, "<=": _cmp_le,
    ">": _cmp_gt, ">=": _cmp_ge,
}
BINARY_OPS = set(_EVALUATORS)


def _as_expr(value) -> "Expr":
    """Coerce a Python number into a :class:`Constant` expression."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, Fx)):
        return Constant(value)
    raise TypeError(f"cannot use {type(value).__name__} in a signal expression")


class Expr:
    """Base class for all signal-flow-graph expression nodes."""

    #: Construction site in user code (None when capture is disabled).
    __slots__ = ("loc",)

    #: Overridden by subclasses: child expressions, left to right.
    children: Tuple["Expr", ...] = ()

    # -- the paper's simulate() ------------------------------------------------

    def evaluate(self) -> Value:
        """Compute this node's current value (recursive interpretation)."""
        raise NotImplementedError

    # -- structure ---------------------------------------------------------------

    def leaves(self) -> Iterator["Expr"]:
        """Yield every leaf (signal or constant) in this expression tree."""
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def signals(self) -> Set["Expr"]:
        """The set of signal leaves (excluding constants) under this node."""
        from .signal import Sig

        return {leaf for leaf in self.leaves() if isinstance(leaf, Sig)}

    def result_fmt(self) -> Optional[FxFormat]:
        """Static result format, or None for floating-point modeling."""
        raise NotImplementedError

    def require_fmt(self) -> FxFormat:
        """Result format, raising :class:`SynthesisError` if unavailable."""
        fmt = self.result_fmt()
        if fmt is None:
            raise SynthesisError(
                f"expression {self!r} has no fixed-point format; "
                "bit-true wordlengths are required for code generation/synthesis"
            )
        return fmt

    # -- operator overloads (DAG construction, as in Fig. 3) ---------------------

    def __add__(self, other):
        return BinOp("+", self, _as_expr(other))

    def __radd__(self, other):
        return BinOp("+", _as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", _as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", _as_expr(other), self)

    def __and__(self, other):
        return BinOp("&", self, _as_expr(other))

    def __rand__(self, other):
        return BinOp("&", _as_expr(other), self)

    def __or__(self, other):
        return BinOp("|", self, _as_expr(other))

    def __ror__(self, other):
        return BinOp("|", _as_expr(other), self)

    def __xor__(self, other):
        return BinOp("^", self, _as_expr(other))

    def __rxor__(self, other):
        return BinOp("^", _as_expr(other), self)

    def __lshift__(self, bits):
        if not isinstance(bits, int):
            raise ModelError("shift amounts must be constant integers")
        return BinOp("<<", self, Constant(bits))

    def __rshift__(self, bits):
        if not isinstance(bits, int):
            raise ModelError("shift amounts must be constant integers")
        return BinOp(">>", self, Constant(bits))

    def __neg__(self):
        return UnOp("-", self)

    def __invert__(self):
        return UnOp("~", self)

    def __abs__(self):
        return UnOp("abs", self)

    def __bool__(self):
        raise ModelError(
            "signal expressions have no Python truth value; "
            "use mux()/eq()/cnd() to model hardware decisions"
        )


class Constant(Expr):
    """A literal value appearing in an expression."""

    __slots__ = ("value", "_fmt")

    def __init__(self, value: Value, fmt: FxFormat = None):
        if isinstance(value, Fx):
            fmt = fmt or value.fmt
            value = value if fmt is value.fmt else quantize(value, fmt)
        elif fmt is not None:
            value = quantize(value, fmt)
        self.value = value
        self._fmt = fmt
        self.loc = here()

    def evaluate(self) -> Value:
        return self.value

    def result_fmt(self) -> Optional[FxFormat]:
        if self._fmt is not None:
            return self._fmt
        if isinstance(self.value, int):
            from .signal import _int_fmt

            return _int_fmt(self.value)
        return None

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


class BinOp(Expr):
    """A binary operator node (the paper's ``sigadd`` generalized)."""

    __slots__ = ("op", "left", "right", "children", "_apply")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ModelError(f"unknown binary operator {op!r}")
        self.op = op
        #: The operator's evaluator, picked once: ``_apply(a, b)``.
        self._apply = _EVALUATORS[op]
        self.left = left
        self.right = right
        self.children = (left, right)
        self.loc = here()

    def evaluate(self) -> Value:
        return self._apply(self.left.evaluate(), self.right.evaluate())

    def result_fmt(self) -> Optional[FxFormat]:
        if self.op in _CMP_OPS:
            return BOOL
        lf = self.left.result_fmt()
        if self.op in _SHIFT_OPS:
            if lf is None:
                return None
            bits = int(self.right.evaluate())
            return _shift_fmt(lf, bits if self.op == "<<" else -bits)
        rf = self.right.result_fmt()
        if lf is None or rf is None:
            return None
        if self.op in {"+", "-"}:
            fmt = lf.union(rf)
            grown = FxFormat(fmt.wl + 1, fmt.iwl + 1, fmt.signed or self.op == "-",
                             fmt.rounding, fmt.overflow)
            if self.op == "-" and not (lf.signed or rf.signed):
                grown = FxFormat(grown.wl + 1, grown.iwl + 1, True,
                                 grown.rounding, grown.overflow)
            return grown
        if self.op == "*":
            return FxFormat(
                wl=max(1, lf.iwl + rf.iwl + lf.frac_bits + rf.frac_bits),
                iwl=lf.iwl + rf.iwl,
                signed=lf.signed or rf.signed,
                rounding=lf.rounding,
                overflow=lf.overflow,
            )
        # Bitwise: both must be integer formats of compatible width.
        return lf.union(rf)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _shift_fmt(fmt: FxFormat, bits: int) -> FxFormat:
    """Result format of a constant shift by *bits* (positive = left)."""
    if bits >= 0:
        return FxFormat(fmt.wl + bits, fmt.iwl + bits, fmt.signed,
                        fmt.rounding, fmt.overflow)
    return FxFormat(fmt.wl - bits, fmt.iwl, fmt.signed, fmt.rounding, fmt.overflow)


class UnOp(Expr):
    """A unary operator node: negate, bitwise-invert, or absolute value."""

    __slots__ = ("op", "operand", "children")

    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise ModelError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand
        self.children = (operand,)
        self.loc = here()

    def evaluate(self) -> Value:
        a = self.operand.evaluate()
        if self.op == "-":
            return -a
        if self.op == "abs":
            return abs(a)
        if isinstance(a, Fx):
            return ~a
        return ~int(a)

    def result_fmt(self) -> Optional[FxFormat]:
        fmt = self.operand.result_fmt()
        if fmt is None:
            return None
        if self.op == "~":
            return fmt
        # Negation/abs of the most negative value needs one extra bit.
        signed_fmt = fmt if fmt.signed else FxFormat(
            fmt.wl + 1, fmt.iwl + 1, True, fmt.rounding, fmt.overflow)
        return FxFormat(signed_fmt.wl + 1, signed_fmt.iwl + 1, True,
                        signed_fmt.rounding, signed_fmt.overflow)

    def __repr__(self) -> str:
        return f"({self.op}{self.operand!r})"


class Mux(Expr):
    """A 2-way multiplexer: ``sel ? if_true : if_false``."""

    __slots__ = ("sel", "if_true", "if_false", "children")

    def __init__(self, sel: Expr, if_true: Expr, if_false: Expr):
        self.sel = sel
        self.if_true = if_true
        self.if_false = if_false
        self.children = (sel, if_true, if_false)
        self.loc = here()

    def evaluate(self) -> Value:
        sel = self.sel.evaluate()
        if sel.__class__ is not int:
            sel = int(sel) if isinstance(sel, (int, Fx)) else bool(sel)
        return self.if_true.evaluate() if sel else self.if_false.evaluate()

    def result_fmt(self) -> Optional[FxFormat]:
        tf = self.if_true.result_fmt()
        ff = self.if_false.result_fmt()
        if tf is None or ff is None:
            return None
        return tf.union(ff)

    def __repr__(self) -> str:
        return f"mux({self.sel!r}, {self.if_true!r}, {self.if_false!r})"


class Cast(Expr):
    """Quantize a value into a target format (a wordlength boundary)."""

    __slots__ = ("operand", "fmt", "children")

    def __init__(self, operand: Expr, fmt: FxFormat):
        self.operand = operand
        self.fmt = fmt
        self.children = (operand,)
        self.loc = here()

    def evaluate(self) -> Value:
        return quantize(self.operand.evaluate(), self.fmt)

    def result_fmt(self) -> Optional[FxFormat]:
        return self.fmt

    def __repr__(self) -> str:
        return f"cast({self.operand!r}, {self.fmt})"


class BitSelect(Expr):
    """Select a single bit of an integer-format value (LSB = bit 0)."""

    __slots__ = ("operand", "index", "children")

    def __init__(self, operand: Expr, index: int):
        if index < 0:
            raise ModelError("bit index must be non-negative")
        self.operand = operand
        self.index = index
        self.children = (operand,)
        self.loc = here()

    def evaluate(self) -> Value:
        value = self.operand.evaluate()
        raw = value.raw if isinstance(value, Fx) else int(value)
        return (raw >> self.index) & 1

    def result_fmt(self) -> Optional[FxFormat]:
        return BOOL

    def __repr__(self) -> str:
        return f"{self.operand!r}[{self.index}]"


class SliceSelect(Expr):
    """Select a contiguous bit field ``[hi:lo]`` as an unsigned integer."""

    __slots__ = ("operand", "hi", "lo", "children")

    def __init__(self, operand: Expr, hi: int, lo: int):
        if lo < 0 or hi < lo:
            raise ModelError(f"bad slice [{hi}:{lo}]")
        self.operand = operand
        self.hi = hi
        self.lo = lo
        self.children = (operand,)
        self.loc = here()

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def evaluate(self) -> Value:
        value = self.operand.evaluate()
        raw = value.raw if isinstance(value, Fx) else int(value)
        return (raw >> self.lo) & ((1 << self.width) - 1)

    def result_fmt(self) -> Optional[FxFormat]:
        return FxFormat(wl=self.width, iwl=self.width, signed=False)

    def __repr__(self) -> str:
        return f"{self.operand!r}[{self.hi}:{self.lo}]"


class Concat(Expr):
    """Concatenate integer-format values, first operand = most significant."""

    __slots__ = ("children",)

    def __init__(self, *operands: Expr):
        if len(operands) < 2:
            raise ModelError("concat needs at least two operands")
        self.children = tuple(_as_expr(op) for op in operands)
        self.loc = here()

    def evaluate(self) -> Value:
        result = 0
        for child in self.children:
            fmt = child.require_fmt()
            value = child.evaluate()
            raw = value.raw if isinstance(value, Fx) else int(value)
            result = (result << fmt.wl) | (raw & ((1 << fmt.wl) - 1))
        return result

    def result_fmt(self) -> Optional[FxFormat]:
        width = 0
        for child in self.children:
            fmt = child.result_fmt()
            if fmt is None:
                return None
            width += fmt.wl
        return FxFormat(wl=width, iwl=width, signed=False)

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.children)
        return f"concat({inner})"


# -- functional DSL helpers ---------------------------------------------------


def mux(sel, if_true, if_false) -> Mux:
    """Build a 2-way multiplexer expression."""
    return Mux(_as_expr(sel), _as_expr(if_true), _as_expr(if_false))


def cast(value, fmt: FxFormat) -> Cast:
    """Quantize *value* into *fmt* (a register/bus wordlength boundary)."""
    return Cast(_as_expr(value), fmt)


def bit(value, index: int) -> BitSelect:
    """Select bit *index* (LSB = 0) of *value*."""
    return BitSelect(_as_expr(value), index)


def bits(value, hi: int, lo: int) -> SliceSelect:
    """Select the bit field ``[hi:lo]`` of *value* as unsigned."""
    return SliceSelect(_as_expr(value), hi, lo)


def concat(*operands) -> Concat:
    """Concatenate operands, first = most significant."""
    return Concat(*operands)


def eq(a, b) -> BinOp:
    """1-bit equality comparison."""
    return BinOp("==", _as_expr(a), _as_expr(b))


def ne(a, b) -> BinOp:
    """1-bit inequality comparison."""
    return BinOp("!=", _as_expr(a), _as_expr(b))


def lt(a, b) -> BinOp:
    """1-bit less-than comparison."""
    return BinOp("<", _as_expr(a), _as_expr(b))


def le(a, b) -> BinOp:
    """1-bit less-or-equal comparison."""
    return BinOp("<=", _as_expr(a), _as_expr(b))


def gt(a, b) -> BinOp:
    """1-bit greater-than comparison."""
    return BinOp(">", _as_expr(a), _as_expr(b))


def ge(a, b) -> BinOp:
    """1-bit greater-or-equal comparison."""
    return BinOp(">=", _as_expr(a), _as_expr(b))
