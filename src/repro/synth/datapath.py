"""Datapath synthesis with word-level operator sharing.

The paper's section 6 relies on the Cathedral-3 back-end: *"bit-parallel
hardware implementation starting from a set of signal flow graphs ...
operator sharing at word level"*.  This module reproduces that flow:

* every SFG of a component is an *instruction*; the FSM guarantees that
  the SFGs of different transitions never execute in the same cycle;
* word-level operations (add, multiply, compare, ...) of mutually
  exclusive instructions are bound to shared operator *instances*;
* the operands of a shared instance are selected by AND-OR multiplexers
  steered by the controller's transition-select lines;
* each instance is expanded to gates once (ripple adders, array
  multipliers, ... from :mod:`repro.synth.bitops`).

With ``share=False`` every operation gets a dedicated operator — the
direct-mapped baseline used by the sharing ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import SynthesisError
from ..core.expr import Expr
from ..core.sfg import SFG
from ..core.signal import Sig
from ..ir import IRBlock, PassManager, lower_expr, lower_sfg
from . import bitops
from .bitops import Word, or_tree
from .gates import GateKind
from .netlist import Net, Netlist


@dataclass
class _Instance:
    """One allocated word-level operator."""

    key: tuple
    input_buses: List[List[Net]]  # reserved nets, driven at finalize
    output: Word
    #: Per time slot: (select net or None for always, operand words).
    candidates: List[Tuple[Optional[Net], List[Word]]] = field(
        default_factory=list)


class OperatorAllocator:
    """Allocates, binds and multiplexes word-level operators.

    Usage: for each mutually exclusive time slot (one FSM transition),
    call :meth:`begin_slot` with the slot's select net, then build
    expressions; ops are bound to instances shared across slots.  Call
    :meth:`finalize` once at the end to wire the operand multiplexers.
    """

    def __init__(self, nl: Netlist, share: bool = True,
                 width_bucket: int = 1):
        self.nl = nl
        self.share = share
        #: Optionally round shared-instance operand widths up to a
        #: multiple of this bucket (ALU-style width classes).  The
        #: demand pre-scan (:meth:`note_demand`) usually makes this
        #: unnecessary; the default keeps exact widths.
        self.width_bucket = max(1, width_bucket)
        self._pools: Dict[tuple, List[_Instance]] = {}
        self._slot_sel: Optional[Net] = None
        self._slot_used: set = set()
        self._demands: Dict[tuple, List[int]] = {}
        #: Statistics: operations requested vs instances created.
        self.operations = 0
        self.instances = 0

    def begin_slot(self, select: Optional[Net]) -> None:
        """Start binding for a new time slot (FSM transition)."""
        self._slot_sel = select
        self._slot_used: set = set()

    def note_demand(self, kind: str, shapes: Sequence[Tuple[int, int]]) -> None:
        """Pre-register an operand-shape demand (from the sizing pre-scan).

        Instances created later for this kind/frac key are sized at the
        element-wise maximum of all noted demands, so the widest
        instruction can share the same operator as the narrowest.
        """
        key = (kind, tuple(frac for _w, frac in shapes))
        noted = self._demands.get(key)
        if noted is None:
            self._demands[key] = [width for width, _f in shapes]
        else:
            for i, (width, _f) in enumerate(shapes):
                noted[i] = max(noted[i], width)

    def operate(self, kind: str, operands: Sequence[Word],
                build: Callable[[Netlist, List[Word]], Word]) -> Word:
        """Bind one word-level operation; returns the instance output.

        Operators of the same kind and fraction alignment share an
        instance across mutually exclusive slots; a narrower operand is
        sign-extended into a wider instance (word-level sharing).
        """
        self.operations += 1
        shapes = tuple((w.width, w.frac) for w in operands)
        key = (kind, tuple(frac for _w, frac in shapes))
        dedicated = not self.share or self._slot_sel is None
        if dedicated:
            # Direct mapping: build the operator on the operand nets.
            self.instances += 1
            return build(self.nl, list(operands))
        pool = self._pools.setdefault(key, [])
        instance = None
        for candidate in pool:
            if id(candidate) in self._slot_used:
                continue
            fits = all(
                len(bus) >= width
                for bus, (width, _frac) in zip(candidate.input_buses, shapes)
            )
            if fits:
                instance = candidate
                break
        if instance is None:
            bucket = self.width_bucket
            noted = self._demands.get(key, [])

            def sized(index: int, width: int) -> int:
                if index < len(noted):
                    width = max(width, noted[index])
                return ((width + bucket - 1) // bucket) * bucket

            input_buses = [
                self.nl.new_bus(sized(i, width), f"op{len(pool)}_{kind}_in")
                for i, (width, _frac) in enumerate(shapes)
            ]
            input_words = [
                Word(list(bus), frac)
                for bus, (_w, frac) in zip(input_buses, shapes)
            ]
            output = build(self.nl, input_words)
            instance = _Instance(key, input_buses, output)
            pool.append(instance)
            self.instances += 1
        self._slot_used.add(id(instance))
        instance.candidates.append((self._slot_sel, list(operands)))
        return instance.output

    def finalize(self) -> None:
        """Drive every shared instance's operand buses with AND-OR muxes."""
        nl = self.nl
        and2, or2, buf = GateKind.AND2, GateKind.OR2, GateKind.BUF
        for pool in self._pools.values():
            for instance in pool:
                for op_index, bus in enumerate(instance.input_buses):
                    for bit_index, target_net in enumerate(bus):
                        terms: List[Net] = []
                        for select, operands in instance.candidates:
                            word = operands[op_index]
                            # Sign-extend narrower operands into the
                            # (possibly wider) shared instance.
                            source = word.nets[bit_index] \
                                if bit_index < word.width else word.msb
                            terms.append(nl.add(and2, (select, source)))
                        if len(terms) == 1:
                            nl.add(buf, (terms[0],), output=target_net)
                        else:
                            node = terms[0]
                            for term in terms[1:-1]:
                                node = nl.add(or2, (node, term))
                            nl.add(or2, (node, terms[-1]),
                                   output=target_net)

    def sharing_report(self) -> Dict[str, int]:
        """Operations bound vs operator instances created."""
        return {"operations": self.operations, "instances": self.instances}


def _bool_net(nl: Netlist, word: Word) -> Net:
    """Reduce a word to its truth value (any bit set)."""
    if word.width == 1:
        return word.nets[0]
    return or_tree(nl, word.nets)


_BIT_CHAR = {"band": "&", "bor": "|", "bxor": "^"}
_BIT_GATE = {"band": GateKind.AND2, "bor": GateKind.OR2, "bxor": GateKind.XOR2}


class ExprSynthesizer:
    """Expands lowered IR blocks to words through an operator allocator.

    The instruction set arrives as :class:`~repro.ir.ops.IRBlock` values
    (one per SFG or FSM guard); every word-level IR op becomes one
    ``operate`` call, so the demand pre-scan and the synthesis pass are
    guaranteed to agree — both read the same ops, widths and fracs.
    """

    def __init__(self, nl: Netlist, alloc: OperatorAllocator,
                 leaf_word: Callable[[Sig], Word], passes=None,
                 validate: str = "off"):
        self.nl = nl
        self.alloc = alloc
        self.leaf_word = leaf_word
        #: The IR pass pipeline run over every lowered block: ``passes``
        #: names it (``()`` synthesizes the naive lowering) and
        #: ``validate`` turns on translation validation of each
        #: application.
        self.pass_manager = PassManager(
            "default" if passes is None else passes, validate=validate)
        #: Per-pass statistics across every lowered block.
        self.pass_stats = self.pass_manager.stats
        self._sfg_blocks: Dict[int, IRBlock] = {}
        self._expr_blocks: Dict[int, IRBlock] = {}

    # -- lowering (cached per SFG / guard expression) ----------------------------

    def _lowered(self, cache: Dict[int, IRBlock], key: int, build) -> IRBlock:
        block = cache.get(key)
        if block is None:
            block = cache[key] = self.pass_manager.run(build())
        return block

    def sfg_block(self, sfg: SFG) -> IRBlock:
        return self._lowered(
            self._sfg_blocks, id(sfg),
            lambda: lower_sfg(sfg, require_formats=True,
                              error_cls=SynthesisError))

    def guard_block(self, expr: Expr) -> IRBlock:
        return self._lowered(
            self._expr_blocks, id(expr),
            lambda: lower_expr(expr, require_formats=True,
                               error_cls=SynthesisError))

    # -- sizing pre-scan ---------------------------------------------------------

    def prescan_block(self, block: IRBlock) -> None:
        """Note every operator demand of *block* with the allocator.

        Run over every instruction block before synthesis so shared
        instances are created at the widest demanded operand widths.
        The shapes come straight from the IR op widths, which are
        exactly the word shapes :meth:`synth_block` produces.
        """
        for op in block.ops:
            kind = self._alloc_kind(op)
            if kind is None:
                continue
            shapes = [(block.ops[arg].width, block.ops[arg].frac)
                      for arg in op.args]
            self.alloc.note_demand(kind, shapes)

    @staticmethod
    def _alloc_kind(op) -> Optional[tuple]:
        code = op.opcode
        if code in ("add", "sub", "mul", "neg", "abs", "mux"):
            return code
        if code == "bnot":
            return "not"
        if code == "cmp":
            return f"cmp{op.attrs[0]}"
        if code in _BIT_CHAR:
            return f"bit{_BIT_CHAR[code]}"
        if code == "quantize":
            fmt = op.attrs[0]
            return ("cast", fmt.wl, fmt.iwl, fmt.signed, fmt.rounding,
                    fmt.overflow)
        return None  # wiring-only ops never allocate an operator

    # -- synthesis ---------------------------------------------------------------

    def synth_block(self, block: IRBlock) -> Dict[int, Word]:
        """Expand every op of *block* to gates; returns id -> Word.

        Callers pick results through ``block.stores`` (assignment
        targets) and ``block.roots`` (guard conditions).
        """
        words: Dict[int, Word] = {}
        for vid, op in enumerate(block.ops):
            args = [words[arg] for arg in op.args]
            words[vid] = self._synth_op(op, args)
        return words

    def _synth_op(self, op, args: List[Word]) -> Word:
        nl = self.nl
        code = op.opcode
        if code == "read":
            return self.leaf_word(op.attrs[0])
        if code == "const":
            return bitops.const_word(nl, op.attrs[0], op.width, op.frac)
        if code == "add":
            return self.alloc.operate(
                "add", args, lambda n, ws: bitops.add(n, *ws))
        if code == "sub":
            return self.alloc.operate(
                "sub", args, lambda n, ws: bitops.sub(n, *ws))
        if code == "mul":
            return self.alloc.operate(
                "mul", args, lambda n, ws: bitops.multiply(n, *ws))
        if code == "neg":
            return self.alloc.operate(
                "neg", args, lambda n, ws: bitops.negate(n, ws[0]))
        if code == "abs":
            return self.alloc.operate(
                "abs", args, lambda n, ws: bitops.absolute(n, ws[0]))
        if code == "shl":
            shifted = bitops.shift_left(nl, args[0], op.attrs[0])
            return Word(list(shifted.nets), op.frac)
        if code == "ashr":
            bits = op.attrs[0]
            nets = list(args[0].nets[bits:]) or [args[0].msb]
            return Word(nets, op.frac)
        if code == "retag":
            return Word(list(args[0].nets), op.frac)
        if code == "cmp":
            pyop = op.attrs[0]

            def build(n, ws, pyop=pyop):
                a, b = ws
                if pyop == "==":
                    bit = bitops.equal(n, a, b)
                elif pyop == "!=":
                    bit = n.add(GateKind.INV, [bitops.equal(n, a, b)])
                elif pyop == "<":
                    bit = bitops.less_than(n, a, b)
                elif pyop == ">=":
                    bit = n.add(GateKind.INV, [bitops.less_than(n, a, b)])
                elif pyop == ">":
                    bit = bitops.less_than(n, b, a)
                else:  # <=
                    bit = n.add(GateKind.INV, [bitops.less_than(n, b, a)])
                return Word([bit, n.const(0)], 0)

            return self.alloc.operate(f"cmp{pyop}", args, build)
        if code in _BIT_GATE:
            kind = _BIT_GATE[code]
            return self.alloc.operate(
                f"bit{_BIT_CHAR[code]}", args,
                lambda n, ws, kind=kind: bitops.bitwise(n, kind, *ws))
        if code == "bnot":
            return self.alloc.operate(
                "not", args, lambda n, ws: bitops.invert(n, ws[0]))
        if code == "mux":
            def build_mux(n, ws):
                return bitops.mux_word(n, _bool_net(n, ws[0]), ws[1], ws[2])

            return self.alloc.operate("mux", args, build_mux)
        if code == "bitsel":
            word = args[0]
            index = op.attrs[0]
            bit = word.nets[index] if index < word.width else word.msb
            return Word([bit, nl.const(0)], 0)
        if code == "slice":
            hi, lo = op.attrs
            word = args[0]
            nets = [word.nets[i] if i < word.width else word.msb
                    for i in range(lo, hi + 1)]
            nets.append(nl.const(0))  # unsigned headroom
            return Word(nets, 0)
        if code == "concat":
            pieces: List[Net] = []
            for word, width in zip(reversed(args), reversed(op.attrs)):
                for i in range(width):
                    pieces.append(
                        word.nets[i] if i < word.width else word.msb)
            pieces.append(nl.const(0))
            return Word(pieces, 0)
        if code == "quantize":
            fmt = op.attrs[0]
            return self.alloc.operate(
                ("cast", fmt.wl, fmt.iwl, fmt.signed, fmt.rounding,
                 fmt.overflow),
                args,
                lambda n, ws, fmt=fmt: bitops.quantize(n, ws[0], fmt),
            )
        raise SynthesisError(f"cannot synthesize IR opcode {code!r}")
