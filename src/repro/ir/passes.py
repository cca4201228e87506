"""Optimization passes over lowered IR blocks.

Classic scalar optimizations, each a pure function
``block -> (new_block, changed)`` that preserves op order and rewrites
stores/roots.  All IR ops are pure, so the legality arguments are
simple: constants fold by the reference semantics of
:func:`repro.ir.ops.execute`; structurally identical ops compute
identical values (CSE); ops reachable from no store/root are dead.

The aggressive passes (:func:`strength_reduce`,
:func:`restructure_mux`) rewrite arithmetic structure rather than just
pruning it, so every :class:`PassManager` run can *validate*: with
``validate="sampled"`` or ``"exhaustive"`` the manager checks each
changed block against its input with :mod:`repro.ir.equiv` translation
validation and raises :class:`~repro.ir.equiv.PassEquivalenceError`
naming the guilty pass on the first divergence.

:func:`run_passes` iterates the pipeline to a fixpoint, which makes the
whole pipeline idempotent — a property the test suite checks.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fixpt import Overflow
from ..fixpt.fixed import FxOverflowError
from .equiv import (
    PassEquivalenceError,
    VALIDATE_MODES,
    check_blocks,
    observable_srclocs,
)
from .ops import IRBlock, IROp, Store, quantize_raw_at, sign_fold

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _rebuild(block: IRBlock, keep: Sequence[bool],
             replace: Dict[int, int]) -> IRBlock:
    """Drop un-kept ops and renumber, following replacement chains."""

    def chase(vid: int) -> int:
        while vid in replace:
            vid = replace[vid]
        return vid

    new_ids: Dict[int, int] = {}
    out = IRBlock()
    for index, op in enumerate(block.ops):
        if not keep[index] or index in replace:
            continue
        args = tuple(new_ids[chase(arg)] for arg in op.args)
        new_ids[index] = out.emit(
            IROp(op.opcode, args, op.attrs, op.frac, op.width))
    out.stores = [Store(s.target, new_ids[chase(s.value)])
                  for s in block.stores]
    out.roots = [new_ids[chase(r)] for r in block.roots]
    return out


def _const_raw(block: IRBlock, vid: int) -> Optional[int]:
    op = block.ops[vid]
    if op.opcode == "const":
        return op.attrs[0]
    return None


def constant_fold(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Evaluate raw-domain ops whose operands are all constants."""
    ops: List[IROp] = []
    out = IRBlock()
    out.ops = ops
    remap: Dict[int, int] = {}
    changed = False

    def const_of(new_id: int) -> Optional[int]:
        op = ops[new_id]
        return op.attrs[0] if op.opcode == "const" else None

    for op in block.ops:
        args = tuple(remap[a] for a in op.args)
        raws = [const_of(a) for a in args]
        folded: Optional[int] = None
        code = op.opcode
        if all(raw is not None for raw in raws) and op.frac is not None:
            a = raws
            if code == "add":
                folded = a[0] + a[1]
            elif code == "sub":
                folded = a[0] - a[1]
            elif code == "mul":
                folded = a[0] * a[1]
            elif code == "neg":
                folded = -a[0]
            elif code == "abs":
                folded = abs(a[0])
            elif code == "shl":
                folded = a[0] << op.attrs[0]
            elif code == "ashr":
                folded = a[0] >> op.attrs[0]
            elif code == "retag":
                folded = a[0]
            elif code == "cmp":
                folded = 1 if _CMP[op.attrs[0]](a[0], a[1]) else 0
            elif code in ("band", "bor", "bxor"):
                wl, signed = op.attrs
                mask = (1 << wl) - 1
                x, y = a[0] & mask, a[1] & mask
                raw = x & y if code == "band" else (
                    x | y if code == "bor" else x ^ y)
                folded = sign_fold(raw, wl, signed)
            elif code == "bnot":
                folded = sign_fold(~a[0], *op.attrs)
            elif code == "bitsel":
                folded = (a[0] >> op.attrs[0]) & 1
            elif code == "slice":
                hi, lo = op.attrs
                folded = (a[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
            elif code == "concat":
                folded = 0
                for raw, width in zip(a, op.attrs):
                    folded = (folded << width) | (raw & ((1 << width) - 1))
            elif code == "quantize":
                src_frac = ops[args[0]].frac
                if src_frac is not None:
                    try:
                        folded = quantize_raw_at(a[0], src_frac, op.attrs[0])
                    except FxOverflowError:
                        # Overflow.ERROR must keep raising at run time.
                        folded = None
        if code == "mux" and op.frac is not None:
            sel = const_of(args[0])
            if sel is not None:
                remap[len(remap)] = args[1] if sel else args[2]
                changed = True
                continue
        if folded is None:
            remap[len(remap)] = out.emit(
                IROp(code, args, op.attrs, op.frac, op.width))
        else:
            remap[len(remap)] = out.emit(
                IROp("const", (), (folded,), op.frac, op.width))
            changed = True
    out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
    out.roots = [remap[r] for r in block.roots]
    return out, changed


def algebraic_simplify(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Strength reductions and identities on raw-domain ops.

    ``x+0``/``x-0`` -> x, ``0-x`` -> neg, ``x*1`` -> retag, ``x*0`` -> 0,
    ``x*2**k`` -> shl, shift-by-0 -> x, ``mux(s,t,t)`` -> t, constant-
    condition mux -> branch, no-op retag -> x, and dropping quantizes
    whose operand is already exactly in the target format (a prior
    quantize into the same format, or a read of a signal committed in
    it).  A value only substitutes directly when its frac matches the
    replaced op's; otherwise a ``retag`` keeps downstream alignment
    metadata honest.  Dead operands left behind are dce's job.
    """
    out = IRBlock()
    remap: Dict[int, int] = {}
    changed = False

    def op_of(new_id: int) -> IROp:
        return out.ops[new_id]

    def const_raw(new_id: int) -> Optional[int]:
        op = op_of(new_id)
        if op.opcode == "const" and op.frac is not None:
            return op.attrs[0]
        return None

    def substitute(new_id: int, frac, width: int) -> int:
        """Reuse *new_id* for the current op, retagging if fracs differ."""
        nonlocal changed
        changed = True
        if op_of(new_id).frac == frac:
            return new_id
        return out.emit(IROp("retag", (new_id,), (), frac, width))

    for op in block.ops:
        args = tuple(remap[a] for a in op.args)
        code = op.opcode
        result: Optional[int] = None
        if op.frac is not None:
            if code in ("add", "sub"):
                la, ra = const_raw(args[0]), const_raw(args[1])
                if ra == 0:
                    result = substitute(args[0], op.frac, op.width)
                elif la == 0 and code == "add":
                    result = substitute(args[1], op.frac, op.width)
                elif la == 0 and code == "sub":
                    changed = True
                    result = out.emit(
                        IROp("neg", (args[1],), (), op.frac, op.width))
            elif code == "mul":
                for this, other in ((args[0], args[1]), (args[1], args[0])):
                    raw = const_raw(this)
                    if raw == 0:
                        changed = True
                        result = out.emit(
                            IROp("const", (), (0,), op.frac, op.width))
                        break
                    if raw is not None and raw > 0 and raw & (raw - 1) == 0:
                        # Multiply by a raw power of two: shift the other
                        # operand; the product's binary point (sum of the
                        # operand fracs) is recorded on the new op.
                        bits = raw.bit_length() - 1
                        if bits == 0:
                            result = substitute(other, op.frac, op.width)
                        else:
                            changed = True
                            result = out.emit(IROp(
                                "shl", (other,), (bits,), op.frac,
                                op_of(other).width + bits))
                        break
            elif code in ("shl", "ashr") and op.attrs[0] == 0:
                result = substitute(args[0], op.frac, op.width)
            elif code == "retag" and op_of(args[0]).frac == op.frac:
                changed = True
                result = args[0]
            elif code == "mux":
                sel = const_raw(args[0])
                if sel is not None:
                    result = substitute(args[1] if sel else args[2],
                                        op.frac, op.width)
                elif args[1] == args[2]:
                    result = substitute(args[1], op.frac, op.width)
            elif code == "quantize":
                fmt = op.attrs[0]
                src = op_of(args[0])
                already_exact = (
                    (src.opcode == "quantize" and src.attrs[0] == fmt) or
                    (src.opcode == "read" and src.attrs[0].fmt == fmt)
                )
                if already_exact:
                    # The operand is a committed value of exactly this
                    # format, hence in range for every overflow mode.
                    changed = True
                    result = args[0]
        if result is None:
            result = out.emit(IROp(code, args, op.attrs, op.frac, op.width))
        remap[len(remap)] = result
    out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
    out.roots = [remap[r] for r in block.roots]
    return out, changed


def cse(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Merge structurally identical pure ops (value numbering)."""
    out = IRBlock()
    remap: Dict[int, int] = {}
    seen: Dict[tuple, int] = {}
    changed = False
    for index, op in enumerate(block.ops):
        args = tuple(remap[a] for a in op.args)
        key = (op.opcode, args, op.attrs, op.frac, op.width)
        got = seen.get(key)
        if got is not None:
            remap[index] = got
            changed = True
            continue
        new_id = out.emit(IROp(op.opcode, args, op.attrs, op.frac, op.width))
        seen[key] = new_id
        remap[index] = new_id
    out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
    out.roots = [remap[r] for r in block.roots]
    return out, changed


def dce(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Drop ops not reachable from any store or root."""
    live = [False] * len(block.ops)
    work = [s.value for s in block.stores] + list(block.roots)
    while work:
        vid = work.pop()
        if live[vid]:
            continue
        live[vid] = True
        work.extend(block.ops[vid].args)
    if all(live):
        return block, False
    return _rebuild(block, live, {}), True


def _csd_digits(value: int) -> List[Tuple[int, int]]:
    """Canonical signed-digit form of *value*: ``[(bit, ±1), ...]``.

    ``value == sum(sign << bit)`` with no two adjacent non-zero digits —
    the minimal shift/add form of a constant multiplier.
    """
    digits: List[Tuple[int, int]] = []
    bit = 0
    while value:
        if value & 1:
            sign = 1 if value % 4 == 1 else -1
            digits.append((bit, sign))
            value -= sign
        value >>= 1
        bit += 1
    return digits


def strength_reduce(block: IRBlock, max_terms: int = 4) -> Tuple[IRBlock, bool]:
    """Rewrite constant multiplies as signed shift/add trees.

    ``x * c`` becomes ``±(x << k0) ± (x << k1) ...`` from the CSD
    digits of the raw constant, when that takes at most *max_terms*
    shifts — exact in the raw domain (every shift appends zero bits, the
    signed sum reassembles ``x*c`` bit for bit), and far cheaper than an
    array multiplier in synthesis.  Power-of-two positives are
    :func:`algebraic_simplify`'s job; negative powers of two and
    multi-digit constants land here.
    """
    out = IRBlock()
    remap: Dict[int, int] = {}
    changed = False

    def const_raw(new_id: int) -> Optional[int]:
        op = out.ops[new_id]
        if op.opcode == "const" and op.frac is not None:
            return op.attrs[0]
        return None

    for op in block.ops:
        args = tuple(remap[a] for a in op.args)
        result: Optional[int] = None
        if op.opcode == "mul" and op.frac is not None:
            for this, other in ((args[0], args[1]), (args[1], args[0])):
                raw = const_raw(this)
                if raw is None or const_raw(other) is not None:
                    continue  # non-const, or const*const (fold's job)
                digits = _csd_digits(raw)
                single_pos = (len(digits) == 1 and digits[0][1] > 0)
                if not digits or single_pos or len(digits) > max_terms:
                    continue  # 0 / +2**k are simpler passes' territory
                x_width = out.ops[other].width

                def term(bits: int) -> int:
                    if bits == 0:
                        return other
                    return out.emit(IROp("shl", (other,), (bits,), op.frac,
                                         x_width + bits))

                acc: Optional[int] = None
                width = 0
                for bits, sign in digits:
                    t = term(bits)
                    t_width = out.ops[t].width
                    if acc is None:
                        if sign > 0:
                            acc = t
                            width = t_width
                        else:
                            acc = out.emit(IROp("neg", (t,), (), op.frac,
                                                t_width + 1))
                            width = t_width + 1
                    else:
                        width = max(width, t_width) + 1
                        acc = out.emit(IROp("add" if sign > 0 else "sub",
                                            (acc, t), (), op.frac, width))
                result = acc
                changed = True
                break
        if result is None:
            result = out.emit(IROp(op.opcode, args, op.attrs, op.frac,
                                   op.width))
        remap[len(remap)] = result
    out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
    out.roots = [remap[r] for r in block.roots]
    return out, changed


def restructure_mux(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Restructure mux trees: collapse, booleanize, and hoist operators.

    Four rewrites, all matched on the input block so a fixpoint pipeline
    finds chained opportunities:

    * nested same-selector collapse —
      ``mux(s, mux(s, a, _), mux(s, _, b))`` -> ``mux(s, a, b)``;
    * boolean mux — ``mux(s, 1, 0)`` at frac 0 is ``s`` itself when the
      selector is a ``cmp``/``bitsel`` (already 0/1);
    * unary hoisting — ``mux(s, neg(a), neg(b))`` -> ``neg(mux(s,a,b))``
      (likewise ``abs``), seeing through single-use alignment shifts;
    * chain operator hoisting — a priority-decode chain
      ``mux(c1, f(a1,b1), mux(c2, f(a2,b2), d))`` with two or more
      single-use ``add``/``sub``/``mul`` leaves factors into **one**
      operator fed by two selector chains:
      ``f(mux(c1, a1, mux(c2, a2, d)), mux(c1, b1, mux(c2, b2, e)))``
      where a non-matching leaf rides the left chain and its right-chain
      partner is the operator's identity (0 for add/sub, 1 for mul).
      On a decode chain with N multiply leaves this replaces N array
      multipliers with one.

    Every rewrite is exact in the raw domain (alignment shifts
    distribute over add/sub and fold into mul operands, shifting only
    provably-zero bits), and every emitted op carries its *true* binary
    point — the gate back-end re-derives alignment from those labels,
    so a dishonest frac would synthesize a different function even
    though the IR interpreter agreed.  Chains whose branch fracs do not
    reconstruct the mux frac (labels the lowerer did not produce) are
    left alone.  The displaced branch ops go dead and are swept by
    :func:`dce`.
    """
    uses = [0] * len(block.ops)
    for op in block.ops:
        for a in op.args:
            uses[a] += 1
    for s in block.stores:
        uses[s.value] += 1
    for r in block.roots:
        uses[r] += 1

    out = IRBlock()
    remap: Dict[int, int] = {}
    changed = False

    #: Binary opcodes the chain hoist factors, with their right-identity
    #: values (``x+0``, ``x-0``, ``x*1`` leave the left value as is).
    identities = {"add": 0, "sub": 0, "mul": 1}

    def peel(vid: int) -> Tuple[int, int]:
        """``(base, k)`` with ``raw(vid) == raw(base) << k``.

        Peels single-use alignment ``shl``/``retag`` chains (the shifts
        the lowerer inserts to bring mux branches to a common binary
        point) so structurally different branches expose their common
        operator.
        """
        k = 0
        while True:
            node = block.ops[vid]
            if node.opcode == "shl" and uses[vid] == 1 \
                    and node.frac is not None:
                k += node.attrs[0]
                vid = node.args[0]
            elif node.opcode == "retag" and uses[vid] == 1:
                vid = node.args[0]
            else:
                return vid, k

    def shifted(orig: int, k: int) -> int:
        """Emit ``raw(orig) << k``, labelled at its true binary point."""
        if k == 0:
            return remap[orig]
        node = block.ops[orig]
        return out.emit(IROp("shl", (remap[orig],), (k,), node.frac + k,
                             node.width + k))

    def flatten(vid: int):
        """The priority chain under mux *vid*: cases plus default.

        Follows single-use false branches (through alignment shifts)
        collecting ``(sel, branch, shift)`` triples such that
        ``raw(vid)`` selects the first true case's ``raw(branch) <<
        shift``, else ``raw(default) << shift``.
        """
        cases = []
        shift = 0
        while True:
            node = block.ops[vid]
            cases.append((node.args[0], node.args[1], shift))
            nxt, k = peel(node.args[2])
            nxt_op = block.ops[nxt]
            if (nxt_op.opcode == "mux" and nxt_op.frac is not None
                    and uses[nxt] == 1 and len(cases) < 8):
                vid = nxt
                shift += k
            else:
                return cases, (nxt, shift + k)

    def matchable(vid: int) -> Optional[str]:
        op_ = block.ops[vid]
        if (op_.opcode in identities and uses[vid] == 1
                and op_.frac is not None):
            return op_.opcode
        return None

    def hoist_chain(index: int, op: IROp) -> Optional[int]:
        """Factor one binary operator out of the chain under *index*."""
        cases, (dflt_v, dflt_k) = flatten(index)
        leaves = []          # (sel or None, base, total_shift, code)
        counts: Dict[str, int] = {}
        for sel_v, t_v, s in cases:
            b, k = peel(t_v)
            leaves.append((sel_v, b, s + k, matchable(b)))
        leaves.append((None, dflt_v, dflt_k, matchable(dflt_v)))
        for _sel, b, k, code in leaves:
            frac = block.ops[b].frac
            if frac is None or frac + k != op.frac:
                return None  # alignment labels do not reconstruct
            if code:
                counts[code] = counts.get(code, 0) + 1
        if not counts:
            return None
        code = sorted(counts, key=lambda c: (-counts[c], c))[0]
        if counts[code] < 2:
            return None

        if code == "mul":
            # Branch products sit at op.frac = frac(x)+frac(y)+k; pick
            # common operand points fa/fb and let exact shifts make up
            # the difference, realigning the single product at the end.
            fa = fb = 0
            for _sel, b, k, leaf_code in leaves:
                if leaf_code == code:
                    x, y = block.ops[b].args
                    fa = max(fa, block.ops[x].frac + k)
                    fb = max(fb, block.ops[y].frac)
                else:
                    fa = max(fa, op.frac)
            lefts, rights = [], []
            for _sel, b, k, leaf_code in leaves:
                if leaf_code == code:
                    x, y = block.ops[b].args
                    lefts.append(shifted(x, fa - block.ops[x].frac))
                    rights.append(shifted(y, fb - block.ops[y].frac))
                else:
                    lefts.append(shifted(b, k + fa - op.frac))
                    rights.append(out.emit(IROp(
                        "const", (), (1 << fb,), fb, fb + 2)))
        else:
            # (x ± y) << k == (x << k) ± (y << k): every left/right
            # leaf lands exactly at op.frac.
            lefts, rights = [], []
            for _sel, b, k, leaf_code in leaves:
                if leaf_code == code:
                    x, y = block.ops[b].args
                    lefts.append(shifted(x, k))
                    rights.append(shifted(y, k))
                else:
                    lefts.append(shifted(b, k))
                    rights.append(out.emit(IROp(
                        "const", (), (0,), op.frac, 2)))

        def build(values) -> int:
            acc = values[-1]
            for (sel_v, _b, _k, _c), value in zip(reversed(leaves[:-1]),
                                                  reversed(values[:-1])):
                acc = out.emit(IROp(
                    "mux", (remap[sel_v], value, acc), (),
                    out.ops[value].frac,
                    max(out.ops[value].width, out.ops[acc].width)))
            return acc

        left, right = build(lefts), build(rights)
        if code != "mul":
            return out.emit(IROp(code, (left, right), (), op.frac,
                                 op.width))
        prod_width = out.ops[left].width + out.ops[right].width
        prod = out.emit(IROp("mul", (left, right), (), fa + fb,
                             prod_width))
        realign = fa + fb - op.frac
        if realign == 0:
            return prod
        return out.emit(IROp("ashr", (prod,), (realign,), op.frac,
                             max(op.width, prod_width - realign)))

    for index, op in enumerate(block.ops):
        args = tuple(remap[a] for a in op.args)
        result: Optional[int] = None
        if op.opcode == "mux" and op.frac is not None:
            sel, t, f = op.args
            sel_op = block.ops[sel]
            # 1. Collapse nested muxes on the same selector.
            while (block.ops[t].opcode == "mux"
                   and block.ops[t].args[0] == sel):
                t = block.ops[t].args[1]
                changed = True
            while (block.ops[f].opcode == "mux"
                   and block.ops[f].args[0] == sel):
                f = block.ops[f].args[2]
                changed = True
            t_op, f_op = block.ops[t], block.ops[f]
            bt, kt = peel(t)
            bf, kf = peel(f)
            bt_op, bf_op = block.ops[bt], block.ops[bf]
            if (t, f) != op.args[1:]:
                result = out.emit(IROp("mux", (remap[sel], remap[t],
                                               remap[f]), (), op.frac,
                                      op.width))
            # 2. mux(s, 1, 0) at frac 0 is the 0/1 selector itself.
            elif (op.frac == 0 and sel_op.frac == 0
                    and sel_op.opcode in ("cmp", "bitsel")
                    and t_op.opcode == "const" and t_op.attrs[0] == 1
                    and f_op.opcode == "const" and f_op.attrs[0] == 0):
                changed = True
                result = remap[sel]
            # 3. Hoist a single-use unary operator above the mux.
            elif (bt != bf and bt_op.opcode == bf_op.opcode
                    and bt_op.opcode in ("neg", "abs")
                    and uses[bt] == 1 and uses[bf] == 1
                    and bt_op.frac is not None and bf_op.frac is not None
                    and bt_op.frac + kt == op.frac
                    and bf_op.frac + kf == op.frac):
                t_new = shifted(bt_op.args[0], kt)
                f_new = shifted(bf_op.args[0], kf)
                inner = out.emit(IROp(
                    "mux", (remap[sel], t_new, f_new), (), op.frac,
                    max(out.ops[t_new].width, out.ops[f_new].width)))
                changed = True
                result = out.emit(IROp(bt_op.opcode, (inner,), (),
                                       op.frac, op.width))
            # 4. Factor a common binary operator out of the chain.
            elif uses[index] > 0:
                result = hoist_chain(index, op)
                if result is not None:
                    changed = True
        if result is None:
            result = out.emit(IROp(op.opcode, args, op.attrs, op.frac,
                                   op.width))
        remap[index] = result
    out.stores = [Store(s.target, remap[s.value]) for s in block.stores]
    out.roots = [remap[r] for r in block.roots]
    return out, changed


def narrow_bitwidth(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Shrink every op to its minimal width with bit-analysis facts.

    The pass body lives in :func:`repro.lint.bits.narrow_block` — the
    reduced product of known-bits, bit-liveness and interval domains
    proves which bits are constant or never observed, then ops are
    constant-folded, in-range quantizes become pure shifts, and width
    labels drop to the minimum that preserves every observable.
    Operator allocation sizes hardware straight from those labels, so
    this is the pass that turns static wordlength analysis into gates.

    The import is deferred, mirroring ``ir/equiv.py``'s sanctioned edge
    onto the analysis layer: the IR package stays importable without
    the linter, and only this pass touches ``repro.lint.bits``
    (layering contract #7).
    """
    from ..lint.bits import narrow_block

    return narrow_block(block)


def elide_quantize(block: IRBlock) -> Tuple[IRBlock, bool]:
    """Drop the overflow policy of every quantize that can never fire.

    The pass body lives in :func:`repro.lint.bits.elide_quantize_block`:
    a forward walk of interval facts proves, per fixed-point quantize,
    that the shifted source range lies inside the format, and rewrites
    the quantize into the plain shift (or ``retag``) that
    ``quantize_raw_at`` performs before judging the range.  The
    compiled engines then stop paying for saturations, wrap folds and
    overflow checks on values that are always in range.  Width labels
    are untouched, so this is the rewrite ``narrow_bitwidth`` also
    makes, without its narrowing.

    Imported lazily through the same contract-7 edge as
    :func:`narrow_bitwidth`.
    """
    from ..lint.bits import elide_quantize_block

    return elide_quantize_block(block)


#: The default pipeline, in application order.
DEFAULT_PASSES: Tuple[Tuple[str, Callable], ...] = (
    ("constant_fold", constant_fold),
    ("algebraic_simplify", algebraic_simplify),
    ("cse", cse),
    ("dce", dce),
)

#: The aggressive pipeline: the default passes plus the structural
#: rewrites that change arithmetic (mux restructuring, strength
#: reduction).  Run it with ``validate="sampled"`` or better.
AGGRESSIVE_PASSES: Tuple[Tuple[str, Callable], ...] = (
    ("constant_fold", constant_fold),
    ("algebraic_simplify", algebraic_simplify),
    ("mux_restructure", restructure_mux),
    ("strength_reduce", strength_reduce),
    ("cse", cse),
    ("dce", dce),
)

#: The aggressive pipeline plus bit-level width narrowing.  The
#: narrowing runs after the structural rewrites (their new ops get
#: narrowed too) and before cse/dce (narrowing unifies widths, which
#: exposes sharing, and its constant rewrites leave dead cones).
NARROW_PASSES: Tuple[Tuple[str, Callable], ...] = (
    ("constant_fold", constant_fold),
    ("algebraic_simplify", algebraic_simplify),
    ("mux_restructure", restructure_mux),
    ("strength_reduce", strength_reduce),
    ("narrow_bitwidth", narrow_bitwidth),
    ("cse", cse),
    ("dce", dce),
)

#: The compiled engines' pipeline: the default passes plus
#: :func:`elide_quantize`.  It runs before ``algebraic_simplify`` so the
#: ``retag`` a same-point quantize becomes folds away in the same
#: iteration.  The simulators default to it; synthesis and the HDL
#: generators keep ``"default"``, so netlists and HDL text do not move.
ENGINE_PASSES: Tuple[Tuple[str, Callable], ...] = (
    ("constant_fold", constant_fold),
    ("elide_quantize", elide_quantize),
    ("algebraic_simplify", algebraic_simplify),
    ("cse", cse),
    ("dce", dce),
)

#: Named pipelines accepted wherever a pass sequence is expected.
PIPELINES: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "default": DEFAULT_PASSES,
    "aggressive": AGGRESSIVE_PASSES,
    "narrow": NARROW_PASSES,
    "engine": ENGINE_PASSES,
}


def resolve_pipeline(passes) -> Tuple[Tuple[str, Callable], ...]:
    """A pass sequence from a name, None (default), or the sequence."""
    if passes is None:
        return DEFAULT_PASSES
    if isinstance(passes, str):
        try:
            return PIPELINES[passes]
        except KeyError:
            raise ValueError(
                f"unknown pass pipeline {passes!r}: expected one of "
                f"{sorted(PIPELINES)}") from None
    return tuple(passes)


class PassManager:
    """Run a pass sequence to fixpoint (bounded) over IR blocks.

    With *validate* set to ``"sampled"`` or ``"exhaustive"``, every pass
    application that reports a change is checked against its input block
    by :func:`repro.ir.equiv.check_blocks`;
    :class:`~repro.ir.equiv.PassEquivalenceError` names the guilty pass
    and carries the concrete counterexample.  Per-pass statistics
    accumulate in :attr:`stats` across every block the manager runs
    (engines feed one manager all their lowered blocks): runs, blocks
    changed, net ops removed, wall time, validations and proofs.
    """

    def __init__(self, passes=DEFAULT_PASSES, max_iterations: int = 8,
                 validate: str = "off", seed: int = 0,
                 trials: Optional[int] = None, budget: int = 4096):
        if validate not in VALIDATE_MODES:
            raise ValueError(
                f"validate={validate!r}: expected one of {VALIDATE_MODES}")
        self.passes = resolve_pipeline(passes)
        self.max_iterations = max_iterations
        self.validate = validate
        self.seed = seed
        self.trials = trials
        self.budget = budget
        self.stats: Dict[str, Dict[str, int]] = {}

    def _stat(self, name: str) -> Dict[str, int]:
        return self.stats.setdefault(name, {
            "runs": 0, "changed": 0, "ops_removed": 0, "time_us": 0,
            "validated": 0, "proved": 0,
        })

    def run(self, block: IRBlock) -> IRBlock:
        srclocs = observable_srclocs(block) if self.validate != "off" else None
        for iteration in range(self.max_iterations):
            any_change = False
            for name, fn in self.passes:
                begin = time.perf_counter()
                new_block, changed = fn(block)
                stat = self._stat(name)
                stat["runs"] += 1
                stat["time_us"] += int((time.perf_counter() - begin) * 1e6)
                if changed:
                    stat["changed"] += 1
                    stat["ops_removed"] += (block.op_count()
                                            - new_block.op_count())
                    if self.validate != "off":
                        report = check_blocks(
                            block, new_block, mode=self.validate,
                            seed=self.seed, trials=self.trials,
                            budget=self.budget, srclocs=srclocs)
                        stat["validated"] += 1
                        if report.proved:
                            stat["proved"] += 1
                        if not report.equivalent:
                            raise PassEquivalenceError(
                                name, report.counterexample, iteration)
                block = new_block
                any_change = any_change or changed
            if not any_change:
                break
        return block

    def publish(self, metrics) -> None:
        """Push accumulated per-pass statistics into a metrics registry.

        *metrics* is duck-typed on ``counter(name).inc(amount)`` (the
        :class:`repro.obs.metrics.MetricsRegistry` protocol — ``ir``
        cannot import ``obs``, so engines hand the registry in).
        Counters land under ``ir_passes/<pass>/<field>``.
        """
        for name, stat in self.stats.items():
            for field, value in stat.items():
                if value:
                    metrics.counter(f"ir_passes/{name}/{field}").inc(value)


def run_passes(block: IRBlock, passes=DEFAULT_PASSES,
               validate: str = "off", seed: int = 0) -> IRBlock:
    """Optimize *block* with a pipeline (to fixpoint), optionally
    validating every pass application (see :class:`PassManager`)."""
    return PassManager(passes, validate=validate, seed=seed).run(block)
