"""Dynamic confirmation of overflow findings: concrete witness search.

The lint interval analysis (:mod:`repro.lint.interval`) *proves* range
facts; this module closes the loop dynamically — it hunts for a concrete
input valuation under which an SFG's quantize step actually overflows,
by running the lowered IR through the reference interpreter on random
leaf values drawn from each signal's format range.  A returned
:class:`OverflowWitness` is an executable counterexample: feeding those
leaf values into any simulation back-end reproduces the overflow (an
``FxOverflowError`` for ``Overflow.ERROR`` formats, silent clipping or
wraparound otherwise).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import FxOverflowError
from ..core.sfg import SFG
from ..fixpt import Fx, FxFormat
from ..fixpt.quantize import round_raw_at
from ..ir.lower import lower_sfg
from ..ir.ops import execute


@dataclass(frozen=True)
class OverflowWitness:
    """A concrete leaf valuation that overflows one quantize step."""

    #: Leaf signal -> raw integer value driven in this trial.
    inputs: Dict[object, int]
    #: Value id of the overflowing quantize op in the lowered block.
    vid: int
    fmt: FxFormat
    #: The pre-policy value at the target binary point (outside the
    #: format's raw range), None when the interpreter raised before the
    #: value could be formed.
    value: Optional[int]

    def describe(self) -> str:
        assigns = ", ".join(
            f"{sig.name}={float(Fx(fmt=sig.fmt, raw=raw)):g}"
            for sig, raw in sorted(self.inputs.items(),
                                   key=lambda kv: kv[0].name))
        where = ("execution raised FxOverflowError" if self.value is None
                 else f"value {self.value} escapes "
                      f"[{self.fmt.raw_min}, {self.fmt.raw_max}]")
        return f"with {assigns or 'no inputs'}: {where} at {self.fmt}"


def find_overflow_witness(sfg: SFG, trials: int = 256,
                          seed: int = 0) -> Optional[OverflowWitness]:
    """Search for leaf values that overflow some quantize step of *sfg*.

    Every formatted leaf (inputs *and* registers) is driven with raw
    values drawn uniformly from its format range — the same reachable
    set the interval analysis assumes — so a static L401/L402 finding
    should be reproducible here (probabilistically, for L402).  Returns
    None when *trials* random valuations all stay in range.
    """
    block = lower_sfg(sfg)
    leaves = []
    seen = set()
    for op in block.ops:
        if op.opcode == "read" and id(op.attrs[0]) not in seen:
            seen.add(id(op.attrs[0]))
            leaves.append(op.attrs[0])
    if any(getattr(sig, "fmt", None) is None for sig in leaves):
        return None  # float-domain leaves: no bounded range to draw from
    rng = random.Random(seed)
    for _ in range(trials):
        raws = {sig: rng.randint(sig.fmt.raw_min, sig.fmt.raw_max)
                for sig in leaves}
        try:
            values = execute(block, lambda sig: raws[sig])
        except FxOverflowError:
            vid, fmt = _raising_quantize(block, raws)
            return OverflowWitness(raws, vid, fmt, None)
        for vid, op in enumerate(block.ops):
            if op.opcode != "quantize":
                continue
            src = block.ops[op.args[0]]
            if src.frac is None:
                continue
            fmt = op.attrs[0]
            value = round_raw_at(values[op.args[0]], src.frac, fmt)
            if not fmt.raw_min <= value <= fmt.raw_max:
                return OverflowWitness(raws, vid, fmt, value)
    return None


def _raising_quantize(block, raws):
    """Locate the quantize op that raises under *raws*.

    Re-executes growing prefixes of the block (value ids are list
    indices, so a prefix is self-contained); the first quantize whose
    prefix raises is the culprit.  Quadratic, but blocks are small and
    this only runs once per witness.
    """
    from ..ir.ops import IRBlock

    for vid, op in enumerate(block.ops):
        if op.opcode != "quantize":
            continue
        prefix = IRBlock(ops=list(block.ops[:vid + 1]))
        try:
            execute(prefix, lambda sig: raws[sig])
        except FxOverflowError:
            return vid, op.attrs[0]
    raise AssertionError("no quantize raised on re-run")
