"""The interval analysis, validated three ways:

1. **Brute force** — on small wordlengths, every leaf valuation is run
   through the IR reference interpreter and every op's actual raw value
   must fall inside the analysis interval (soundness).
2. **Const-fold cross-check** — every constant the IR constant-folding
   pass proves must also be proven (same value) by the analysis.
3. **Overflow proof + dynamic witness** — the seeded guaranteed
   overflow is proven statically and then *triggered* dynamically by
   :func:`repro.verify.find_overflow_witness`.
"""

import itertools

import pytest

from repro.core import SFG, Clock, Register, Sig, cast, gt, mux
from repro.core.errors import FxOverflowError
from repro.fixpt import FxFormat, Overflow, Rounding
from repro.ir import constant_fold, lower_sfg
from repro.ir.ops import execute
from repro.lint import ERROR, INFO, Linter, WARNING, analyze, analyze_sfg
from repro.verify import find_overflow_witness

from tests.lint.conftest import by_code, codes

S3 = FxFormat(3, 3)                      # raw in [-4, 3]
U3 = FxFormat(3, 3, signed=False)        # raw in [0, 7]
S5F2 = FxFormat(5, 3)                    # 2 frac bits
WRAP4 = FxFormat(4, 4, overflow=Overflow.WRAP)
SAT4 = FxFormat(4, 4, overflow=Overflow.SATURATE)
ROUND4 = FxFormat(4, 2, rounding=Rounding.ROUND)
ERR6 = FxFormat(6, 6, overflow=Overflow.ERROR)


def leaves_of(block):
    seen, out = set(), []
    for op in block.ops:
        if op.opcode == "read" and id(op.attrs[0]) not in seen:
            seen.add(id(op.attrs[0]))
            out.append(op.attrs[0])
    return out


def assert_sound(sfg):
    """Exhaustively check every op's value against its interval."""
    block = lower_sfg(sfg)
    analysis = analyze(block)
    leaves = leaves_of(block)
    ranges = [range(s.fmt.raw_min, s.fmt.raw_max + 1) for s in leaves]
    checked = 0
    for raws in itertools.product(*ranges):
        env = dict(zip(leaves, raws))
        try:
            values = execute(block, lambda sig: env[sig])
        except FxOverflowError:
            continue  # Overflow.ERROR aborts the trace; nothing to check
        for vid, op in enumerate(block.ops):
            interval = analysis.of(vid)
            if interval is None or op.frac is None:
                continue
            assert interval.lo <= values[vid] <= interval.hi, (
                f"op {vid} ({op.opcode}): value {values[vid]} escapes "
                f"{interval} under leaves {raws}")
            checked += 1
    assert checked > 0
    return analysis


class TestBruteForceSoundness:
    def test_add_sub_mul(self):
        a, b, y = Sig("a", S3), Sig("b", U3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= a * b + (a - b)
        sfg.inp(a, b).out(y)
        assert_sound(sfg)

    def test_mux_and_compare(self):
        a, b, y = Sig("a", S3), Sig("b", S3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= mux(gt(a, b), a - b, b - a)
        sfg.inp(a, b).out(y)
        assert_sound(sfg)

    def test_shifts_and_neg(self):
        a, y = Sig("a", S3), Sig("y", S5F2)
        sfg = SFG("t")
        with sfg:
            y <<= (-a >> 1) + (a << 1)
        sfg.inp(a).out(y)
        assert_sound(sfg)

    def test_wrap_quantize(self):
        a, b = Sig("a", U3), Sig("b", U3)
        narrow, y = Sig("narrow", WRAP4), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            narrow <<= cast(a * b, WRAP4)   # wraps: interval widens to fmt
            y <<= cast(narrow + 1, SAT4)
        sfg.inp(a, b).out(y)
        assert_sound(sfg)

    def test_rounding_quantize(self):
        a, y = Sig("a", S5F2), Sig("y", ROUND4)
        sfg = SFG("t")
        with sfg:
            y <<= a
        sfg.inp(a).out(y)
        assert_sound(sfg)

    def test_saturating_chain(self):
        a, b, y = Sig("a", S3), Sig("b", S3), Sig("y", SAT4)
        mid = Sig("mid", FxFormat(3, 3))
        sfg = SFG("t")
        with sfg:
            mid <<= cast(a + b, FxFormat(3, 3))  # saturates
            y <<= cast(mid * 2, SAT4)
        sfg.inp(a, b).out(y)
        assert_sound(sfg)

    def test_registers_use_format_range(self):
        clk = Clock()
        acc = Register("acc", clk, S3)
        y = Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= acc + 1
            acc <<= cast(acc + 1, S3)
        sfg.out(y)
        assert_sound(sfg)


class TestConstFoldCrossCheck:
    def cross_check(self, sfg):
        """Everything the const folder proves, the analysis must prove."""
        block = lower_sfg(sfg)
        analysis = analyze(block)
        folded, _changed = constant_fold(block)
        agreed = 0
        for index, store in enumerate(folded.stores):
            op = folded.ops[store.value]
            if op.opcode != "const":
                continue
            interval = analysis.store_interval(index)
            assert interval is not None and interval.is_constant
            assert interval.lo == op.attrs[0]
            agreed += 1
        return agreed

    def test_literal_arithmetic(self):
        y = Sig("y", S5F2)
        sfg = SFG("t")
        with sfg:
            y <<= 2 + 1
        sfg.out(y)
        assert self.cross_check(sfg) == 1

    def test_folded_subtree_feeding_signal(self):
        a, y, lit = Sig("a", S3), Sig("y", SAT4), Sig("lit", SAT4)
        sfg = SFG("t")
        with sfg:
            lit <<= 3 * 2 - 1
            y <<= a + 1
        sfg.inp(a).out(y).out(lit)
        assert self.cross_check(sfg) == 1

    def test_analysis_is_strictly_stronger(self):
        """x * 0 is constant by range reasoning, which plain constant
        folding (literal subtrees only) cannot see."""
        x, y = Sig("x", S3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= x * 0
        sfg.inp(x).out(y)
        assert self.cross_check(sfg) == 0  # folder can't prove it...
        analysis = analyze_sfg(sfg)
        interval = analysis.store_interval(0)
        assert interval.is_constant and interval.lo == 0  # ...analysis can


class TestOverflowRules:
    def seeded_overflow_sfg(self):
        x = Sig("x", U3)
        y = Sig("y", ERR6)
        sfg = SFG("seeded")
        with sfg:
            y <<= cast(x * x + 40, ERR6)  # [40, 89] vs [-32, 31]
        sfg.inp(x).out(y)
        return sfg

    def test_guaranteed_overflow_is_proven(self):
        found = by_code(Linter().lint_sfg(self.seeded_overflow_sfg()), "L401")
        assert len(found) == 1
        assert found[0].severity == ERROR  # Overflow.ERROR formats: error
        assert "always overflow" in found[0].message

    def test_static_proof_confirmed_dynamically(self):
        """The acceptance criterion: what the interval analysis proves,
        verify/ can trigger with a concrete input."""
        sfg = self.seeded_overflow_sfg()
        witness = find_overflow_witness(sfg, trials=8)
        assert witness is not None
        assert witness.fmt == ERR6
        # The witness is executable: running the SFG on it raises.
        block = lower_sfg(sfg)
        with pytest.raises(FxOverflowError):
            execute(block, lambda sig: witness.inputs[sig])

    def test_saturating_overflow_is_warning(self):
        x, y = Sig("x", U3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= cast(x + 9, SAT4)  # [9, 16] vs [-8, 7]: always clips
        sfg.inp(x).out(y)
        found = by_code(Linter().lint_sfg(sfg), "L401")
        assert len(found) == 1 and found[0].severity == WARNING

    def test_possible_overflow_only_for_error_formats(self):
        x, y = Sig("x", U3), Sig("y", ERR6)
        sfg = SFG("t")
        with sfg:
            y <<= cast(x * x + 20, ERR6)  # [20, 69] vs [-32, 31]: partial
        sfg.inp(x).out(y)
        diagnostics = Linter().lint_sfg(sfg)
        found = by_code(diagnostics, "L402")
        assert len(found) == 1 and found[0].severity == WARNING
        assert "L401" not in codes(diagnostics)

    def test_partial_saturation_is_normal_design(self):
        x, y = Sig("x", U3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= cast(x + 3, SAT4)  # [3, 10]: clips only sometimes
        sfg.inp(x).out(y)
        diagnostics = Linter().lint_sfg(sfg)
        assert "L401" not in codes(diagnostics)
        assert "L402" not in codes(diagnostics)

    def test_in_range_is_clean(self):
        x, y = Sig("x", U3), Sig("y", ERR6)
        sfg = SFG("t")
        with sfg:
            y <<= cast(x + 2, ERR6)  # [2, 9] fits [-32, 31]
        sfg.inp(x).out(y)
        diagnostics = Linter().lint_sfg(sfg)
        assert not codes(diagnostics) & {"L401", "L402"}


class TestCollapseAndConstant:
    def test_quantize_collapse(self):
        tiny = FxFormat(6, 6)                    # 0 frac bits
        frac = FxFormat(6, 0, signed=False)      # x in [0, 63/64]
        x, y = Sig("x", frac), Sig("y", tiny)
        sfg = SFG("t")
        with sfg:
            y <<= x  # truncating to integer maps the whole range to 0
        sfg.inp(x).out(y)
        found = by_code(Linter().lint_sfg(sfg), "L403")
        assert len(found) == 1
        assert found[0].severity == WARNING
        assert "collapses" in found[0].message

    def test_provably_constant_store(self):
        x, y = Sig("x", S3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= x * 0
        sfg.inp(x).out(y)
        found = by_code(Linter().lint_sfg(sfg), "L404")
        assert len(found) == 1 and found[0].severity == INFO
        assert "constant 0" in found[0].message

    def test_literal_store_not_reported(self):
        y = Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= 5
        sfg.out(y)
        assert "L404" not in codes(Linter().lint_sfg(sfg))

    def test_clamped_overflow_not_reported_constant(self):
        """A store pinned to one value only because a quantize saturates
        belongs to L401, not L404."""
        x, y = Sig("x", U3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= cast(x + 9, SAT4)
        sfg.inp(x).out(y)
        assert "L404" not in codes(Linter().lint_sfg(sfg))


class TestIntervalValue:
    """``Interval`` is a plain ``__slots__`` class with value semantics,
    and the shared ``transfer`` builds findings only when given a sink."""

    def test_empty_interval_rejected(self):
        from repro.lint import Interval

        with pytest.raises(ValueError, match="empty interval"):
            Interval(3, 2)

    def test_value_semantics(self):
        from repro.lint import Interval

        assert Interval(-1, 4) == Interval(-1, 4) != Interval(-1, 5)
        assert hash(Interval(-1, 4)) == hash(Interval(-1, 4))
        assert Interval(2, 2).is_constant and 3 in Interval(2, 5)
        assert str(Interval(-1, 4)) == "[-1, 4]"
        assert not hasattr(Interval(0, 1), "__dict__")

    def test_transfer_without_a_sink_matches_analyze(self):
        from repro.lint.interval import transfer

        a, b, y = Sig("a", U3), Sig("b", U3), Sig("y", SAT4)
        sfg = SFG("t")
        with sfg:
            y <<= a * b  # [0, 49] overflows <s4>: one finding
        sfg.inp(a, b).out(y)
        block = lower_sfg(sfg)
        analysis = analyze(block)
        assert [f.kind for f in analysis.findings] == ["overflow"]
        intervals = []
        for vid, op in enumerate(block.ops):
            intervals.append(transfer(block, op, intervals, vid))
        assert intervals == analysis.intervals
