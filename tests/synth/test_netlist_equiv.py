"""Netlist-level equivalence: miter construction + word-parallel check."""

import pytest

from repro.core import Clock
from repro.synth import (
    GateKind,
    Netlist,
    NetlistEquivalenceError,
    build_miter,
    check_netlists,
    optimize_netlist,
    synthesize_process,
)


def _adder(name: str, width: int = 4, twist: bool = False) -> Netlist:
    """A ripple adder netlist; *twist* corrupts one carry AND into OR."""
    nl = Netlist(name)
    a = nl.add_input("a", width)
    b = nl.add_input("b", width)
    out = []
    carry = nl.const(0)
    for i in range(width):
        axb = nl.add(GateKind.XOR2, [a[i], b[i]])
        out.append(nl.add(GateKind.XOR2, [axb, carry]))
        gen = nl.add(GateKind.AND2, [a[i], b[i]])
        kind = GateKind.OR2 if (twist and i == 1) else GateKind.AND2
        prop = nl.add(kind, [axb, carry])
        carry = nl.add(GateKind.OR2, [gen, prop])
    nl.set_output("sum", out + [carry])
    return nl


class TestMiter:
    def test_equivalent_adders_proved_exhaustively(self):
        report = check_netlists(_adder("a1"), _adder("a2"),
                                mode="exhaustive")
        assert report.equivalent
        assert report.exhaustive
        assert report.vectors == 1 << 8  # every 4+4-bit assignment

    def test_twisted_adder_caught_with_stimulus(self):
        report = check_netlists(_adder("good"), _adder("bad", twist=True),
                                mode="exhaustive")
        assert not report.equivalent
        cex = report.counterexample
        assert cex is not None
        assert cex.output == "sum"
        assert set(cex.inputs) == {"a", "b"}
        assert cex.got_a != cex.got_b
        # the counterexample must actually reproduce on the two netlists:
        # carry corruption needs both bit-1 inputs involved
        assert "sum" in cex.describe()

    def test_sampled_mode_catches_it_too(self):
        report = check_netlists(_adder("good"), _adder("bad", twist=True),
                                mode="sampled", seed=2)
        assert not report.equivalent

    def test_interface_mismatch_reported(self):
        small = _adder("small", width=3)
        report = check_netlists(_adder("wide"), small)
        assert not report.equivalent
        assert "width" in report.counterexample.note

    def test_miter_shares_primary_inputs(self):
        miter, reason = build_miter(_adder("x"), _adder("y"))
        assert reason is None
        assert sorted(miter.inputs) == ["a", "b"]
        assert "diff" in miter.outputs
        assert "diff__sum" in miter.outputs

    def test_every_miter_net_is_a_pin_or_driven(self):
        from repro.designs.hcor import build_hcor

        raw = synthesize_process(build_hcor().process, optimize=False)
        opt = synthesize_process(build_hcor().process)
        for a, b in ((_adder("x"), _adder("y")),
                     (raw.netlist, opt.netlist)):
            miter, _reason = build_miter(a, b)
            pins = {net for bus in miter.inputs.values() for net in bus}
            assert all(net in pins or miter.driver_index(net) is not None
                       for net in range(miter._net_count)), miter.name


class TestOptimizeValidate:
    def test_netlist_optimizer_validates_clean(self):
        nl = _adder("clean")
        optimized = optimize_netlist(nl, validate="exhaustive")
        assert optimized.gate_count() <= nl.gate_count()
        assert check_netlists(nl, optimized, mode="exhaustive").equivalent

    def test_broken_rewrite_raises(self, monkeypatch):
        import repro.synth.optimize as optmod

        def broken_one_pass(old, seq_consts=None):
            return _adder(old.name + "_broken", twist=True), True

        monkeypatch.setattr(optmod, "_one_pass", broken_one_pass)
        with optmod._python_optimizer(), \
                pytest.raises(NetlistEquivalenceError) as info:
            optmod.optimize_netlist(_adder("victim"), max_passes=1,
                                    validate="sampled")
        assert info.value.counterexample is not None

    def test_broken_native_result_raises(self, monkeypatch):
        import repro.synth.optimize as optmod

        def broken_native(lib, netlist, max_passes):
            return _adder(netlist.name + "_broken", twist=True)

        monkeypatch.setattr(optmod, "_native_optimize", broken_native)
        monkeypatch.setattr(optmod.native, "optimizer", lambda: object())
        with pytest.raises(NetlistEquivalenceError) as info:
            optmod.optimize_netlist(_adder("victim"), validate="sampled")
        assert info.value.counterexample is not None

    def test_synthesize_process_validate_sequential(self):
        from repro.designs.dect import datapaths

        synthesis = synthesize_process(
            datapaths.build_sum(Clock("nl_eq_sum")),
            passes="aggressive", validate="sampled")
        assert synthesis.netlist.indices(GateKind.DFF)
