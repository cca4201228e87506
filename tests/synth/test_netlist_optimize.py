"""Tests for the netlist structure, gate simulator, and optimizer."""

import pytest

from repro.core import SynthesisError
from repro.synth import GateKind, GateSimulator, Netlist, optimize_netlist


class TestNetlist:
    def test_single_driver_enforced(self):
        nl = Netlist("t")
        a = nl.add_input("a", 1)
        out = nl.add(GateKind.INV, a)
        with pytest.raises(SynthesisError):
            nl.add(GateKind.BUF, a, output=out)

    def test_arity_checked(self):
        nl = Netlist("t")
        a = nl.add_input("a", 2)
        with pytest.raises(SynthesisError):
            nl.add(GateKind.INV, a)  # two inputs to an inverter

    def test_constants_shared(self):
        nl = Netlist("t")
        assert nl.const(0) == nl.const(0)
        assert nl.const(1) == nl.const(1)
        assert nl.const(0) != nl.const(1)

    def test_levelize_orders_dependencies(self):
        nl = Netlist("t")
        a = nl.add_input("a", 1)
        x = nl.add(GateKind.INV, [a[0]])
        y = nl.add(GateKind.INV, [x])
        order = nl.levelize_indices()
        assert order.index(nl.driver_index(x)) < \
            order.index(nl.driver_index(y))

    def test_levelize_detects_cycle(self):
        nl = Netlist("t")
        n1, n2 = nl.new_net(), nl.new_net()
        nl.add(GateKind.INV, [n1], output=n2)
        nl.add(GateKind.INV, [n2], output=n1)
        with pytest.raises(SynthesisError, match="cycle"):
            nl.levelize_indices()

    def test_dff_breaks_cycle(self):
        nl = Netlist("t")
        q = nl.new_net()
        d = nl.add(GateKind.INV, [q])
        nl.add(GateKind.DFF, [d], output=q)
        nl.levelize_indices()  # must not raise

    def test_area_and_counts(self):
        nl = Netlist("t")
        a = nl.add_input("a", 2)
        nl.add(GateKind.AND2, a)
        nl.add(GateKind.NAND2, a)
        assert nl.counts()[GateKind.AND2] == 1
        assert nl.area() == pytest.approx(1.33 + 1.0)

    def test_logic_depth(self):
        nl = Netlist("t")
        a = nl.add_input("a", 1)
        x = nl.add(GateKind.INV, [a[0]])
        y = nl.add(GateKind.INV, [x])
        nl.set_output("y", [y])
        assert nl.logic_depth() == 2


class TestGateSimulator:
    def test_toggle_flop(self):
        nl = Netlist("t")
        q = nl.new_net()
        d = nl.add(GateKind.INV, [q])
        nl.add(GateKind.DFF, [d], output=q, init=0)
        nl.set_output("q", [q])
        sim = GateSimulator(nl)
        values = []
        sim.monitors.append(lambda s: values.append(s.output("q", signed=False)))
        sim.run(4)
        assert values == [0, 1, 0, 1]

    def test_signed_bus_read(self):
        nl = Netlist("t")
        a = nl.add_input("a", 4)
        nl.set_output("y", a)
        sim = GateSimulator(nl)
        sim.set_input("a", -3)
        sim._propagate()
        assert sim.output("y") == -3
        assert sim.output("y", signed=False) == 13

    def test_unknown_pin_raises(self):
        nl = Netlist("t")
        sim = GateSimulator(nl)
        with pytest.raises(Exception):
            sim.set_input("nope", 0)


class TestOptimizer:
    def test_constant_folding(self):
        nl = Netlist("t")
        a = nl.add_input("a", 1)
        zero = nl.const(0)
        dead = nl.add(GateKind.AND2, [a[0], zero])  # always 0
        y = nl.add(GateKind.OR2, [dead, a[0]])       # == a
        nl.set_output("y", [y])
        optimized = optimize_netlist(nl)
        # Everything reduces to a wire (possibly a buffer).
        assert optimized.gate_count() <= 1

    def test_double_inverter_removed(self):
        nl = Netlist("t")
        a = nl.add_input("a", 1)
        x = nl.add(GateKind.INV, [a[0]])
        y = nl.add(GateKind.INV, [x])
        nl.set_output("y", [y])
        optimized = optimize_netlist(nl)
        assert optimized.counts().get(GateKind.INV, 0) == 0

    def test_structural_hashing(self):
        nl = Netlist("t")
        a = nl.add_input("a", 2)
        x = nl.add(GateKind.AND2, a)
        y = nl.add(GateKind.AND2, a)  # identical gate
        z = nl.add(GateKind.OR2, [x, y])  # OR(x,x) == x after merge
        nl.set_output("z", [z])
        optimized = optimize_netlist(nl)
        assert optimized.counts().get(GateKind.AND2, 0) == 1

    def test_dead_gates_swept(self):
        nl = Netlist("t")
        a = nl.add_input("a", 2)
        nl.add(GateKind.XOR2, a)  # feeds nothing
        y = nl.add(GateKind.AND2, a)
        nl.set_output("y", [y])
        optimized = optimize_netlist(nl)
        assert optimized.counts().get(GateKind.XOR2, 0) == 0

    def test_dff_kept_through_feedback(self):
        nl = Netlist("t")
        q = nl.new_net()
        d = nl.add(GateKind.INV, [q])
        nl.add(GateKind.DFF, [d], output=q, init=0)
        nl.set_output("q", [q])
        optimized = optimize_netlist(nl)
        assert len(optimized.indices(GateKind.DFF)) == 1

    def test_sequential_constant_removed(self):
        nl = Netlist("t")
        q = nl.new_net()
        nl.add(GateKind.DFF, [nl.const(0)], output=q, init=0)  # stuck at 0
        a = nl.add_input("a", 1)
        y = nl.add(GateKind.OR2, [q, a[0]])  # == a
        nl.set_output("y", [y])
        optimized = optimize_netlist(nl)
        assert len(optimized.indices(GateKind.DFF)) == 0

    def test_equivalence_random(self):
        """Optimized netlist computes the same function."""
        import itertools
        import random

        rng = random.Random(7)
        nl = Netlist("t")
        a = nl.add_input("a", 4)
        pool = list(a) + [nl.const(0), nl.const(1)]
        for _ in range(60):
            kind = rng.choice([
                GateKind.AND2, GateKind.OR2, GateKind.XOR2, GateKind.INV,
                GateKind.NAND2, GateKind.NOR2, GateKind.MUX2,
            ])
            from repro.synth.gates import ARITY

            inputs = [rng.choice(pool) for _ in range(ARITY[kind])]
            pool.append(nl.add(kind, inputs))
        outputs = [rng.choice(pool) for _ in range(4)]
        nl.set_output("y", outputs)
        optimized = optimize_netlist(nl)
        assert optimized.gate_count() <= nl.gate_count()
        for value in range(16):
            sim_a = GateSimulator(nl)
            sim_b = GateSimulator(optimized)
            sim_a.set_input("a", value)
            sim_b.set_input("a", value)
            sim_a._propagate()
            sim_b._propagate()
            assert sim_a.output("y") == sim_b.output("y"), value


class TestSequentialConstants:
    """The ternary (0/1/X) sequential-constant fixpoint."""

    def _stuck_pair(self):
        """Two mutually-dependent DFFs both stuck at their init value 0:
        d1 = q2 AND a, d2 = q1 OR q2.  Neither D is a literal constant,
        so the purely local rule cannot prove either."""
        from repro.synth.optimize import sequential_constants

        nl = Netlist("seq")
        a = nl.add_input("a", 1)[0]
        q1, q2 = nl.new_net("q1"), nl.new_net("q2")
        d1 = nl.add(GateKind.AND2, [q2, a])
        d2 = nl.add(GateKind.OR2, [q1, q2])
        nl.add(GateKind.DFF, [d1], output=q1, init=0)
        nl.add(GateKind.DFF, [d2], output=q2, init=0)
        nl.set_output("y", [nl.add(GateKind.OR2, [a, q1])])
        return nl, q1, q2, sequential_constants(nl)

    def test_mutual_constants_found(self):
        _nl, q1, q2, consts = self._stuck_pair()
        assert consts.get(q1) == "0" and consts.get(q2) == "0"

    def test_constants_dissolve_validated(self):
        from repro.synth.equiv import check_netlists

        nl, _q1, _q2, _consts = self._stuck_pair()
        optimized = optimize_netlist(nl, validate="exhaustive")
        assert not optimized.indices(GateKind.DFF)
        assert check_netlists(nl, optimized, mode="exhaustive").equivalent

    def test_toggling_dff_not_constant(self):
        from repro.synth.optimize import sequential_constants

        nl = Netlist("toggle")
        q = nl.new_net("q")
        d = nl.add(GateKind.INV, [q])
        nl.add(GateKind.DFF, [d], output=q, init=0)
        nl.set_output("y", [q])
        assert q not in sequential_constants(nl)
        optimized = optimize_netlist(nl, validate="exhaustive")
        assert len(optimized.indices(GateKind.DFF)) == 1

    def test_input_driven_dff_not_constant(self):
        from repro.synth.optimize import sequential_constants

        nl = Netlist("pi")
        a = nl.add_input("a", 1)[0]
        q = nl.new_net("q")
        nl.add(GateKind.DFF, [a], output=q, init=0)
        nl.set_output("y", [q])
        assert q not in sequential_constants(nl)

    def test_one_constant_among_live(self):
        """A stuck DFF gating live logic: the AND collapses to 0, the
        live counter path survives."""
        from repro.synth.optimize import sequential_constants

        nl = Netlist("mixed")
        a = nl.add_input("a", 1)[0]
        stuck, live = nl.new_net("stuck"), nl.new_net("live")
        nl.add(GateKind.DFF, [nl.add(GateKind.AND2, [stuck, a])],
               output=stuck, init=0)
        nl.add(GateKind.DFF, [nl.add(GateKind.INV, [live])],
               output=live, init=0)
        nl.set_output("y", [nl.add(GateKind.AND2, [stuck, live])])
        nl.set_output("z", [live])
        consts = sequential_constants(nl)
        assert consts.get(stuck) == "0" and live not in consts
        optimized = optimize_netlist(nl, validate="exhaustive")
        assert len(optimized.indices(GateKind.DFF)) == 1

    def test_init_one_constant(self):
        from repro.synth.optimize import sequential_constants

        nl = Netlist("hi")
        q = nl.new_net("q")
        nl.add(GateKind.DFF, [nl.add(GateKind.OR2, [q, q])],
               output=q, init=1)
        nl.set_output("y", [q])
        assert sequential_constants(nl).get(q) == "1"
