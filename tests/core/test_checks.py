"""The paper's semantic checks (dangling input, dead code, FSM lints) on
the core model, run through :class:`repro.lint.Linter`."""

from repro.core import (
    BOOL,
    FSM,
    SFG,
    Clock,
    Register,
    Sig,
    always,
    cnd,
    TimedProcess,
    System,
)
from repro.fixpt import FxFormat
from repro.lint import Linter

F = FxFormat(8, 4)


def names(diagnostics):
    return {d.name for d in diagnostics}


class TestSfgChecks:
    def test_clean_sfg(self):
        a, y = Sig("a", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a).out(y)
        assert Linter().lint_sfg(sfg) == []

    def test_dangling_input(self):
        a, b, y = Sig("a", F), Sig("b", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a, b).out(y)
        assert "dangling-input" in names(Linter().lint_sfg(sfg))

    def test_undriven_signal(self):
        ghost, y = Sig("ghost", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= ghost + 1
        sfg.out(y)
        assert "undriven-signal" in names(Linter().lint_sfg(sfg))

    def test_dead_code(self):
        a, y, dead = Sig("a", F), Sig("y", F), Sig("dead", F)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
            dead <<= a * 2  # feeds nothing
        sfg.inp(a).out(y)
        assert "dead-code" in names(Linter().lint_sfg(sfg))

    def test_intermediate_is_not_dead(self):
        a, mid, y = Sig("a", F), Sig("mid", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            mid <<= a * 2
            y <<= mid + 1
        sfg.inp(a).out(y)
        assert "dead-code" not in names(Linter().lint_sfg(sfg))

    def test_feeding_register_is_not_dead(self):
        clk = Clock()
        r = Register("r", clk, F)
        a, mid = Sig("a", F), Sig("mid", F)
        sfg = SFG("t")
        with sfg:
            mid <<= a * 2
            r <<= mid
        sfg.inp(a)
        assert "dead-code" not in names(Linter().lint_sfg(sfg))

    def test_driven_input_is_error(self):
        a, y = Sig("a", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            a <<= y + 1
        sfg.inp(a)
        assert "driven-input" in names(Linter().lint_sfg(sfg))

    def test_undriven_output(self):
        y = Sig("y", F)
        sfg = SFG("t").out(y)
        assert "undriven-output" in names(Linter().lint_sfg(sfg))

    def test_register_output_needs_no_driver(self):
        clk = Clock()
        r = Register("r", clk, F)
        sfg = SFG("t").out(r)
        assert "undriven-output" not in names(Linter().lint_sfg(sfg))

    def test_combinational_loop_reported(self):
        x, y = Sig("x", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            x <<= y + 1
            y <<= x + 1
        sfg.out(y)
        assert "combinational-loop" in names(Linter().lint_sfg(sfg))


class TestFsmChecks:
    def test_clean_fsm(self):
        clk = Clock()
        go = Register("go", clk, BOOL)
        f = FSM("f")
        s0 = f.initial("s0")
        s1 = f.state("s1")
        s0 << cnd(go) << s1
        s0 << ~cnd(go) << s0
        s1 << always << s0
        assert Linter().lint_fsm(f) == []

    def test_unreachable_state(self):
        f = FSM("f")
        s0 = f.initial("s0")
        f.state("island")
        s0 << always << s0
        assert "unreachable-state" in names(Linter().lint_fsm(f))

    def test_stuck_state(self):
        f = FSM("f")
        s0 = f.initial("s0")
        s1 = f.state("s1")
        s0 << always << s1
        assert "stuck-state" in names(Linter().lint_fsm(f))

    def test_shadowed_transition(self):
        clk = Clock()
        go = Register("go", clk, BOOL)
        f = FSM("f")
        s0 = f.initial("s0")
        s0 << always << s0
        s0 << cnd(go) << s0  # can never fire
        assert "shadowed-transition" in names(Linter().lint_fsm(f))

    def test_condition_must_read_registers(self):
        pin = Sig("pin", BOOL)  # NOT a register
        f = FSM("f")
        s0 = f.initial("s0")
        s0 << cnd(pin) << s0
        s0 << always << s0
        assert "unregistered-condition" in names(Linter().lint_fsm(f))

    def test_empty_fsm(self):
        assert "no-initial-state" in names(Linter().lint_fsm(FSM("f")))


class TestSystemChecks:
    def test_unconnected_port_warned(self):
        clk = Clock()
        a, y = Sig("a", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a).out(y)
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_input("a", a)
        p.add_output("y", y)
        system = System("s")
        system.add(p)
        assert "unconnected-port" in names(Linter().lint_system(system))

    def test_system_check_recurses_into_sfgs(self):
        clk = Clock()
        ghost, y = Sig("ghost", F), Sig("y", F)
        sfg = SFG("t")
        with sfg:
            y <<= ghost + 1
        sfg.out(y)
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_output("y", y)
        system = System("s")
        system.add(p)
        system.connect(p.port("y"))
        assert "undriven-signal" in names(Linter().lint_system(system))
