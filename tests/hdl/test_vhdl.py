"""Tests for VHDL generation: structure, naming, and code-size claims."""

import pytest

from repro.core import SFG, Clock, CodegenError, Register, Sig, System, TimedProcess
from repro.fixpt import FxFormat
from repro.hdl import generate_vhdl, line_count, sanitize, support_package
from repro.hdl.vhdl import VhdlGenerator, vector_width

from tests.conftest import build_hold_system, build_loop_system

W = FxFormat(16, 16)


def balanced(text: str) -> bool:
    return text.count("(") == text.count(")")


class TestNaming:
    def test_sanitize_specials(self):
        assert sanitize("a.b-c") == "a_b_c"
        assert sanitize("3x") == "s_3x"
        assert sanitize("") == "sig"

    def test_sanitize_reserved(self):
        assert sanitize("signal") == "signal_x"
        assert sanitize("process") == "process_x"

    def test_sanitize_no_double_underscore(self):
        assert "__" not in sanitize("a__b")
        assert not sanitize("_x_").startswith("_")


class TestVectorWidth:
    def test_signed_is_wl(self):
        assert vector_width(FxFormat(8, 4)) == 8

    def test_unsigned_gets_headroom_bit(self):
        assert vector_width(FxFormat(8, 8, signed=False)) == 9


class TestGeneratedStructure:
    @pytest.fixture
    def files(self):
        system, _pin, _out, _count, _fsm = build_hold_system()
        return generate_vhdl(system)

    def test_package_emitted(self, files):
        assert "repro_pkg.vhd" in files
        assert "package repro_pkg is" in files["repro_pkg.vhd"]

    def test_entity_per_component(self, files):
        assert "ctl.vhd" in files
        assert "entity ctl is" in files["ctl.vhd"]
        assert "architecture rtl of ctl" in files["ctl.vhd"]

    def test_two_process_style(self, files):
        source = files["ctl.vhd"]
        assert "comb : process" in source
        assert "seq : process (clk, rst)" in source
        assert "rising_edge(clk)" in source

    def test_fsm_becomes_case_statement(self, files):
        source = files["ctl.vhd"]
        assert "type state_t is (st_execute, st_hold)" in source
        assert "case state is" in source
        assert "when st_execute =>" in source
        assert "when st_hold =>" in source

    def test_registers_get_next_signals(self, files):
        source = files["ctl.vhd"]
        assert "count, count_next" in source
        assert "count <= count_next;" in source

    def test_internal_register_does_not_shadow_port(self, files):
        source = files["ctl.vhd"]
        # The 'req' register was renamed away from the 'req' port.
        assert "signal req, req_next" not in source

    def test_top_level_structural(self, files):
        top = files["hold_sys_top.vhd"]
        assert "entity hold_sys_top" in top
        assert "u_ctl : entity work.ctl" in top
        assert "port map" in top

    def test_balanced_parentheses(self, files):
        for name, source in files.items():
            assert balanced(source), name

    def test_untimed_block_gets_stub(self):
        system, _chans, _reg = build_loop_system()
        files = generate_vhdl(system)
        assert "ram.vhd" in files
        assert "High-level (untimed) component" in files["ram.vhd"]

    def test_missing_format_is_error(self):
        clk = Clock()
        a, y = Sig("a"), Sig("y")  # no formats
        sfg = SFG("t")
        with sfg:
            y <<= a + 1
        sfg.inp(a).out(y)
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_input("a", a)
        p.add_output("y", y)
        system = System("s")
        system.add(p)
        system.connect(None, p.port("a"), name="a")
        system.connect(p.port("y"))
        with pytest.raises(CodegenError):
            generate_vhdl(system)


    @pytest.mark.parametrize("producer", ["timed", "pin"])
    def test_channel_read_in_another_format_is_error(self, producer):
        """One net cannot carry a value in two widths: a timed channel
        into a consumer of another format, or a pin read in two."""
        clk = Clock()
        system = System("s")
        wide, narrow = FxFormat(12, 6), FxFormat(5, 3)
        fmts = [narrow] if producer == "timed" else [wide, narrow]
        readers = []
        for index, fmt in enumerate(fmts):
            x, acc = Sig(f"x{index}", fmt), Register(f"acc{index}", clk, W)
            sfg = SFG(f"r{index}")
            with sfg:
                acc <<= x
            sfg.inp(x)
            p = TimedProcess(f"r{index}", clk, sfgs=[sfg])
            p.add_input("x", x)
            p.add_output("acc", acc)
            system.add(p)
            system.connect(p.port("acc"))
            readers.append(p.port("x"))
        if producer == "pin":
            system.connect(None, *readers, name="u")
        else:
            a, y = Sig("a", wide), Sig("y", wide)
            sfg = SFG("t")
            with sfg:
                y <<= a
            sfg.inp(a).out(y)
            p = TimedProcess("p", clk, sfgs=[sfg])
            p.add_input("a", a)
            p.add_output("y", y)
            system.add(p)
            system.connect(None, p.port("a"), name="a")
            system.connect(p.port("y"), *readers, name="u")
        with pytest.raises(CodegenError, match="channel 'u'"):
            generate_vhdl(system)


class TestCodeSizeClaim:
    def test_python_source_more_compact_than_vhdl(self):
        """Section 5: the C++ model is ~5x more compact than RT-VHDL.

        Here: the Python description of the hold controller is much
        shorter than its generated VHDL.
        """
        import inspect

        from tests import conftest

        python_lines = len([
            line
            for line in inspect.getsource(conftest.build_hold_system).splitlines()
            if line.strip() and not line.strip().startswith("#")
        ])
        system, _pin, _out, _count, _fsm = build_hold_system()
        vhdl_lines = line_count(generate_vhdl(system))
        assert vhdl_lines > 3 * python_lines


class TestExpressionTranslation:
    def _gen_for(self, build_expr, fmt_in=W, fmt_out=W):
        clk = Clock()
        x = Sig("x", fmt_in)
        y = Sig("y", fmt_out)
        r = Register("r", clk, fmt_in)
        sfg = SFG("s")
        with sfg:
            y <<= build_expr(x, r)
            r <<= x
        sfg.inp(x).out(y)
        p = TimedProcess("p", clk, sfgs=[sfg])
        p.add_input("x", x)
        p.add_output("y", y)
        system = System("sys")
        system.add(p)
        system.connect(None, p.port("x"), name="x")
        system.connect(p.port("y"))
        return generate_vhdl(system)["p.vhd"]

    def test_mul_resizes(self):
        source = self._gen_for(lambda x, r: x * r)
        assert "*" in source

    def test_mux_uses_pick(self):
        from repro.core import gt, mux

        source = self._gen_for(lambda x, r: mux(gt(x, 0), x, r))
        assert "pick(" in source

    def test_comparison_uses_b2s(self):
        from repro.core import eq

        source = self._gen_for(lambda x, r: eq(x, r),
                               fmt_out=FxFormat(1, 1, signed=False))
        assert "b2s(" in source

    def test_bit_select(self):
        from repro.core import bit

        source = self._gen_for(lambda x, r: bit(x, 3),
                               fmt_out=FxFormat(1, 1, signed=False))
        assert "bit_at(" in source

    def test_quantize_on_every_boundary(self):
        source = self._gen_for(lambda x, r: x + r)
        assert "quantize(" in source
