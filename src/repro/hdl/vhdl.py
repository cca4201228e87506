"""VHDL code generation (paper sections 5 and 6, Figures 7 and 8).

*"The writing of HDL is avoided through code generation from C++."*

Each timed component is translated to a synthesizable VHDL entity in the
classical two-process FSMD style: one combinational process holding the
FSM case statement and the datapath expressions, one clocked process for
the register update.  A structural top level instantiates the components
and wires the channels (the paper's "system linkage", Fig. 8).  Untimed
blocks (the high-level descriptions, e.g. RAM cells) become behavioural
stub entities unless they supply their own architecture via a
``vhdl_architecture`` attribute.

All values are represented as ``signed`` vectors; unsigned model formats
get one extra headroom bit so the signed representation is exact.  A small
support package supplies quantization (rounding/saturation/wrap), bit
slicing and multiplexing helpers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..fixpt import Fx, FxFormat, Overflow, Rounding
from ..core.elaborate import Elaboration, is_boundary, register_inventory
from ..core.errors import CodegenError
from ..core.process import TimedProcess, UntimedProcess
from ..core.signal import Sig
from ..core.system import System
from ..ir import IRBlock, PassManager, lower_expr, lower_sfg
from ..ir.formats import sig_fmt, vector_width
from .naming import NameScope, sanitize

PACKAGE_NAME = "repro_pkg"


def support_package() -> str:
    """The static VHDL support package used by all generated entities."""
    return f"""\
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package {PACKAGE_NAME} is
  function b2s(b : boolean) return signed;
  function pick(c : boolean; t : signed; f : signed) return signed;
  function bit_at(x : signed; i : natural; w : natural) return signed;
  function slice_u(x : signed; hi : natural; lo : natural; w : natural)
    return signed;
  function quantize(x : signed; shift : integer; w : natural;
                    rnd : boolean; sat : boolean) return signed;
end package {PACKAGE_NAME};

package body {PACKAGE_NAME} is

  function b2s(b : boolean) return signed is
  begin
    if b then
      return to_signed(1, 2);
    else
      return to_signed(0, 2);
    end if;
  end function;

  function pick(c : boolean; t : signed; f : signed) return signed is
  begin
    if c then
      return t;
    else
      return f;
    end if;
  end function;

  function bit_at(x : signed; i : natural; w : natural) return signed is
    variable r : signed(w - 1 downto 0) := (others => '0');
  begin
    if x(i) = '1' then
      r(0) := '1';
    end if;
    return r;
  end function;

  function slice_u(x : signed; hi : natural; lo : natural; w : natural)
    return signed is
    variable r : signed(w - 1 downto 0) := (others => '0');
  begin
    r(hi - lo downto 0) := signed(x(hi downto lo));
    r(w - 1) := '0';
    return r;
  end function;

  function quantize(x : signed; shift : integer; w : natural;
                    rnd : boolean; sat : boolean) return signed is
    variable wide : signed(x'length downto 0);
    variable shifted : signed(x'length downto 0);
    variable lo : signed(w - 1 downto 0);
    variable hi : signed(w - 1 downto 0);
  begin
    wide := resize(x, x'length + 1);
    if shift > 0 then
      if rnd then
        wide := wide + shift_left(to_signed(1, x'length + 1), shift - 1);
      end if;
      shifted := shift_right(wide, shift);
    elsif shift < 0 then
      shifted := shift_left(wide, -shift);
    else
      shifted := wide;
    end if;
    if sat then
      hi := (others => '1');
      hi(w - 1) := '0';
      lo := (others => '0');
      lo(w - 1) := '1';
      if shifted > resize(hi, x'length + 1) then
        return hi;
      elsif shifted < resize(lo, x'length + 1) then
        return lo;
      end if;
    end if;
    return resize(shifted, w);
  end function;

end package body {PACKAGE_NAME};
"""


class _BlockRefs:
    """Memoized rendering of one IR block at one emission site.

    Stores are rendered in block order, so binding a store's value id to
    the assigned variable makes every later reference read the variable
    instead of duplicating its expression text.
    """

    def __init__(self, block: IRBlock, render_op):
        self.block = block
        self.render_op = render_op
        self.memo: Dict[int, str] = {}

    def ref(self, vid: int) -> str:
        got = self.memo.get(vid)
        if got is None:
            got = self.render_op(self.block, self.block.ops[vid], self.ref)
            self.memo[vid] = got
        return got

    def bind(self, vid: int, text: str) -> None:
        self.memo[vid] = text


_VHDL_CMP = {"==": "=", "!=": "/=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_VHDL_BIT = {"band": "and", "bor": "or", "bxor": "xor"}


class _VhdlEmitter:
    """Renders lowered IR ops as VHDL ``signed`` expressions.

    The IR widths are safe upper bounds on each value, so resizing a
    rendered expression to an op's recorded width never loses bits.
    """

    def __init__(self, sig_name):
        self.sig_name = sig_name  # Sig -> VHDL identifier

    def refs(self, block: IRBlock) -> _BlockRefs:
        return _BlockRefs(block, self.render_op)

    def render_op(self, block: IRBlock, op, ref) -> str:
        code = op.opcode
        a = op.args
        width = op.width
        if code == "const":
            return f"to_signed({op.attrs[0]}, {width})"
        if code == "read":
            return self.sig_name(op.attrs[0])
        if code in ("add", "sub"):
            la = f"resize({ref(a[0])}, {width})"
            ra = f"resize({ref(a[1])}, {width})"
            return f"({la} {'+' if code == 'add' else '-'} {ra})"
        if code == "mul":
            return f"({ref(a[0])} * {ref(a[1])})"
        if code == "neg":
            return f"(- resize({ref(a[0])}, {width}))"
        if code == "abs":
            return f"(abs resize({ref(a[0])}, {width}))"
        if code == "shl":
            bits = op.attrs[0]
            return f"shift_left(resize({ref(a[0])}, {width}), {bits})"
        if code == "ashr":
            return f"shift_right({ref(a[0])}, {op.attrs[0]})"
        if code == "retag":
            return ref(a[0])
        if code == "cmp":
            return f"b2s({ref(a[0])} {_VHDL_CMP[op.attrs[0]]} {ref(a[1])})"
        if code in _VHDL_BIT:
            la = f"resize({ref(a[0])}, {width})"
            ra = f"resize({ref(a[1])}, {width})"
            return f"({la} {_VHDL_BIT[code]} {ra})"
        if code == "bnot":
            return f"(not {ref(a[0])})"
        if code == "mux":
            ta = f"resize({ref(a[1])}, {width})"
            fa = f"resize({ref(a[2])}, {width})"
            return f"pick({ref(a[0])} /= 0, {ta}, {fa})"
        if code == "bitsel":
            index = op.attrs[0]
            need = max(block.ops[a[0]].width, index + 1)
            return f"bit_at(resize({ref(a[0])}, {need}), {index}, 2)"
        if code == "slice":
            hi, lo = op.attrs
            need = max(block.ops[a[0]].width, hi + 1)
            return (f"slice_u(resize({ref(a[0])}, {need}), {hi}, {lo}, "
                    f"{width})")
        if code == "concat":
            parts = [
                f"std_logic_vector(resize({ref(vid)}, {part_width}))"
                for vid, part_width in zip(a, op.attrs)
            ]
            joined = " & ".join(parts)
            return f"resize(signed('0' & ({joined})), {width})"
        if code == "quantize":
            fmt = op.attrs[0]
            shift = block.ops[a[0]].frac - fmt.frac_bits
            rnd = "true" if fmt.rounding is Rounding.ROUND else "false"
            sat = "true" if fmt.overflow is Overflow.SATURATE else "false"
            return f"quantize({ref(a[0])}, {shift}, {width}, {rnd}, {sat})"
        raise CodegenError(f"cannot translate IR opcode {code!r} to VHDL")


class VhdlGenerator:
    """Generates VHDL for a whole system: package, entities, top level."""

    def __init__(self, system: System, passes=None, validate: str = "off"):
        self.system = system
        self.elaboration = Elaboration(system)
        #: The IR pass pipeline run over every lowered block before
        #: emission: ``passes`` names it (``()`` emits the naive
        #: lowering) and ``validate`` turns on translation validation
        #: of each application.
        self.pass_manager = PassManager(
            "default" if passes is None else passes, validate=validate)
        #: Per-pass statistics across every generated block.
        self.pass_stats = self.pass_manager.stats

    def generate(self) -> Dict[str, str]:
        """Return a mapping of file name to VHDL source."""
        files: Dict[str, str] = {f"{PACKAGE_NAME}.vhd": support_package()}
        for process in self.system.timed_processes():
            name = sanitize(process.name)
            files[f"{name}.vhd"] = self.component(process)
        for process in self.system.untimed_processes():
            name = sanitize(process.name)
            files[f"{name}.vhd"] = self.untimed_stub(process)
        files[f"{sanitize(self.system.name)}_top.vhd"] = self.top_level()
        return files

    # -- per-component entity -----------------------------------------------------

    def component(self, process: TimedProcess) -> str:
        """Generate one entity: two-process (comb + seq) FSMD VHDL."""
        scope = NameScope()
        name = sanitize(process.name)
        lines: List[str] = []
        emit = lines.append

        # Collect structure.
        all_sfgs = process.all_sfgs()
        registers = list(register_inventory([process]))
        port_sigs = {port.sig for port in process.ports.values()}
        # Every non-register target gets a process variable; output-port
        # targets additionally drive their port from that variable, so that
        # other assignments can read the value.
        internal: List[Sig] = []
        for sfg in all_sfgs:
            for assignment in sfg.assignments:
                target = assignment.target
                if not target.is_register() and target not in internal:
                    internal.append(target)

        sig_names: Dict[int, str] = {}
        # Reserve entity port names first, and map input-port signals to
        # their port so reads inside SFGs reference the entity port.
        scope.name(object(), "clk")
        scope.name(object(), "rst")
        for port in process.ports.values():
            port_id = scope.name(port, port.name)
            if port.direction == "in":
                sig_names[id(port.sig)] = port_id

        def sig_name(sig: Sig) -> str:
            got = sig_names.get(id(sig))
            if got is None:
                got = scope.name(sig, sig.name)
                sig_names[id(sig)] = got
            return got

        emitter = _VhdlEmitter(sig_name)
        block_cache: Dict[int, IRBlock] = {}

        def lowered(sfg) -> IRBlock:
            block = block_cache.get(id(sfg))
            if block is None:
                block = self.pass_manager.run(
                    lower_sfg(sfg, require_formats=True))
                block_cache[id(sfg)] = block
            return block

        emit("library ieee;")
        emit("use ieee.std_logic_1164.all;")
        emit("use ieee.numeric_std.all;")
        emit(f"use work.{PACKAGE_NAME}.all;")
        emit("")
        emit(f"entity {name} is")
        emit("  port (")
        port_lines = ["    clk : in std_logic;", "    rst : in std_logic;"]
        for port in process.ports.values():
            fmt = sig_fmt(port.sig)
            width = vector_width(fmt)
            direction = "in" if port.direction == "in" else "out"
            port_lines.append(
                f"    {scope.name(port, port.name)} : {direction} "
                f"signed({width - 1} downto 0);"
            )
        port_lines[-1] = port_lines[-1].rstrip(";")
        lines.extend(port_lines)
        emit("  );")
        emit(f"end entity {name};")
        emit("")
        emit(f"architecture rtl of {name} is")

        fsm = process.fsm
        if fsm is not None:
            states = ", ".join(f"st_{sanitize(s.name)}" for s in fsm.states)
            emit(f"  type state_t is ({states});")
            emit(f"  signal state, state_next : state_t := "
                 f"st_{sanitize(fsm.initial_state.name)};")
        for reg in registers:
            fmt = sig_fmt(reg)
            width = vector_width(fmt)
            reg_id = sig_name(reg)
            init = reg.init.raw if isinstance(reg.init, Fx) else int(reg.init)
            emit(f"  signal {reg_id}, {reg_id}_next : "
                 f"signed({width - 1} downto 0) := to_signed({init}, {width});")
        emit("begin")
        emit("")
        emit("  -- combinational process: FSM transitions + datapath SFGs")
        emit("  comb : process (all)")
        for sig in internal:
            fmt = sig_fmt(sig)
            width = vector_width(fmt)
            emit(f"    variable {sig_name(sig)} : signed({width - 1} downto 0);")
        emit("  begin")
        if fsm is not None:
            emit("    state_next <= state;")
        for reg in registers:
            reg_id = sig_name(reg)
            emit(f"    {reg_id}_next <= {reg_id};")
        for port in process.out_ports():
            if not port.sig.is_register():
                fmt = sig_fmt(port.sig)
                width = vector_width(fmt)
                emit(f"    {scope.name(port, port.name)} <= to_signed(0, {width});")
        emit("")

        def emit_sfg(sfg, indent: str) -> None:
            block = lowered(sfg)
            refs = emitter.refs(block)
            for store in block.stores:
                target = store.target
                qcode = refs.ref(store.value)
                if target.is_register():
                    emit(f"{indent}{sig_name(target)}_next <= {qcode};")
                else:
                    emit(f"{indent}{sig_name(target)} := {qcode};")
                    refs.bind(store.value, sig_name(target))
                    if target in port_sigs:
                        out_port = next(p for p in process.out_ports()
                                        if p.sig is target)
                        emit(f"{indent}{scope.name(out_port, out_port.name)} <= "
                             f"{sig_name(target)};")

        for sfg in process.static_sfgs:
            emit(f"    -- static SFG {sfg.name}")
            emit_sfg(sfg, "    ")
        if fsm is not None:
            emit("    case state is")
            for state in fsm.states:
                emit(f"      when st_{sanitize(state.name)} =>")
                transitions = [
                    t for t in state.transitions
                    if not (t.condition.expr is None and t.condition.negated)
                ]

                def emit_body(transition, indent):
                    emit(f"{indent}state_next <= "
                         f"st_{sanitize(transition.target.name)};")
                    for sfg in transition.sfgs:
                        emit(f"{indent}-- SFG {sfg.name}")
                        emit_sfg(sfg, indent)

                opened = False
                for index, transition in enumerate(transitions):
                    condition = transition.condition
                    if condition.is_always():
                        if index == 0:
                            emit_body(transition, "        ")
                        else:
                            emit("        else")
                            emit_body(transition, "          ")
                        break
                    cond_block = self.pass_manager.run(lower_expr(
                        condition.expr, require_formats=True))
                    code = emitter.refs(cond_block).ref(cond_block.roots[0])
                    test = f"{code} /= 0"
                    if condition.negated:
                        test = f"not ({test})"
                    emit(f"        {'if' if index == 0 else 'elsif'} "
                         f"{test} then")
                    opened = True
                    emit_body(transition, "          ")
                if opened:
                    emit("        end if;")
            emit("    end case;")
        emit("  end process comb;")
        emit("")
        emit("  -- register update process")
        emit("  seq : process (clk, rst)")
        emit("  begin")
        emit("    if rst = '1' then")
        if fsm is not None:
            emit(f"      state <= st_{sanitize(fsm.initial_state.name)};")
        for reg in registers:
            fmt = sig_fmt(reg)
            width = vector_width(fmt)
            init = reg.init.raw if isinstance(reg.init, Fx) else int(reg.init)
            emit(f"      {sig_name(reg)} <= to_signed({init}, {width});")
        emit("    elsif rising_edge(clk) then")
        if fsm is not None:
            emit("      state <= state_next;")
        for reg in registers:
            reg_id = sig_name(reg)
            emit(f"      {reg_id} <= {reg_id}_next;")
        emit("    end if;")
        emit("  end process seq;")
        emit("")
        # Register-bound output ports are driven continuously.
        for port in process.out_ports():
            if port.sig.is_register():
                emit(f"  {scope.name(port, port.name)} <= {sig_name(port.sig)};")
        emit("")
        emit(f"end architecture rtl;")
        return "\n".join(lines) + "\n"

    # -- untimed stubs ---------------------------------------------------------------

    def untimed_stub(self, process: UntimedProcess) -> str:
        """Entity shell for a high-level (untimed) block, e.g. a RAM."""
        name = sanitize(process.name)
        custom = getattr(process, "vhdl_architecture", None)
        lines = [
            "library ieee;",
            "use ieee.std_logic_1164.all;",
            "use ieee.numeric_std.all;",
            f"use work.{PACKAGE_NAME}.all;",
            "",
            f"-- High-level (untimed) component {process.name!r}.",
            "-- The programming environment simulates this block behaviourally;",
            "-- supply an implementation before synthesis.",
            f"entity {name} is",
            "  port (",
            "    clk : in std_logic;",
            "    rst : in std_logic;",
        ]
        ports = []
        for port in process.ports.values():
            width = self.net_width(port.channel)
            direction = "in" if port.direction == "in" else "out"
            ports.append(
                f"    {sanitize(port.name)} : {direction} "
                f"signed({width - 1} downto 0);"
            )
        if ports:
            ports[-1] = ports[-1].rstrip(";")
        lines.extend(ports)
        lines.append("  );")
        lines.append(f"end entity {name};")
        lines.append("")
        if custom is not None:
            lines.append(custom() if callable(custom) else str(custom))
        else:
            lines.extend([
                f"architecture behavioural of {name} is",
                "begin",
                "  -- behaviour intentionally left to the implementer",
                f"end architecture behavioural;",
            ])
        return "\n".join(lines) + "\n"

    # -- structural top ---------------------------------------------------------------

    def net_width(self, chan) -> int:
        """Bits of *chan*'s net (32 unconnected or unformatted): its
        timed producer's format, else its consumers' one format."""
        fmts = self.elaboration.formats.get(chan, [])
        timed = chan is not None and not is_boundary(chan)
        if len(fmts) > (0 if timed else 1):
            raise CodegenError(
                f"channel {chan.name!r} is converted into another format; "
                "its net has one width")
        if timed:
            fmts = [chan.producer.sig.fmt]
        return vector_width(fmts[0]) if fmts and fmts[0] else 32

    def top_level(self) -> str:
        """The structural system linkage: instances + channel nets."""
        system = self.system
        name = f"{sanitize(system.name)}_top"
        lines: List[str] = [
            "library ieee;",
            "use ieee.std_logic_1164.all;",
            "use ieee.numeric_std.all;",
            f"use work.{PACKAGE_NAME}.all;",
            "",
            f"entity {name} is",
            "  port (",
            "    clk : in std_logic;",
            "    rst : in std_logic;",
        ]
        # Primary inputs (producer-less channels) and unread outputs.
        externals: List[str] = []
        for chan in system.channels:
            width = self.net_width(chan)
            if chan.producer is None:
                externals.append(
                    f"    {sanitize(chan.name)} : in "
                    f"signed({width - 1} downto 0);"
                )
            elif not chan.consumers:
                externals.append(
                    f"    {sanitize(chan.name)} : out "
                    f"signed({width - 1} downto 0);"
                )
        if externals:
            externals[-1] = externals[-1].rstrip(";")
        else:
            lines[-1] = lines[-1].rstrip(";")
        lines.extend(externals)
        lines.append("  );")
        lines.append(f"end entity {name};")
        lines.append("")
        lines.append(f"architecture structural of {name} is")
        for chan in system.channels:
            if chan.producer is not None and chan.consumers:
                width = self.net_width(chan)
                lines.append(
                    f"  signal net_{sanitize(chan.name)} : "
                    f"signed({width - 1} downto 0);"
                )
        lines.append("begin")
        for process in system.processes:
            inst = sanitize(process.name)
            lines.append(f"  u_{inst} : entity work.{inst}")
            lines.append("    port map (")
            maps = ["      clk => clk,", "      rst => rst,"]
            for port in process.ports.values():
                chan = port.channel
                if chan is None:
                    maps.append(f"      {sanitize(port.name)} => open,")
                    continue
                if chan.producer is None:
                    maps.append(
                        f"      {sanitize(port.name)} => {sanitize(chan.name)},"
                    )
                elif not chan.consumers:
                    maps.append(
                        f"      {sanitize(port.name)} => {sanitize(chan.name)},"
                    )
                else:
                    maps.append(
                        f"      {sanitize(port.name)} => net_{sanitize(chan.name)},"
                    )
            maps[-1] = maps[-1].rstrip(",")
            lines.extend(maps)
            lines.append("    );")
        lines.append(f"end architecture structural;")
        return "\n".join(lines) + "\n"


def generate_vhdl(system: System, passes=None,
                  validate: str = "off") -> Dict[str, str]:
    """Convenience wrapper: generate all VHDL files for *system*."""
    return VhdlGenerator(system, passes=passes, validate=validate).generate()


def line_count(files: Dict[str, str]) -> int:
    """Total non-blank source lines across generated files (Table 1)."""
    return sum(
        1
        for content in files.values()
        for line in content.splitlines()
        if line.strip()
    )
