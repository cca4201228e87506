"""Verilog code generation.

A second HDL back-end (Table 1 also quotes Verilog netlist results).  The
Verilog generator takes a simpler route than the VHDL one: each module
computes in a uniform wide signed precision covering every lowered IR
value of the component and quantizes to each target's width with
explicit shift/clamp expressions.  Structure is the same
two-always-block FSMD style.

Both generators consume the same lowered IR (:mod:`repro.ir`); the
width of every intermediate comes straight from the IR ops, so ``wide``
is exact instead of the old leaf-width heuristic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..fixpt import Fx, FxFormat, Overflow, Rounding
from ..core.elaborate import register_inventory
from ..core.errors import CodegenError
from ..core.process import TimedProcess, UntimedProcess
from ..core.signal import Sig
from ..core.system import System
from ..ir import IRBlock, PassManager, lower_expr, lower_sfg
from ..ir.formats import sig_fmt, vector_width
from .naming import NameScope, sanitize
from .vhdl import _BlockRefs

_V_BIT = {"band": "&", "bor": "|", "bxor": "^"}


class _VerilogEmitter:
    """Renders lowered IR ops as wide signed Verilog expressions.

    Every value is a ``wide``-bit signed expression; the IR carries the
    binary-point bookkeeping, so rendering is purely syntactic.
    """

    def __init__(self, sig_name, wide: int):
        self.sig_name = sig_name
        self.wide = wide

    def refs(self, block: IRBlock) -> _BlockRefs:
        return _BlockRefs(block, self.render_op)

    def _lit(self, raw: int) -> str:
        if raw < 0:
            return f"(-{self.wide}'sd{-raw})"
        return f"{self.wide}'sd{raw}"

    def _fold(self, code: str, wl: int, signed: bool) -> str:
        if not signed:
            return code
        half = 1 << (wl - 1)
        span = 1 << wl
        return (f"(({code} >= {self.wide}'sd{half}) ? "
                f"({code} - {self.wide}'sd{span}) : ({code}))")

    def render_op(self, block: IRBlock, op, ref) -> str:
        code = op.opcode
        a = op.args
        if code == "const":
            return self._lit(op.attrs[0])
        if code == "read":
            return self.sig_name(op.attrs[0])
        if code in ("add", "sub"):
            return f"({ref(a[0])} {'+' if code == 'add' else '-'} {ref(a[1])})"
        if code == "mul":
            return f"({ref(a[0])} * {ref(a[1])})"
        if code == "neg":
            return f"(-{ref(a[0])})"
        if code == "abs":
            arg = ref(a[0])
            return f"(({arg} < 0) ? -({arg}) : ({arg}))"
        if code == "shl":
            return f"({ref(a[0])} <<< {op.attrs[0]})"
        if code == "ashr":
            return f"({ref(a[0])} >>> {op.attrs[0]})"
        if code == "retag":
            return ref(a[0])
        if code == "cmp":
            return (f"(({ref(a[0])} {op.attrs[0]} {ref(a[1])}) ? "
                    f"{self.wide}'sd1 : {self.wide}'sd0)")
        if code in _V_BIT:
            wl, signed = op.attrs
            mask = f"{self.wide}'sd{(1 << wl) - 1}"
            body = (f"((({ref(a[0])} & {mask}) {_V_BIT[code]} "
                    f"({ref(a[1])} & {mask})))")
            return self._fold(body, wl, signed)
        if code == "bnot":
            wl, signed = op.attrs
            mask = (1 << wl) - 1
            return self._fold(
                f"((~{ref(a[0])}) & {self.wide}'sd{mask})", wl, signed)
        if code == "mux":
            return (f"(({ref(a[0])} != 0) ? {ref(a[1])} : {ref(a[2])})")
        if code == "bitsel":
            return f"(({ref(a[0])} >>> {op.attrs[0]}) & {self.wide}'sd1)"
        if code == "slice":
            hi, lo = op.attrs
            mask = (1 << (hi - lo + 1)) - 1
            return f"(({ref(a[0])} >>> {lo}) & {self.wide}'sd{mask})"
        if code == "concat":
            pieces = []
            shift = 0
            for vid, part_width in zip(reversed(a), reversed(op.attrs)):
                mask = (1 << part_width) - 1
                piece = f"(({ref(vid)} & {self.wide}'sd{mask}) << {shift})"
                pieces.append(piece)
                shift += part_width
            return "(" + " | ".join(pieces) + ")"
        if code == "quantize":
            src_frac = block.ops[a[0]].frac
            return self.quantize(ref(a[0]), src_frac, op.attrs[0])
        raise CodegenError(f"cannot translate IR opcode {code!r} to Verilog")

    def quantize(self, code: str, frac: int, fmt: FxFormat) -> str:
        shift = frac - fmt.frac_bits
        if shift > 0:
            if fmt.rounding is Rounding.ROUND:
                code = f"(({code} + {self.wide}'sd{1 << (shift - 1)}) >>> {shift})"
            else:
                code = f"({code} >>> {shift})"
        elif shift < 0:
            code = f"({code} <<< {-shift})"
        lo, hi = fmt.raw_min, fmt.raw_max
        if fmt.overflow is Overflow.SATURATE:
            lo_lit = f"-{self.wide}'sd{-lo}" if lo < 0 else f"{self.wide}'sd{lo}"
            return (f"(({code} > {self.wide}'sd{hi}) ? {self.wide}'sd{hi} : "
                    f"(({code} < {lo_lit}) ? ({lo_lit}) : ({code})))")
        mask = (1 << fmt.wl) - 1
        masked = f"({code} & {self.wide}'sd{mask})"
        return self._fold(masked, fmt.wl, fmt.signed)


class VerilogGenerator:
    """Generates Verilog modules for a system's timed components."""

    def __init__(self, system: System, passes=None, validate: str = "off"):
        self.system = system
        #: The IR pass pipeline run over every lowered block before
        #: emission: ``passes`` names it (``()`` emits the naive
        #: lowering) and ``validate`` turns on translation validation
        #: of each application.
        self.pass_manager = PassManager(
            "default" if passes is None else passes, validate=validate)
        #: Per-pass statistics across every generated block.
        self.pass_stats = self.pass_manager.stats

    def generate(self) -> Dict[str, str]:
        """Return a mapping of file name to Verilog source."""
        files: Dict[str, str] = {}
        for process in self.system.timed_processes():
            name = sanitize(process.name)
            files[f"{name}.v"] = self.component(process)
        return files

    def component(self, process: TimedProcess) -> str:
        """Generate one module: two-always-block FSMD Verilog."""
        scope = NameScope()
        name = sanitize(process.name)
        all_sfgs = process.all_sfgs()
        fsm = process.fsm

        registers = list(register_inventory([process]))

        # Lower (and optimize) every SFG and FSM guard up front; the
        # module-wide precision is the exact maximum over all IR values.
        sfg_blocks: Dict[int, IRBlock] = {}
        for sfg in all_sfgs:
            sfg_blocks[id(sfg)] = self.pass_manager.run(
                lower_sfg(sfg, require_formats=True))
        cond_blocks: Dict[int, IRBlock] = {}
        if fsm is not None:
            for state in fsm.states:
                for transition in state.transitions:
                    expr = transition.condition.expr
                    if expr is not None and id(expr) not in cond_blocks:
                        cond_blocks[id(expr)] = self.pass_manager.run(
                            lower_expr(expr, require_formats=True))

        widths = [2]
        for block in list(sfg_blocks.values()) + list(cond_blocks.values()):
            widths.extend(op.width for op in block.ops)
        for port in process.ports.values():
            widths.append(vector_width(sig_fmt(port.sig)))
        wide = max(widths) + 2

        names: Dict[int, str] = {}
        # Reserve module port names first and map input-port signals to
        # their port identifier so SFG reads reference the module port.
        scope.name(object(), "clk")
        scope.name(object(), "rst")
        for port in process.ports.values():
            port_id = scope.name(port, port.name)
            if port.direction == "in":
                names[id(port.sig)] = port_id

        def sig_name(sig: Sig) -> str:
            got = names.get(id(sig))
            if got is None:
                suffix = "_q" if sig.is_register() else ""
                got = scope.name(sig, sig.name + suffix)
                names[id(sig)] = got
            return got

        emitter = _VerilogEmitter(sig_name, wide)

        lines: List[str] = []
        emit = lines.append
        emit(f"module {name} (")
        port_decls = ["  input wire clk,", "  input wire rst,"]
        for port in process.ports.values():
            width = vector_width(sig_fmt(port.sig))
            direction = "input" if port.direction == "in" else "output"
            kind = "wire" if port.direction == "in" else "reg"
            port_decls.append(
                f"  {direction} {kind} signed [{width - 1}:0] "
                f"{scope.name(port, port.name)},"
            )
        port_decls[-1] = port_decls[-1].rstrip(",")
        lines.extend(port_decls)
        emit(");")
        emit("")

        if fsm is not None:
            for index, state in enumerate(fsm.states):
                emit(f"  localparam ST_{sanitize(state.name).upper()} = {index};")
            emit(f"  reg [15:0] state, state_next;")
        for reg in registers:
            emit(f"  reg signed [{wide - 1}:0] {sig_name(reg)}, "
                 f"{sig_name(reg)}_next;")
        internal: List[Sig] = []
        port_sigs = {port.sig for port in process.ports.values()}
        for sfg in all_sfgs:
            for assignment in sfg.assignments:
                target = assignment.target
                if not target.is_register() and target not in internal:
                    internal.append(target)
        for sig in internal:
            emit(f"  reg signed [{wide - 1}:0] {sig_name(sig)};")
        emit("")

        def emit_sfg(sfg, indent: str) -> None:
            block = sfg_blocks[id(sfg)]
            refs = emitter.refs(block)
            for store in block.stores:
                target = store.target
                qcode = refs.ref(store.value)
                if target.is_register():
                    emit(f"{indent}{sig_name(target)}_next = {qcode};")
                else:
                    emit(f"{indent}{sig_name(target)} = {qcode};")
                    refs.bind(store.value, sig_name(target))
                    if target in port_sigs:
                        out_port = next(p for p in process.out_ports()
                                        if p.sig is target)
                        width = vector_width(sig_fmt(target))
                        emit(f"{indent}{scope.name(out_port, out_port.name)} = "
                             f"{sig_name(target)}[{width - 1}:0];")

        emit("  always @* begin")
        if fsm is not None:
            emit("    state_next = state;")
        for reg in registers:
            emit(f"    {sig_name(reg)}_next = {sig_name(reg)};")
        for sig in internal:
            emit(f"    {sig_name(sig)} = {wide}'sd0;")
        for port in process.out_ports():
            if not port.sig.is_register():
                width = vector_width(sig_fmt(port.sig))
                emit(f"    {scope.name(port, port.name)} = {width}'sd0;")
        for sfg in process.static_sfgs:
            emit(f"    // static SFG {sfg.name}")
            emit_sfg(sfg, "    ")
        if fsm is not None:
            emit("    case (state)")
            for state in fsm.states:
                emit(f"      ST_{sanitize(state.name).upper()}: begin")
                transitions = [
                    t for t in state.transitions
                    if not (t.condition.expr is None and t.condition.negated)
                ]
                opened = False
                for index, transition in enumerate(transitions):
                    condition = transition.condition
                    if condition.is_always():
                        indent = "        "
                        if index > 0:
                            emit("        else begin")
                            indent = "          "
                        emit(f"{indent}state_next = "
                             f"ST_{sanitize(transition.target.name).upper()};")
                        for sfg in transition.sfgs:
                            emit_sfg(sfg, indent)
                        if index > 0:
                            emit("        end")
                        break
                    cond_block = cond_blocks[id(condition.expr)]
                    code = emitter.refs(cond_block).ref(cond_block.roots[0])
                    test = f"({code}) != 0"
                    if condition.negated:
                        test = f"!({test})"
                    emit(f"        {'if' if index == 0 else 'else if'} "
                         f"({test}) begin")
                    opened = True
                    emit(f"          state_next = "
                         f"ST_{sanitize(transition.target.name).upper()};")
                    for sfg in transition.sfgs:
                        emit_sfg(sfg, "          ")
                    emit("        end")
                emit("      end")
            emit("      default: state_next = state;")
            emit("    endcase")
        emit("  end")
        emit("")
        emit("  always @(posedge clk or posedge rst) begin")
        emit("    if (rst) begin")
        if fsm is not None:
            emit(f"      state <= ST_{sanitize(fsm.initial_state.name).upper()};")
        for reg in registers:
            init = reg.init.raw if isinstance(reg.init, Fx) else int(reg.init)
            literal = f"-{wide}'sd{-init}" if init < 0 else f"{wide}'sd{init}"
            emit(f"      {sig_name(reg)} <= {literal};")
        emit("    end else begin")
        if fsm is not None:
            emit("      state <= state_next;")
        for reg in registers:
            emit(f"      {sig_name(reg)} <= {sig_name(reg)}_next;")
        emit("    end")
        emit("  end")
        emit("")
        for port in process.out_ports():
            if port.sig.is_register():
                width = vector_width(sig_fmt(port.sig))
                emit(f"  always @* {scope.name(port, port.name)} = "
                     f"{sig_name(port.sig)}[{width - 1}:0];")
        emit("")
        emit("endmodule")
        return "\n".join(lines) + "\n"


def generate_verilog(system: System, passes=None,
                     validate: str = "off") -> Dict[str, str]:
    """Convenience wrapper: generate Verilog for every timed component."""
    return VerilogGenerator(system, passes=passes,
                            validate=validate).generate()
