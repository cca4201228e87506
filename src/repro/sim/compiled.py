"""Compiled-code simulation (paper section 5, Figure 7).

*"A C++ description can be regenerated to yield an application-specific and
optimized compiled code simulator.  This simulator is used for extensive
verification of the design because of the efficient simulation runtimes."*

:class:`CompiledSimulator` lowers the system's SFG/FSM data structure to
the shared three-address IR (:mod:`repro.ir`), optionally optimizes it
(constant folding, CSE, DCE, algebraic simplification) and renders a
specialized Python ``step()`` function:

* fixed-point signals become raw integers; operator alignment, rounding and
  saturation arrive pre-lowered as explicit shift/quantize IR ops, and a
  saturation renders as compare-and-branch;
* a channel's value is quantized into each consumer format the
  elaboration names where it enters (a pin, an untimed output, a timed
  producer's store), or where a marked assignment reads it for an
  ``Overflow.ERROR`` format (DESIGN.md §18, §23); untimed behaviours
  are called directly, with ``Fx`` inputs built without a second range
  check, except a :class:`~repro.core.Ram`'s, whose reads and write are
  emitted inline over the step's raw values (DESIGN.md §22);
* the FSM transition selection of every component is emitted first (the
  conditions depend only on registers, so this is the scheduler's phase 0);
* all assignments of all components are emitted in one global topological
  order, guarded by their component's selected-transition index;
  consecutive same-guard assignments are lowered as one straight-line IR
  block, so common subexpressions are computed once per cycle;
* register updates commit at the end of the generated function.

The generated source is compiled with :func:`compile` and executed — the
Python equivalent of regenerating C++ and running it through the compiler.

The same walk renders the step a second time, in C
(:class:`_CEmitter`): a CPython extension module crossed once per cycle,
the regenerated C++ simulator of the paper's Fig. 7 (DESIGN.md §24).

Semantics vs rendering
----------------------
Everything about *what* a cycle computes — the system's elaboration, FSM
transition tables, the global assignment schedule and its guards — lives
in :class:`SystemLayout`.  *How* that schedule is spelled
is an emitter decision: :class:`_PyEmitter` renders it as Python
integers, :class:`_CEmitter` as C integers.  The layout never knows
about the spelling.

Semantics note: a plain signal has a value in the cycles that store it.
A watched channel whose signal only some transitions assign reads None
in the other cycles, where the cycle scheduler's channel carries no
token.  A read of a plain signal in a cycle that did not store it has
no value in the step: the Python step raises ``UnboundLocalError``, and
such a design does not run the native step (the C emitter finds the
read and leaves it to the Python step), while the cycle scheduler reads
the signal's last value.  Designs that never read an unstored signal
behave identically under both.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..fixpt import Fx, FxFormat, Overflow, Rounding
from ..fixpt import quantize_raw as _quantize_raw
from ..core.elaborate import Elaboration, is_boundary
from ..core.errors import CodegenError, SimulationError
from ..core.memory import Ram, Rom, restore_memories, save_memories
from ..core.process import TimedProcess, UntimedProcess
from ..core.signal import Register, Sig
from ..core.system import Channel, System
from ..ir import IRBlock, Lowerer, PassManager
from ..ir.formats import vector_width
from ..ir.ops import LEAF_OPS
from . import cbuild


class _Namer:
    """Allocates stable, unique identifiers for model objects: the
    prefix and the sanitized hint, and a number after a name taken."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._names: Dict[int, str] = {}
        self._used: Set[str] = set()
        self._counter = itertools.count()

    def __call__(self, obj, hint: str) -> str:
        name = self._names.get(id(obj))
        if name is None:
            base = f"{self.prefix}_{_sanitize(hint)}" if self.prefix \
                else _sanitize(hint)
            name = base
            while name in self._used:
                name = f"{base}_{next(self._counter)}"
            self._used.add(name)
            self._names[id(obj)] = name
        return name


def _sanitize(text: str) -> str:
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in text)
    return out or "x"


def gen_quantize(code: str, frac: Optional[int], fmt: FxFormat) -> str:
    """Inline quantization of *code* (raw at *frac*, or float) into *fmt*."""
    if frac is None:
        # Float source: use the exact library routine (slow path, rare).
        return f"_quantize_raw({code}, {_fmt_ref(fmt)})"
    shift = frac - fmt.frac_bits
    if shift < 0:
        body = f"(({code}) << {-shift})"
    elif shift == 0:
        body = f"({code})"
    elif fmt.rounding is Rounding.ROUND:
        body = f"((({code}) + {1 << (shift - 1)}) >> {shift})"
    else:
        body = f"(({code}) >> {shift})"
    lo, hi = fmt.raw_min, fmt.raw_max
    if fmt.overflow is Overflow.SATURATE:
        # Compare-and-branch, evaluating the body once: two comparisons
        # in range instead of two builtin calls.  A nested clamp finishes
        # with _q before the enclosing one assigns it.
        return (f"(_q if {lo} <= (_q := {body}) <= {hi} "
                f"else ({lo} if _q < {lo} else {hi}))")
    if fmt.overflow is Overflow.WRAP:
        mask = (1 << fmt.wl) - 1
        masked = f"(({body}) & {mask})"
        if fmt.signed:
            half = 1 << (fmt.wl - 1)
            span = 1 << fmt.wl
            return f"((({masked}) - {span}) if ({masked}) >= {half} else ({masked}))"
        return masked
    return f"_check_overflow({body}, {lo}, {hi})"


_FMT_POOL: Dict[str, FxFormat] = {}


def _fmt_ref(fmt: FxFormat) -> str:
    key = f"_FMT_{fmt.wl}_{fmt.iwl}_{int(fmt.signed)}_{fmt.rounding.name}_{fmt.overflow.name}"
    _FMT_POOL[key] = fmt
    return key


def _check_overflow(value: int, lo: int, hi: int) -> int:
    if lo <= value <= hi:
        return value
    from ..fixpt.fixed import FxOverflowError

    raise FxOverflowError(f"compiled simulation overflow: {value} not in [{lo}, {hi}]")


_PYOP = {"band": "&", "bor": "|", "bxor": "^"}


class _PyEmitter:
    """Renders the schedule as Python source: the reference step.

    Lowered IR blocks become expressions over Python ints.  Ops used
    more than once become ``_tN = ...`` temporaries; single-use ops
    inline into their consumer.  Ops whose subtree can raise (an
    ``Overflow.ERROR`` quantize) always inline, preserving the lazy
    evaluation of untaken mux branches.

    The statement methods, :meth:`begin` to :meth:`end`, spell the step
    around the blocks, one call per construct of the schedule walk
    (:meth:`CompiledSimulator._generate`); :class:`_CEmitter` answers the
    same calls in C.
    """

    def __init__(self, layout: "SystemLayout", obs_hook=None,
                 obs_profile=None, obs_labels: Sequence[str] = ()):
        self.layout = layout
        self.sig_ref = layout.sig_ref_full
        self._temps = itertools.count()
        self.obs_hook = obs_hook
        self.obs_profile = obs_profile
        self.obs_labels = obs_labels
        self.lines: List[str] = []
        self.body: List[str] = []
        self.indent = _PY_BODY
        #: Objects the generated module reads by name.
        self.env: Dict[str, object] = {}
        self.behavior_name = _Namer("beh")
        self.process_name = _Namer("proc")
        self.memory_name = _Namer("mem")
        self.rom_name = _Namer("rom")
        self.source = ""

    # -- blocks --------------------------------------------------------------------

    def render(self, block: IRBlock, lines: Optional[List[str]] = None,
               indent: str = "") -> Dict[int, str]:
        """Return id -> Python expression, appending temp lines to *lines*."""
        ops = block.ops
        uses: Counter = Counter()
        for op in ops:
            uses.update(op.args)
        for store in block.stores:
            uses[store.value] += 1
        for root in block.roots:
            uses[root] += 1
        raising = [False] * len(ops)
        for index, op in enumerate(ops):
            hot = (op.opcode == "quantize"
                   and op.attrs[0].overflow is Overflow.ERROR)
            raising[index] = hot or any(raising[a] for a in op.args)
        memo: Dict[int, str] = {}

        def ref(vid: int) -> str:
            got = memo.get(vid)
            if got is not None:
                return got
            op = ops[vid]
            code = self._render_op(block, op, ref)
            if (lines is not None and uses[vid] > 1
                    and op.opcode not in LEAF_OPS and op.opcode != "retag"
                    and not raising[vid]):
                name = f"_t{next(self._temps)}"
                lines.append(f"{indent}{name} = {code}")
                code = name
            memo[vid] = code
            return code

        self._memo = memo
        self._ref = ref
        return memo

    def ref(self, vid: int) -> str:
        return self._ref(vid)

    def bind(self, vid: int, name: str) -> None:
        """Future references to *vid* read the just-assigned variable."""
        self._memo[vid] = name

    def _render_op(self, block: IRBlock, op, ref) -> str:
        code = op.opcode
        a = op.args
        if code == "const":
            return repr(op.attrs[0])
        if code == "fconst":
            return repr(op.attrs[0])
        if code == "read":
            return self.sig_ref(op.attrs[0])[0]
        if code in ("add", "sub"):
            return f"(({ref(a[0])}) {'+' if code == 'add' else '-'} ({ref(a[1])}))"
        if code == "mul":
            return f"(({ref(a[0])}) * ({ref(a[1])}))"
        if code == "neg":
            return f"(-({ref(a[0])}))"
        if code == "abs":
            return f"(abs({ref(a[0])}))"
        if code == "shl":
            bits = op.attrs[0]
            if op.frac is None:
                return f"(({ref(a[0])}) * {2.0 ** bits!r})"
            return f"(({ref(a[0])}) << {bits})"
        if code == "ashr":
            return f"(({ref(a[0])}) >> {op.attrs[0]})"
        if code == "retag":
            return ref(a[0])
        if code == "cmp":
            return f"(1 if ({ref(a[0])}) {op.attrs[0]} ({ref(a[1])}) else 0)"
        if code in _PYOP:
            wl, signed = op.attrs
            mask = (1 << wl) - 1
            body = (f"((({ref(a[0])}) & {mask}) {_PYOP[code]} "
                    f"(({ref(a[1])}) & {mask}))")
            return self._fold_sign(body, wl, signed)
        if code == "bnot":
            wl, signed = op.attrs
            mask = (1 << wl) - 1
            return self._fold_sign(f"((~({ref(a[0])})) & {mask})", wl, signed)
        if code == "mux":
            sel_frac = block.ops[a[0]].frac
            sel = f"({ref(a[0])})" if sel_frac is not None \
                else f"(int({ref(a[0])}))"
            return f"(({ref(a[1])}) if {sel} else ({ref(a[2])}))"
        if code == "bitsel":
            return f"((({ref(a[0])}) >> {op.attrs[0]}) & 1)"
        if code == "slice":
            hi, lo = op.attrs
            mask = (1 << (hi - lo + 1)) - 1
            return f"((({ref(a[0])}) >> {lo}) & {mask})"
        if code == "concat":
            shift = 0
            pieces = []
            for vid, width in zip(reversed(a), reversed(op.attrs)):
                mask = (1 << width) - 1
                raw = ref(vid)
                piece = f"((({raw}) & {mask}) << {shift})" if shift \
                    else f"(({raw}) & {mask})"
                pieces.append(piece)
                shift += width
            return f"({' | '.join(pieces)})"
        if code == "quantize":
            src_frac = block.ops[a[0]].frac
            return gen_quantize(ref(a[0]), src_frac, op.attrs[0])
        if code == "tofloat":
            src_frac = block.ops[a[0]].frac
            if not src_frac:
                return ref(a[0])
            return f"(({ref(a[0])}) * {2.0 ** -src_frac!r})"
        if code == "toint":
            return f"int({ref(a[0])})"
        raise CodegenError(f"cannot render IR opcode {code!r}")

    @staticmethod
    def _fold_sign(code: str, wl: int, signed: bool) -> str:
        if not signed:
            return code
        half = 1 << (wl - 1)
        span = 1 << wl
        return f"((({code}) - {span}) if ({code}) >= {half} else ({code}))"

    # -- the step around the blocks ----------------------------------------------

    def begin(self) -> None:
        """The module header and the closure state: registers, FSMs."""
        layout = self.layout
        emit = self.lines.append
        emit("from repro.fixpt import Fx, quantize_raw as _quantize_raw")
        emit("from repro.fixpt.fixed import _fx")
        emit("from repro.sim.compiled import _check_overflow, _no_token")
        emit("")
        emit("def _make_step():")
        for reg in layout.registers:
            init = reg.init.raw if isinstance(reg.init, Fx) else repr(reg.init)
            emit(f"    {layout.reg_name(reg, reg.name)} = {init}")
        for process in layout.timed:
            if process.fsm is not None:
                states = layout.fsm_index[id(process)]
                emit(f"    st_{layout.stem(process)} = "
                     f"{states[process.fsm.initial_state.name]}")

    def pin(self, chan: Channel) -> None:
        """A pin's value as driven."""
        self.body.append(f"        {self.layout.boundary_var(chan)} = "
                         f"pins.get({chan.name!r}, 0)")

    def convert(self, chan: Channel, fmt: FxFormat) -> None:
        """Quantize a channel's value into one of its formats: from a raw
        value at a timed producer's binary point, else a value."""
        layout = self.layout
        fmt_in = None if is_boundary(chan) \
            else layout.sig_ref(chan.producer.sig)[1]
        frac = fmt_in.frac_bits if fmt_in is not None else None
        self.body.append(
            f"{self.indent}{layout.boundary_var(chan, fmt)} = "
            f"{gen_quantize(layout.boundary_var(chan), frac, fmt)}")

    def select(self, process: TimedProcess, rows) -> None:
        """Phase 0 of one FSM: its transition select, state by state."""
        b = self.body.append
        pname = self.layout.stem(process)
        states = self.layout.fsm_index[id(process)]
        b(f"        # phase 0: {process.name} transition select")
        for index, (state, entries) in enumerate(rows):
            b(f"        {'if' if index == 0 else 'elif'} "
              f"st_{pname} == {states[state.name]}:")
            for position, (t_index, block, negated, target) in \
                    enumerate(entries):
                if block is None:
                    b("            if True:" if position == 0
                      else "            else:")
                else:
                    refs = self.render(block)
                    root = block.roots[0]
                    self.ref(root)
                    code, frac = refs[root], block.ops[root].frac
                    test = f"({code}) != 0" if frac is not None \
                        else f"bool({code})"
                    if negated:
                        test = f"not ({test})"
                    b(f"            {'if' if position == 0 else 'elif'} "
                      f"{test}:")
                b(f"                tr_{pname} = {t_index}")
                b(f"                nst_{pname} = {target}")
            if not entries:
                b(f"            raise RuntimeError("
                  f"'FSM {process.name}: state {state.name} is stuck')")
            elif entries[-1][1] is not None:
                b("            else:")
                b(f"                raise RuntimeError("
                  f"'FSM {process.name}: no transition from {state.name}')")

    def open_group(self, guard: "Guard") -> None:
        """Open one same-guard run of assignments."""
        code = _py_guard(guard, self.layout)
        self.indent = _PY_BODY
        if code is not None:
            self.body.append(f"        if {code}:")
            self.indent = _PY_BODY + "    "

    def close_group(self) -> None:
        self.indent = _PY_BODY

    def profile_open(self, index: int) -> None:
        """Self-profiling: bracket a rendered block with clock reads."""
        self.body.append(f"{self.indent}_obs_t = _obs_perf()")

    def profile_close(self, index: int) -> None:
        self.body.append(
            f"{self.indent}_obs_block({index}, _obs_perf() - _obs_t)")

    def block(self, block: IRBlock) -> None:
        self.render(block, lines=self.body, indent=self.indent)

    def store(self, store) -> None:
        target = store.target
        code = self.ref(store.value)
        if isinstance(target, Register):
            var = f"n_{self.layout.reg_name(target, target.name)}"
        else:
            var = self.layout.sig_name(target, target.name)
        self.body.append(f"{self.indent}{var} = {code}")
        if not isinstance(target, Register):
            self.bind(store.value, var)

    def _token(self, port) -> str:
        """The token an untimed input port is handed.

        A formatted timed producer's token is an ``Fx`` built without
        a range check: every formatted variable already holds a raw
        value inside its format (DESIGN.md §15's leaf-range
        invariant).
        """
        chan = port.channel
        if is_boundary(chan):
            return self.layout.boundary_var(chan)
        code, fmt = self.layout.sig_ref_full(chan.producer.sig)
        if fmt is not None:
            code = f"_fx({code}, {_fmt_ref(fmt)})"
        return code

    def _int(self, port) -> str:
        """``int()`` of an untimed input port's token, over raw values.

        It follows ``Fx.__int__``: the raw value of an integer
        format, shifted for negative fraction bits, truncated toward
        zero for positive ones.
        """
        chan = port.channel
        if is_boundary(chan):
            return f"int({self.layout.boundary_var(chan)})"
        code, fmt = self.layout.sig_ref_full(chan.producer.sig)
        if fmt is None:
            return f"int({code})"
        frac = fmt.frac_bits
        if frac == 0:
            return code
        if frac < 0:
            return f"({code} << {-frac})"
        return (f"({code} >> {frac} if {code} >= 0 "
                f"else -(-{code} >> {frac}))")

    def ram(self, ram: Ram) -> None:
        """Fire one RAM inline, as ``Ram.behavior`` does (DESIGN.md §22).

        The reads come first, then a write stores the token the
        behaviour would have been handed; the step holds the RAM's
        ``data`` list and indexes it in place.
        """
        b = self.body.append
        mem = self.memory_name(ram, ram.name)
        proc = self.process_name(ram, ram.name)
        self.env[mem] = ram.data
        self.env[proc] = ram
        ports = ram.ports
        depth = ram.depth
        for addr, out in _ram_reads(ram):
            chan = ports[out].channel
            access = f"{mem}[{self._int(ports[addr])} % {depth}]"
            if chan is None:
                b(f"        {access}")
            else:
                b(f"        {self.layout.boundary_var(chan)} = {access}")
        enable = self._int(ports["we"])
        if ram.write_gate:
            enable = f"{enable} and {self._int(ports['wgate'])}"
        b(f"        if {enable}:")
        b(f"            {mem}[{self._int(ports['waddr'])} % {depth}] = "
          f"{self._token(ports['wdata'])}")
        b(f"            {proc}.writes += 1")
        b(f"        {proc}.firings += 1")

    def rom(self, rom: Rom) -> None:
        """Fire one ROM inline, as ``Rom.behavior`` does: the word at the
        address, 0 outside the table (DESIGN.md §22).  The step holds
        the ROM's words."""
        b = self.body.append
        words = self.rom_name(rom, rom.name)
        proc = self.process_name(rom, rom.name)
        self.env[words] = rom.words
        self.env[proc] = rom
        address = index = self._int(rom.ports[rom.address_port])
        if not address.isidentifier():
            address, index = f"(_a := {address})", "_a"
        read = (f"{words}[{index}] if 0 <= {address} < {len(rom.words)} "
                f"else 0")
        chan = rom.ports[rom.data_port].channel
        if chan is not None:
            read = f"{self.layout.boundary_var(chan)} = {read}"
        b(f"        {read}")
        b(f"        {proc}.firings += 1")

    def behaviour(self, process: UntimedProcess) -> None:
        """Fire one behaviour and take its output tokens."""
        b = self.body.append
        fn = self.behavior_name(process, process.name)
        proc = self.process_name(process, process.name)
        self.env[fn] = process.behavior
        self.env[proc] = process
        args = [f"{port.name}={self._token(port)}"
                for port in process.in_ports()]
        result = f"res_{self.layout.stem(process)}"
        b(f"        {result} = {fn}({', '.join(args)})")
        outs = [port for port in process.out_ports()
                if port.channel is not None]
        if outs:
            # The cycle scheduler's typed error for a missing token;
            # the try costs nothing while every token is there.
            b("        try:")
            for port in outs:
                b(f"            {self.layout.boundary_var(port.channel)} = "
                  f"{result}[{port.name!r}]")
            b("        except (KeyError, TypeError):")
            b(f"            _no_token({proc}, {result})")
            b("            raise")
        b(f"        {proc}.firings += 1")

    def watch(self, chan: Channel) -> None:
        """A watched output: None in a cycle without a token."""
        value_code, fmt = self.layout.watch_ref(chan)
        if fmt is not None:
            value_code = f"_fx({value_code}, {_fmt_ref(fmt)})"
        guard = _py_guard(self.layout.watch_guard(chan), self.layout)
        if guard is not None:
            value_code = f"{value_code} if {guard} else None"
        self.body.append(f"        outputs[{chan.name!r}] = {value_code}")

    def end(self) -> None:
        """Next-value pre-initialization, commit, the observability hook
        and the dump/load pair around the body; :attr:`source`."""
        layout = self.layout
        timed = layout.timed
        reg_name = layout.reg_name
        registers = layout.registers
        fsm_index = layout.fsm_index
        emit = self.lines.append
        pre: List[str] = []
        commit: List[str] = []
        for reg in registers:
            name = reg_name(reg, reg.name)
            pre.append(f"        n_{name} = {name}")
            commit.append(f"        {name} = n_{name}")
        for process in timed:
            if process.fsm is not None:
                pname = layout.stem(process)
                commit.append(f"        st_{pname} = nst_{pname}")

        # Observability hook: one post-commit call per cycle handing the
        # capture raw register values, FSM state indices and selected
        # transition indices.  Emitted only when the capture wants it.
        if self.obs_hook is not None:
            regs_args = ", ".join(reg_name(reg, reg.name)
                                  for reg in registers)
            fsm_procs = [p for p in timed if p.fsm is not None]
            sts_args = ", ".join(f"st_{layout.stem(p)}"
                                 for p in fsm_procs)
            trs_args = ", ".join(f"tr_{layout.stem(p)}"
                                 for p in fsm_procs)
            commit.append(
                f"        _obs_end_cycle("
                f"({regs_args}{',' if registers else ''}), "
                f"({sts_args}{',' if fsm_procs else ''}), "
                f"({trs_args}{',' if fsm_procs else ''}))"
            )

        state_names = [reg_name(reg, reg.name) for reg in registers]
        state_names += [f"st_{layout.stem(p)}" for p in timed
                        if p.fsm is not None]
        emit("    def step(pins, outputs):")
        if state_names:
            emit(f"        nonlocal {', '.join(state_names)}")
        for line in pre:
            emit(line)
        for line in self.body:
            emit(line)
        for line in commit:
            emit(line)
        emit("    def dump():")
        entries = []
        raw_entries = []
        for reg in registers:
            name = reg_name(reg, reg.name)
            if reg.fmt is not None:
                entries.append(f"{reg.name!r}: Fx(raw={name}, fmt={_fmt_ref(reg.fmt)})")
            else:
                entries.append(f"{reg.name!r}: {name}")
            raw_entries.append(f"{reg.name!r}: {name}")
        for process in timed:
            if process.fsm is not None:
                pname = layout.stem(process)
                states = fsm_index[id(process)]
                names = {index: state for state, index in states.items()}
                emit_map = ", ".join(f"{i}: {n!r}" for i, n in sorted(names.items()))
                entries.append(f"'{process.name}.state': {{{emit_map}}}[st_{pname}]")
                raw_entries.append(
                    f"'{process.name}.state': {{{emit_map}}}[st_{pname}]"
                )
        emit(f"        return {{{', '.join(entries)}}}")
        # Raw-domain dump/load pair: the checkpoint/restore hook used by
        # repro.verify.guard for long campaigns.
        emit("    def dump_raw():")
        emit(f"        return {{{', '.join(raw_entries)}}}")
        emit("    def load(state):")
        if state_names:
            emit(f"        nonlocal {', '.join(state_names)}")
        for reg in registers:
            name = reg_name(reg, reg.name)
            emit(f"        {name} = state[{reg.name!r}]")
        for process in timed:
            if process.fsm is not None:
                pname = layout.stem(process)
                states = fsm_index[id(process)]
                emit_map = ", ".join(
                    f"{n!r}: {i}" for n, i in sorted(states.items(),
                                                     key=lambda kv: kv[1])
                )
                emit(f"        st_{pname} = "
                     f"{{{emit_map}}}[state['{process.name}.state']]")
        if not state_names:
            emit("        pass")
        emit("    return step, dump, dump_raw, load")

        self.source = "\n".join(self.lines) + "\n"
        # Provide formats and behaviors in the module environment.
        env = dict(_FMT_POOL)
        env.update(self.env)
        if self.obs_hook is not None:
            env["_obs_end_cycle"] = self.obs_hook
        if self.obs_profile is not None:
            from time import perf_counter as _obs_perf

            labels = self.obs_labels
            profile = self.obs_profile
            env["_obs_perf"] = _obs_perf
            env["_obs_block"] = (
                lambda index, dt: profile.add(labels[index], dt))
        self.env = env


_PY_BODY = "        "


def _py_guard(guard: "Guard", layout: "SystemLayout") -> Optional[str]:
    """Render a structured guard as a one-lane Python condition."""
    if guard is None:
        return None
    process, trs = guard
    pname = layout.stem(process)
    if len(trs) == 1:
        return f"tr_{pname} == {trs[0]}"
    options = ", ".join(str(t) for t in trs)
    return f"tr_{pname} in ({options})"


def _ram_reads(ram: Ram) -> List[Tuple[str, str]]:
    """A RAM's read ports: ``(address port, data port)`` pairs."""
    reads = [("addr", "q")]
    if ram.second_read_port:
        reads.append(("addr_b", "q_b"))
    return reads


class _NotNative(Exception):
    """The design holds something the C spelling does not render: a
    float-domain value or a value wider than 127 bits."""


#: C integer types of raw values, by the bits a value needs.
_CTYPES = ((63, "i64"), (127, "i128"))
_CBITS = {"i64": 64, "i128": 128}
_PRELUDE = Path(__file__).with_name("step_prelude.h")
_prelude_text: Optional[str] = None


def _ctype(bits: int) -> str:
    for limit, name in _CTYPES:
        if bits <= limit:
            return name
    raise _NotNative(f"a value of {bits} bits")


def _cast(code: str, src: str, dst: str) -> str:
    return code if src == dst else f"(({dst})({code}))"


def _clit(value: int, ctype: str) -> str:
    """*value* as a C constant of *ctype*."""
    if -(1 << 63) < value < (1 << 63):
        literal = f"INT64_C({value})"
        return literal if ctype == "i64" else f"((i128){literal})"
    return f"I128(INT64_C({value >> 64}), UINT64_C({value & (2**64 - 1)}))"


def _c_guard(guard: "Guard", layout: "SystemLayout") -> Optional[str]:
    """Render a structured guard as a C condition."""
    if guard is None:
        return None
    process, trs = guard
    pname = layout.stem(process)
    return " || ".join(f"tr_{pname} == {t}" for t in trs)


_COP = {"add": "+", "sub": "-", "mul": "*"}


class _CEmitter:
    """Renders the schedule as a CPython extension module's step.

    The same calls as :class:`_PyEmitter`, spelled in C over raw
    ``int64_t`` values, ``__int128`` above 63 bits (DESIGN.md §24).  A
    value's C type follows the bits it can need, bounded from its
    operands, never from the IR's recorded widths.  Pins, untimed
    tokens and RAM words stay Python objects, an ``Fx`` read and built
    through its two slots; a ROM is read from tables of raw values, and
    ``firings`` and ``writes`` are counted in the processes' count
    arrays.  :attr:`ctx` lists every object the step reads (``K(i)`` in
    the source), tables and count arrays included, so the source of a
    design never names an object or a word and one build serves every
    instance.
    A construct the spelling cannot render raises :class:`_NotNative`,
    and so does a read of a plain signal in a cycle that may not have
    stored it, where the Python step raises ``UnboundLocalError``.
    """

    def __init__(self, layout: "SystemLayout"):
        self.layout = layout
        self.sig_ref = layout.sig_ref_full
        self._temps = itertools.count()
        self._objects = itertools.count()
        #: The objects the step reads, by ``K(index)``: the ``Fx`` type,
        #: then the count arrays of the processes it fires (set by
        #: :meth:`end`), then the rest.
        self.ctx: List[object] = [Fx, None]
        self._ctx_index: Dict[int, int] = {id(Fx): 0}
        self.counts: List[object] = []
        self._count_index: Dict[int, int] = {}
        #: Each inlined ROM's index variable.
        self._rom_index: Dict[int, str] = {}
        self._formats: Dict[FxFormat, str] = {}
        self._format_lines: List[str] = []
        #: Raw locals of the step (name -> C type) and object locals.
        self.raw_vars: Dict[str, str] = {}
        self.obj_vars: List[str] = []
        self.registers: List[Tuple[str, str]] = []
        self.fsms: List[str] = []
        self.body: List[str] = []
        self.indent = "    "
        self.source = ""
        #: The guard of the statements being emitted, and the cycles
        #: that have stored each raw variable so far: None for every
        #: cycle, else the transitions of each process that store it.
        self.guard: Guard = None
        self.stored: Dict[str, Optional[Dict[TimedProcess, Set[int]]]] = {}

    # -- names -------------------------------------------------------------------

    def k(self, obj) -> str:
        """The step's reference to a Python object."""
        index = self._ctx_index.get(id(obj))
        if index is None:
            index = self._ctx_index[id(obj)] = len(self.ctx)
            self.ctx.append(obj)
        return f"K({index})"

    def qf(self, fmt: FxFormat) -> str:
        """The static description of a format, for object quantization."""
        name = self._formats.get(fmt)
        if name is None:
            _ctype(vector_width(fmt))
            name = self._formats[fmt] = f"F{len(self._formats)}"
            overflow = ("SATURATE", "WRAP", "ERROR")[
                (Overflow.SATURATE, Overflow.WRAP, Overflow.ERROR).index(
                    fmt.overflow)]
            self._format_lines.append(
                f"static const QF {name} = {{{fmt.frac_bits}, "
                f"{int(fmt.rounding is Rounding.ROUND)}, {overflow}, "
                f"{fmt.wl}, {int(fmt.signed)}, "
                f"{_clit(fmt.raw_min, 'i128')}, "
                f"{_clit(fmt.raw_max, 'i128')}}};")
        return name

    def raw(self, sig: Sig) -> Tuple[str, FxFormat]:
        """A signal's raw variable (declared) and format, read under
        the current guard."""
        var, fmt = self.sig_ref(sig)
        if fmt is None:
            raise _NotNative(f"the float-domain signal {sig.name!r}")
        if not isinstance(self.layout.resolve(sig), Register) \
                and not self._covered(var):
            raise _NotNative(f"a read of {var} in a cycle that may not "
                             f"store it")
        self.declare(var, fmt)
        return var, fmt

    def _store(self, var: str) -> None:
        """Note that *var* is stored under the current guard."""
        guard = self.guard
        if guard is None:
            self.stored[var] = None
            return
        cover = self.stored.setdefault(var, {})
        if cover is not None:
            cover.setdefault(guard[0], set()).update(guard[1])

    def _covered(self, var: str) -> bool:
        """Whether every cycle that runs the current statement has
        stored *var* before it."""
        if var not in self.stored:
            return False
        cover = self.stored[var]
        if cover is None or any(len(trs) == len(_global_transitions(p))
                                for p, trs in cover.items()):
            return True
        guard = self.guard
        if guard is None:
            return False
        return set(guard[1]) <= cover.get(guard[0], set())

    def declare(self, var: str, fmt: FxFormat) -> str:
        ctype = _ctype(vector_width(fmt))
        self.raw_vars.setdefault(var, ctype)
        return ctype

    def obj(self, var: str) -> str:
        if var not in self.obj_vars:
            self.obj_vars.append(var)
        return var

    def temp_obj(self) -> str:
        return self.obj(f"o{next(self._objects)}")

    def count(self, process: UntimedProcess, which: int) -> None:
        """Add one to a process's ``firings`` (0) or a RAM's ``writes``
        (1), in the process's count array."""
        index = self._count_index.get(id(process))
        if index is None:
            index = self._count_index[id(process)] = len(self.counts)
            self.counts.append(process._counts)
        self.line(f"CNT({index})[{which}]++;")

    def line(self, text: str) -> None:
        self.body.append(f"{self.indent}{text}")

    # -- blocks --------------------------------------------------------------------

    def render(self, block: IRBlock, lines: Optional[List[str]] = None,
               indent: str = "") -> Dict[int, str]:
        """Return id -> C expression, appending temp lines to *lines*;
        the same sharing and laziness as :meth:`_PyEmitter.render`."""
        ops = block.ops
        uses: Counter = Counter()
        for op in ops:
            uses.update(op.args)
        for store in block.stores:
            uses[store.value] += 1
        for root in block.roots:
            uses[root] += 1
        raising = [False] * len(ops)
        for index, op in enumerate(ops):
            hot = (op.opcode == "quantize"
                   and op.attrs[0].overflow is Overflow.ERROR)
            raising[index] = hot or any(raising[a] for a in op.args)
        memo: Dict[int, str] = {}
        bits: Dict[int, int] = {}

        def ref(vid: int) -> str:
            got = memo.get(vid)
            if got is not None:
                return got
            op = ops[vid]
            code, bits[vid] = self._render_op(block, op, ref, bits)
            if (lines is not None and uses[vid] > 1
                    and op.opcode not in LEAF_OPS and op.opcode != "retag"
                    and not raising[vid]):
                name = f"_t{next(self._temps)}"
                lines.append(f"{indent}{_ctype(bits[vid])} {name} = {code};")
                code = name
            memo[vid] = code
            return code

        self._memo = memo
        self._ref = ref
        self._bits = bits
        self._raising = raising
        return memo

    def ref(self, vid: int) -> str:
        return self._ref(vid)

    def _render_op(self, block: IRBlock, op, ref,
                   bits: Dict[int, int]) -> Tuple[str, int]:
        """C of one op, in the type of the bits its result needs."""
        code = op.opcode
        if op.frac is None:
            raise _NotNative(f"the float-domain IR op {code!r}")
        if code == "const":
            value = op.attrs[0]
            width = value.bit_length() + 1
            return _clit(value, _ctype(width)), width
        if code == "read":
            var, fmt = self.raw(op.attrs[0])
            return var, vector_width(fmt)
        a = op.args
        xs = [ref(vid) for vid in a]
        bs = [bits[vid] for vid in a]

        def arg(index: int, ctype: str) -> str:
            return _cast(xs[index], _ctype(bs[index]), ctype)

        if code in _COP:
            width = bs[0] + bs[1] if code == "mul" else max(bs) + 1
            t = _ctype(width)
            return f"({arg(0, t)} {_COP[code]} {arg(1, t)})", width
        if code in ("neg", "abs", "shl"):
            width = bs[0] + (op.attrs[0] if code == "shl" else 1)
            t = _ctype(width)
            if code == "neg":
                return f"(-{arg(0, t)})", width
            if code == "abs":
                return f"abs{_CBITS[t]}({arg(0, t)})", width
            return f"shl{_CBITS[t]}({arg(0, t)}, {op.attrs[0]})", width
        if code == "ashr":
            width = max(bs[0] - op.attrs[0], 1)
            t = _ctype(bs[0])
            shift = min(op.attrs[0], _CBITS[t] - 1)
            return _cast(f"({xs[0]} >> {shift})", t, _ctype(width)), width
        if code == "retag":
            return xs[0], bs[0]
        if code == "cmp":
            t = _ctype(max(bs))
            return (f"((i64)({arg(0, t)} {op.attrs[0]} {arg(1, t)}))", 2)
        if code in _PYOP or code == "bnot":
            wl, signed = op.attrs
            t = _ctype(max(*bs, wl + 1))
            mask = _clit((1 << wl) - 1, t)
            if code == "bnot":
                body = f"((~{arg(0, t)}) & {mask})"
            else:
                body = (f"(({arg(0, t)} & {mask}) {_PYOP[code]} "
                        f"({arg(1, t)} & {mask}))")
            if signed:
                body = f"sext{_CBITS[t]}({body}, {wl})"
            return _cast(body, t, _ctype(wl + 1)), wl + 1
        if code == "mux":
            width = max(bs[1], bs[2])
            t = _ctype(width)
            return f"({xs[0]} ? {arg(1, t)} : {arg(2, t)})", width
        if code in ("bitsel", "slice"):
            hi, lo = (op.attrs[0], op.attrs[0]) if code == "bitsel" \
                else op.attrs
            width = hi - lo + 2
            t = _ctype(max(bs[0], hi + 2))
            mask = _clit((1 << (hi - lo + 1)) - 1, t)
            return (_cast(f"(({arg(0, t)} >> {lo}) & {mask})", t,
                          _ctype(width)), width)
        if code == "concat":
            width = sum(op.attrs) + 1
            t = _ctype(max(width, *bs))
            shift = 0
            pieces = []
            for index, part in zip(reversed(range(len(a))),
                                   reversed(op.attrs)):
                piece = f"({arg(index, t)} & {_clit((1 << part) - 1, t)})"
                pieces.append(f"({piece} << {shift})" if shift else piece)
                shift += part
            return (_cast(f"({' | '.join(pieces)})", t, _ctype(width)),
                    width)
        if code == "quantize":
            return self._quantize(xs[0], bs[0], block.ops[a[0]].frac,
                                  op.attrs[0])
        raise _NotNative(f"the IR op {code!r}")

    def _quantize(self, code: str, bits: int, frac: int,
                  fmt: FxFormat) -> Tuple[str, int]:
        """C of raw *code* (*bits* wide, at *frac*) quantized into *fmt*;
        :func:`gen_quantize` over C integers."""
        width = vector_width(fmt)
        shift = frac - fmt.frac_bits
        if shift < 0:
            body_bits = bits - shift
        elif shift > 0 and fmt.rounding is Rounding.ROUND:
            body_bits = max(bits, shift) + 1
        else:
            body_bits = bits
        t = _ctype(max(body_bits, width + 1))
        n = _CBITS[t]
        x = _cast(code, _ctype(bits), t)
        if shift < 0:
            body = f"shl{n}({x}, {-shift})"
        elif shift == 0:
            body = x
        elif fmt.rounding is Rounding.ROUND:
            body = f"(({x} + {_clit(1 << (shift - 1), t)}) >> {shift})"
        else:
            body = f"({x} >> {min(shift, n - 1)})"
        if fmt.overflow is Overflow.SATURATE:
            out = (f"sat{n}({body}, {_clit(fmt.raw_min, t)}, "
                   f"{_clit(fmt.raw_max, t)})")
        elif fmt.overflow is Overflow.WRAP:
            out = f"wrap{n}({body}, {fmt.wl}, {int(fmt.signed)})"
        else:
            out = (f"chk({body}, {_clit(fmt.raw_min, 'i128')}, "
                   f"{_clit(fmt.raw_max, 'i128')}, &err, "
                   f"{self.k(_check_overflow)})")
            t = "i128"
        return _cast(out, t, _ctype(width)), width

    # -- the step around the blocks ----------------------------------------------

    def begin(self) -> None:
        layout = self.layout
        for reg in layout.registers:
            if reg.fmt is None:
                raise _NotNative(f"the float-domain register {reg.name!r}")
            self.registers.append((layout.reg_name(reg, reg.name),
                                   _ctype(vector_width(reg.fmt))))
        for process in layout.timed:
            if process.fsm is not None:
                self.fsms.append(layout.stem(process))

    def pin(self, chan: Channel) -> None:
        var = self.obj(self.layout.boundary_var(chan))
        self.line(f"SETOBJ({var}, get_pin(pins, {self.k(chan.name)}));")

    def convert(self, chan: Channel, fmt: FxFormat) -> None:
        layout = self.layout
        target = layout.boundary_var(chan, fmt)
        ctype = self.declare(target, fmt)
        self._store(target)
        if is_boundary(chan):
            producer = chan.producer
            process = producer.process if producer is not None else None
            index = self._rom_index.get(id(process))
            if index is not None:
                table = self.k(self._table(process, fmt, ctype))
                self.line(f"{target} = table{_CBITS[ctype]}({table}, "
                          f"{index});")
                return
            want, at = "NULL", 0
            if isinstance(process, Ram):
                # A RAM holds the tokens its writes store: mostly Fx
                # values of its write port's format.
                wdata = process.ports["wdata"].channel
                if not is_boundary(wdata):
                    written = layout.sig_ref_full(wdata.producer.sig)[1]
                    if written is not None:
                        want, at = self.k(written), written.frac_bits
            source = layout.boundary_var(chan)
            self.line(f"if (qobj({source}, &{self.qf(fmt)}, {self.k(fmt)}, "
                      f"{self.k(_quantize_raw)}, {want}, {at}, &q_)) "
                      f"goto fail;")
            self.line(f"{target} = ({ctype})q_;")
            return
        source, fmt_in = self.raw(chan.producer.sig)
        code, _width = self._quantize(source, vector_width(fmt_in),
                                      fmt_in.frac_bits, fmt)
        self.line(f"{target} = {code};")
        if fmt.overflow is Overflow.ERROR:
            self.line("if (err) goto fail;")

    def select(self, process: TimedProcess, rows) -> None:
        pname = self.layout.stem(process)
        states = self.layout.fsm_index[id(process)]
        checks = False
        self.line(f"/* phase 0: {pname} transition select */")
        for index, (state, entries) in enumerate(rows):
            self.line(f"{'if' if index == 0 else '} else if'} "
                      f"(fsm_{pname} == {states[state.name]}) {{")
            raising = False
            for position, (t_index, block, negated, target) in \
                    enumerate(entries):
                if block is None:
                    head = "if (1)" if position == 0 else "else"
                else:
                    refs = self.render(block)
                    root = block.roots[0]
                    self.ref(root)
                    raising = raising or self._raising[root]
                    test = f"({refs[root]}) != 0"
                    if negated:
                        test = f"!({test})"
                    head = f"{'if' if position == 0 else 'else if'} ({test})"
                self.line(f"    {head} {{ tr_{pname} = {t_index}; "
                          f"nfsm_{pname} = {target}; }}")
            checks = checks or raising
            if not entries:
                message = f"FSM {process.name}: state {state.name} is stuck"
                self.line(f"    PyErr_SetObject(PyExc_RuntimeError, "
                          f"{self.k(message)}); goto fail;")
            elif entries[-1][1] is not None:
                # An overflow in a condition has set its exception, the
                # one the Python step raises.
                message = (f"FSM {process.name}: no transition from "
                           f"{state.name}")
                self.line(f"    else {{ {'if (!err) ' if raising else ''}"
                          f"PyErr_SetObject(PyExc_RuntimeError, "
                          f"{self.k(message)}); goto fail; }}")
        if rows:
            self.line("}")
        if checks:
            self.line("if (err) goto fail;")

    def open_group(self, guard: "Guard") -> None:
        self.guard = guard
        code = _c_guard(guard, self.layout)
        if code is not None:
            self.line(f"if ({code}) {{")
            self.indent += "    "

    def close_group(self) -> None:
        self.guard = None
        if self.indent != "    ":
            self.indent = "    "
            self.line("}")

    def profile_open(self, index: int) -> None:
        raise _NotNative("emitted instrumentation")

    profile_close = profile_open

    def block(self, block: IRBlock) -> None:
        self.render(block, lines=self.body, indent=self.indent)

    def store(self, store) -> None:
        target = store.target
        code = self.ref(store.value)
        if target.fmt is None:
            raise _NotNative(f"the float-domain signal {target.name!r}")
        if isinstance(target, Register):
            var = f"n_{self.layout.reg_name(target, target.name)}"
            ctype = _ctype(vector_width(target.fmt))
        else:
            var = self.layout.sig_name(target, target.name)
            ctype = self.declare(var, target.fmt)
            self._store(var)
        value_type = _ctype(self._bits[store.value])
        self.line(f"{var} = {_cast(code, value_type, ctype)};")
        if self._raising[store.value]:
            self.line("if (err) goto fail;")
        if not isinstance(target, Register):
            self._memo[store.value] = var
            self._bits[store.value] = vector_width(target.fmt)

    def _token(self, port) -> str:
        """An object variable holding the token an untimed input port is
        handed (see :meth:`_PyEmitter._token`)."""
        chan = port.channel
        if is_boundary(chan):
            return self.layout.boundary_var(chan)
        code, fmt = self.raw(chan.producer.sig)
        var = self.temp_obj()
        self.line(f"SETOBJ({var}, mkfx({code}, {self.k(fmt)}));")
        return var

    def _int(self, port) -> Tuple[str, Optional[str]]:
        """``int()`` of an untimed input port's token: C of a raw integer
        and its type, or an object variable to convert (type None)."""
        chan = port.channel
        if is_boundary(chan):
            return self.layout.boundary_var(chan), None
        code, fmt = self.raw(chan.producer.sig)
        frac = fmt.frac_bits
        t = _ctype(vector_width(fmt) + max(-frac, 0))
        code = _cast(code, _ctype(vector_width(fmt)), t)
        if frac < 0:
            code = f"shl{_CBITS[t]}({code}, {-frac})"
        elif frac > 0:
            code = (f"({code} >= 0 ? {code} >> {frac} "
                    f": -((-{code}) >> {frac}))")
        return code, t

    def _index(self, port, depth: int, var: str) -> None:
        """``int(token) % depth`` of an address port into *var*."""
        code, ctype = self._int(port)
        if ctype is None:
            self.line(f"if (obj_mod({code}, {depth}, &{var})) goto fail;")
        elif ctype == "i64":
            self.line(f"{var} = pymod64({code}, {depth});")
        else:
            raise _NotNative(f"the {ctype} address of port {port.name!r}")

    def _true(self, port, var: str) -> None:
        """``int(token) != 0`` of an enable port into *var*."""
        code, ctype = self._int(port)
        if ctype is None:
            self.line(f"if (obj_true({code}, &{var})) goto fail;")
        else:
            self.line(f"{var} = ({code}) != 0;")

    def ram(self, ram: Ram) -> None:
        mem = self.k(ram.data)
        ports = ram.ports
        depth = ram.depth
        self.line(f"/* RAM {self.layout.stem(ram)} */")
        self.line("{")
        self.indent += "    "
        self.line("i64 a_; int we_;")
        for addr, out in _ram_reads(ram):
            chan = ports[out].channel
            self._index(ports[addr], depth, "a_")
            var = self.obj(self.layout.boundary_var(chan)) \
                if chan is not None else self.temp_obj()
            self.line(f"SETOBJ({var}, mem_get({mem}, a_));")
        self._true(ports["we"], "we_")
        if ram.write_gate:
            self.line("if (we_) {")
            self._true(ports["wgate"], "we_")
            self.line("}")
        self.line("if (we_) {")
        self.indent += "    "
        token = self._token(ports["wdata"])
        self._index(ports["waddr"], depth, "a_")
        self.line(f"if (mem_set({mem}, a_, {token})) goto fail;")
        self.count(ram, 1)
        self.indent = self.indent[:-4]
        self.line("}")
        self.count(ram, 0)
        self.indent = self.indent[:-4]
        self.line("}")

    def rom(self, rom: Rom) -> None:
        """The ROM's address into ``rom_<stem>``, where :meth:`convert`
        reads each consumer format's table; its token only where a watch
        or an untimed consumer takes it."""
        for word in rom.words:
            raw = word.raw if isinstance(word, Fx) else word
            if isinstance(raw, int):
                _ctype(raw.bit_length() + 1)
        stem = self.layout.stem(rom)
        index = f"rom_{stem}"
        self.raw_vars.setdefault(index, "i64")
        self.line(f"/* ROM {stem} */")
        code, ctype = self._int(rom.ports[rom.address_port])
        if ctype is None:
            self.line(f"if (obj_address({code}, &{index})) goto fail;")
        elif ctype == "i64":
            self.line(f"{index} = {code};")
        else:
            self.line(f"{{ i128 w_ = {code}; {index} = w_ >= 0 && "
                      f"w_ <= INT64_MAX ? (i64)w_ : -1; }}")
        self._rom_index[id(rom)] = index
        chan = rom.ports[rom.data_port].channel
        if chan is not None and (chan in self.layout.watch or any(
                port.sig is None for port in chan.consumers)):
            var = self.obj(self.layout.boundary_var(chan))
            self.line(f"SETOBJ({var}, table_token({self.k(rom.words)}, "
                      f"{index}));")
        self.count(rom, 0)

    @staticmethod
    def _table(rom: Rom, fmt: FxFormat, ctype: str) -> bytes:
        """The ROM's words quantized into *fmt*, as the bytes of an array
        of *ctype*: handed to the step through its context, so the
        library does not depend on the words.  A word that cannot be
        quantized without raising is left to the Python step, which
        raises at the cycle that reads it."""
        try:
            raws = [_quantize_raw(word, fmt) for word in rom.words]
        except (ArithmeticError, TypeError, ValueError) as error:
            raise _NotNative(f"a word of ROM {rom.name!r}: {error}")
        size = _CBITS[ctype] // 8
        return b"".join(raw.to_bytes(size, sys.byteorder, signed=True)
                        for raw in raws)

    def behaviour(self, process: UntimedProcess) -> None:
        proc = self.k(process)
        ports = process.in_ports()
        tokens = [self._token(port) for port in ports]
        stem = self.layout.stem(process)
        result = self.obj(f"res_{stem}")
        self.line(f"/* behaviour {stem} */")
        if tokens:
            names = self.k(tuple(port.name for port in ports))
            self.line(f"{{ PyObject *argv_[] = {{{', '.join(tokens)}}};")
            self.line(f"  SETOBJ({result}, PyObject_Vectorcall("
                      f"{self.k(process.behavior)}, argv_, 0, {names})); }}")
        else:
            self.line(f"SETOBJ({result}, PyObject_Vectorcall("
                      f"{self.k(process.behavior)}, NULL, 0, NULL));")
        for port in process.out_ports():
            if port.channel is None:
                continue
            var = self.obj(self.layout.boundary_var(port.channel))
            self.line(f"{{ PyObject *v_ = PyObject_GetItem({result}, "
                      f"{self.k(port.name)});")
            self.line(f"  if (!v_) {{ no_token({self.k(_no_token)}, {proc}, "
                      f"{result}); goto fail; }}")
            self.line(f"  Py_XSETREF({var}, v_); }}")
        self.count(process, 0)

    def watch(self, chan: Channel) -> None:
        layout = self.layout
        key = self.k(chan.name)
        guard = _c_guard(layout.watch_guard(chan), layout)
        if guard is not None:
            self.line(f"if ({guard}) {{")
            self.indent += "    "
        if is_boundary(chan):
            value = layout.boundary_var(chan)
        else:
            code, fmt = layout.watch_ref(chan)
            if fmt is None:
                raise _NotNative(f"the float-domain watch {chan.name!r}")
            self.declare(code, fmt)
            value = self.temp_obj()
            self.line(f"SETOBJ({value}, mkfx({code}, {self.k(fmt)}));")
        self.line(f"if (PyObject_SetItem(outputs, {key}, {value})) "
                  f"goto fail;")
        if guard is not None:
            self.indent = self.indent[:-4]
            self.line(f"}} else if (PyObject_SetItem(outputs, {key}, "
                      f"Py_None)) goto fail;")

    def end(self) -> None:
        """The module: prelude, state record, step, state/load, init."""
        global _prelude_text
        if _prelude_text is None:
            _prelude_text = _PRELUDE.read_text()
        regs = self.registers
        fsms = self.fsms
        out: List[str] = [_prelude_text]
        emit = out.append
        self.ctx[1] = tuple(self.counts)
        emit(f"#define NCTX {len(self.ctx)}")
        emit(f"#define NCOUNT {len(self.counts)}")
        out.extend(self._format_lines)
        emit("")
        emit("typedef struct {")
        emit("    PyObject_HEAD")
        emit("    PyObject *ctx;")
        emit("    /* Buffers on the count arrays, held from new() to clear. */")
        emit("    int held;")
        emit("    Py_buffer views[NCOUNT > 0 ? NCOUNT : 1];")
        for name, ctype in regs:
            emit(f"    {ctype} {name};")
        for pname in fsms:
            emit(f"    int fsm_{pname};")
        emit("} Step;")
        emit("")
        emit("#define CNT(i) ((i64 *)self->views[i].buf)")
        emit("")
        emit("static PyObject *")
        emit("step(Step *self, PyObject *const *args, Py_ssize_t nargs)")
        emit("{")
        emit("    if (nargs != 2) {")
        emit('        PyErr_SetString(PyExc_TypeError, '
             '"step(pins, outputs) takes 2 arguments");')
        emit("        return NULL;")
        emit("    }")
        emit("    if (!self->ctx) {")
        emit('        PyErr_SetString(PyExc_RuntimeError, "step cleared");')
        emit("        return NULL;")
        emit("    }")
        emit("    PyObject *pins = args[0], *outputs = args[1];")
        emit("    PyObject *const *k = ((PyTupleObject *)self->ctx)->ob_item;")
        emit("    PyObject *result = NULL;")
        emit("    int err = 0;")
        emit("    i128 q_ = 0;")
        emit("    (void)pins; (void)outputs; (void)k; (void)q_;")
        for var in self.obj_vars:
            emit(f"    PyObject *{var} = NULL;")
        for name, ctype in regs:
            emit(f"    {ctype} {name} = self->{name}, n_{name} = {name};")
        for pname in fsms:
            emit(f"    int fsm_{pname} = self->fsm_{pname}, tr_{pname} = -1, "
                 f"nfsm_{pname} = 0;")
        register_names = {name for name, _ctype in regs}
        for var, ctype in self.raw_vars.items():
            if var not in register_names:
                emit(f"    {ctype} {var} = 0;")
        out.extend(self.body)
        for name, _ctype in regs:
            emit(f"    self->{name} = n_{name};")
        for pname in fsms:
            emit(f"    self->fsm_{pname} = nfsm_{pname};")
        emit("    result = Py_None;")
        emit("    Py_INCREF(result);")
        emit("fail:")
        emit("    (void)err;")
        for var in self.obj_vars:
            emit(f"    Py_XDECREF({var});")
        emit("    return result;")
        emit("}")
        fields = [(name, ctype) for name, ctype in regs] + \
            [(f"fsm_{pname}", "int") for pname in fsms]
        emit("")
        emit("static PyObject *")
        emit("state(Step *self, PyObject *unused)")
        emit("{")
        emit(f"    PyObject *t = PyTuple_New({len(fields)}), *v;")
        emit("    if (!t)")
        emit("        return NULL;")
        for index, (name, ctype) in enumerate(fields):
            make = {"i64": "from64", "i128": "from128",
                    "int": "PyLong_FromLong"}[ctype]
            emit(f"    if (!(v = {make}(self->{name}))) goto fail;")
            emit(f"    PyTuple_SET_ITEM(t, {index}, v);")
        emit("    return t;")
        emit("fail:")
        emit("    Py_DECREF(t);")
        emit("    return NULL;")
        emit("}")
        emit("")
        emit("static PyObject *")
        emit("load(Step *self, PyObject *t)")
        emit("{")
        emit(f"    if (!PyTuple_Check(t) || PyTuple_GET_SIZE(t) != "
             f"{len(fields)}) {{")
        emit(f'        PyErr_SetString(PyExc_TypeError, "load() takes a '
             f'tuple of {len(fields)} values");')
        emit("        return NULL;")
        emit("    }")
        for index, (name, ctype) in enumerate(fields):
            item = f"PyTuple_GET_ITEM(t, {index})"
            if ctype == "int":
                emit(f"    long {name} = PyLong_AsLong({item});")
                emit(f"    if ({name} == -1 && PyErr_Occurred()) "
                     f"return NULL;")
            else:
                emit(f"    {ctype} {name};")
                emit(f"    if (as{_CBITS[ctype]}({item}, &{name})) "
                     f"return NULL;")
        for name, ctype in fields:
            emit(f"    self->{name} = {name};")
        emit("    Py_RETURN_NONE;")
        emit("}")
        emit(_STEP_TYPE)
        self.source = "\n".join(out) + "\n"


#: The Step type and the module init, the same for every design; the
#: module is :data:`repro.sim.cbuild.EXTENSION_NAME`.
_STEP_TYPE = """
static PyMethodDef Step_methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL, NULL},
    {"state", (PyCFunction)state, METH_NOARGS, NULL},
    {"load", (PyCFunction)load, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

/* The context holds the design's processes, and a behaviour may hold
 * the simulator: the collector must see through a step. */
static int
Step_traverse(Step *self, visitproc visit, void *arg)
{
    Py_VISIT(self->ctx);
    for (int i = 0; i < self->held; i++)
        Py_VISIT(self->views[i].obj);
    return 0;
}

static int
Step_clear(Step *self)
{
    for (int i = 0; i < self->held; i++)
        PyBuffer_Release(&self->views[i]);
    self->held = 0;
    Py_CLEAR(self->ctx);
    return 0;
}

static void
Step_dealloc(Step *self)
{
    PyObject_GC_UnTrack(self);
    Step_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject StepType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_step.Step",
    .tp_basicsize = sizeof(Step),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_dealloc = (destructor)Step_dealloc,
    .tp_traverse = (traverseproc)Step_traverse,
    .tp_clear = (inquiry)Step_clear,
    .tp_methods = Step_methods,
};

/* new(ctx): a step over the objects in ctx, every register zero.  The
 * context starts with the Fx type and a tuple of the count arrays of the
 * processes the step fires, two 64-bit words each. */
static PyObject *
new_step(PyObject *module, PyObject *ctx)
{
    if (!PyTuple_Check(ctx) || PyTuple_GET_SIZE(ctx) != NCTX
            || !PyTuple_Check(PyTuple_GET_ITEM(ctx, 1))
            || PyTuple_GET_SIZE(PyTuple_GET_ITEM(ctx, 1)) != NCOUNT) {
        PyErr_SetString(PyExc_TypeError, "new() takes the step's context");
        return NULL;
    }
    if (fx_init(PyTuple_GET_ITEM(ctx, 0)))
        return NULL;
    Step *self = PyObject_GC_New(Step, &StepType);
    if (!self)
        return NULL;
    memset((char *)self + sizeof(PyObject), 0,
           sizeof(Step) - sizeof(PyObject));
    Py_INCREF(ctx);
    self->ctx = ctx;
    for (int i = 0; i < NCOUNT; i++) {
        Py_buffer *view = &self->views[i];
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(PyTuple_GET_ITEM(ctx, 1), i),
                               view, PyBUF_WRITABLE | PyBUF_FORMAT) < 0)
            goto fail;
        self->held = i + 1;
        if (view->len != 2 * (Py_ssize_t)sizeof(i64)
                || view->itemsize != (Py_ssize_t)sizeof(i64)
                || !view->format || strcmp(view->format, "q")) {
            PyErr_SetString(PyExc_TypeError,
                            "a process's counts are an array('q') of two");
            goto fail;
        }
    }
    PyObject_GC_Track(self);
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static PyMethodDef module_methods[] = {
    {"new", new_step, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef step_module = {
    PyModuleDef_HEAD_INIT, "_repro_step", NULL, -1, module_methods,
};

PyMODINIT_FUNC
PyInit__repro_step(void)
{
    if (PyType_Ready(&StepType) < 0 || prelude_init() < 0)
        return NULL;
    return PyModule_Create(&step_module);
}"""


#: Structured guard of a scheduled assignment: ``None`` (always executes)
#: or ``(process, transition_indices)`` — the assignment runs when the
#: process's selected transition is one of the indices.  The emitter
#: renders it as a comparison (:func:`_py_guard`, :func:`_c_guard`).
Guard = Optional[Tuple[TimedProcess, Tuple[int, ...]]]


class SystemLayout(Elaboration):
    """The semantics of a system, apart from how a step renders them.

    The system's :class:`~repro.core.elaborate.Elaboration` (what each
    channel means: aliases, conversions and where they happen, the
    register inventory), plus what the compiled step adds to it:
    variable naming, FSM transition tables, the globally scheduled
    assignment order and its structured :data:`Guard` s.
    :class:`CompiledSimulator` renders it as Python and as C.
    """

    def __init__(self, system: System, watch: Sequence[Channel] = ()):
        super().__init__(system)
        self.watch = list(watch)
        self.sig_name = _Namer("s")
        self.reg_name = _Namer("r")
        # A process's stem, a pin's variable and an untimed output's:
        # each unique, as sanitized model names need not be.
        self._stem = _Namer("")
        self._pin_name = _Namer("pin")
        self._output_name = _Namer("u")
        #: Built by :meth:`watch_guard` on first use.
        self._assigned: Optional[Dict[
            Sig, Optional[Tuple[TimedProcess, Set[int]]]]] = None

        #: FSM state-name -> index per timed process (keyed by id).
        self.fsm_index: Dict[int, Dict[str, int]] = {}
        for process in self.timed:
            if process.fsm is not None:
                self.fsm_index[id(process)] = {
                    s.name: i for i, s in enumerate(process.fsm.states)
                }

        # A consumer that converts reads the variable of its own format
        # at that format's binary point (DESIGN.md §18); an unformatted
        # consumer of a boundary channel reads the value as driven
        # (float domain).
        self.overrides: Dict[Sig, Tuple[str, Optional[FxFormat]]] = {}
        for chan in self.formats:
            for consumer in chan.consumers:
                sig = consumer.sig
                if sig is not None and sig not in self.alias:
                    self.overrides[sig] = (self.boundary_var(chan, sig.fmt),
                                           sig.fmt)

        # The globally scheduled assignment order (with structured guards)
        # plus interleaved untimed processes.
        nodes, edges = self._build_graph()
        self.order = _toposort(nodes, edges, system.name)

    # -- signal references --------------------------------------------------------

    def stem(self, process) -> str:
        """The process's part of the step's names: ``st_<stem>``,
        ``tr_<stem>`` and ``res_<stem>``; ``fsm_<stem>`` and
        ``rom_<stem>`` in C."""
        return self._stem(process, process.name)

    def resolve(self, sig: Sig) -> Sig:
        alias = self.alias
        while sig in alias:
            sig = alias[sig]
        return sig

    def sig_ref(self, sig: Sig) -> Tuple[str, Optional[FxFormat]]:
        sig = self.resolve(sig)
        if isinstance(sig, Register):
            return self.reg_name(sig, sig.name), sig.fmt
        return self.sig_name(sig, sig.name), sig.fmt

    def sig_ref_full(self, sig: Sig) -> Tuple[str, Optional[FxFormat]]:
        if sig in self.overrides:
            return self.overrides[sig]
        return self.sig_ref(sig)

    def boundary_var(self, chan: Channel,
                     fmt: Optional[FxFormat] = None) -> str:
        """The step variable of a channel's value.

        With *fmt* None, the value as driven (a pin's value from the
        caller, an untimed output as its behaviour returned it, a timed
        producer's signal); otherwise that value quantized into *fmt*,
        one of ``formats[chan]``, as a raw integer.
        """
        producer = chan.producer
        if producer is None:
            var = self._pin_name(chan, chan.name)
        elif producer.sig is None:
            var = self._output_name(
                producer, f"{_sanitize(producer.process.name)}"
                          f"_{_sanitize(producer.name)}")
        else:
            var = self.sig_ref(producer.sig)[0]
        if fmt is None:
            return var
        return f"q{self.formats[chan].index(fmt)}_{var}"

    # The lowering resolves aliases up front so one producing signal is
    # one IR read; override signals keep their identity (their variable
    # is the canonical reference).
    def ir_resolve(self, sig: Sig) -> Sig:
        if sig in self.overrides:
            return sig
        return self.resolve(sig)

    def ir_leaf_fmt(self, sig: Sig) -> Optional[FxFormat]:
        return self.sig_ref_full(sig)[1]

    def new_lowerer(self) -> Lowerer:
        return Lowerer(leaf_fmt=self.ir_leaf_fmt, resolve=self.ir_resolve)

    def watch_ref(self, chan: Channel) -> Tuple[str, Optional[FxFormat]]:
        """Variable reference and format of one watched channel."""
        if is_boundary(chan):
            return self.boundary_var(chan), None
        # A watched register sees the pre-edge value, like the cycle
        # scheduler (the commit happens after the watch emission).
        return self.sig_ref_full(chan.producer.sig)

    def watch_guard(self, chan: Channel) -> Guard:
        """When a watched channel holds a token: every cycle (None), or
        the cycles whose selected transition assigns its plain signal.

        A register or a boundary channel always has a value.  A plain
        signal assigned only in some of its process's transitions has a
        token only in the cycles that select one of them, as in the cycle
        scheduler.
        """
        if is_boundary(chan):
            return None
        sig = self.resolve(chan.producer.sig)
        if sig.is_register():
            return None
        if self._assigned is None:
            self._assigned = self._assigning_transitions()
        found = self._assigned.get(sig)
        if found is None:
            return None
        process, transitions = found
        if len(transitions) == len(_global_transitions(process)):
            return None
        return process, tuple(sorted(transitions))

    def _assigning_transitions(
            self) -> Dict[Sig, Optional[Tuple[TimedProcess, Set[int]]]]:
        """Each assigned signal's process and the transitions whose
        assignments write it, or None where an assignment of it is
        unguarded; one pass over the schedule."""
        assigned: Dict[Sig, Optional[Tuple[TimedProcess, Set[int]]]] = {}
        for node in self.order:
            if not isinstance(node, tuple):
                continue
            sig = self.resolve(node[1].target)
            guard = node[2]
            if guard is None:
                assigned[sig] = None
            elif sig not in assigned:
                assigned[sig] = (guard[0], set(guard[1]))
            elif assigned[sig] is not None:
                assigned[sig][1].update(guard[1])
        return assigned

    # -- schedule -----------------------------------------------------------------

    def _build_graph(self):
        """Nodes: (process, assignment, guard) triples and untimed processes."""
        nodes: List = []
        produces: Dict[Sig, object] = {}
        resolve = self.resolve

        for process in self.timed:
            transitions = _global_transitions(process)
            sfg_guard: Dict[int, Guard] = {}
            for sfg in process.static_sfgs:
                sfg_guard[id(sfg)] = None
            if process.fsm is not None:
                sfg_trs: Dict[int, List[int]] = {}
                for t_index, transition in enumerate(transitions):
                    for sfg in transition.sfgs:
                        sfg_trs.setdefault(id(sfg), []).append(t_index)
                for sfg in process.fsm.sfgs():
                    if id(sfg) in sfg_guard:
                        continue
                    trs = sfg_trs.get(id(sfg), [])
                    if len(trs) == len(transitions):
                        sfg_guard[id(sfg)] = None
                    else:
                        sfg_guard[id(sfg)] = (process, tuple(sorted(trs)))
            for sfg in process.all_sfgs():
                guard = sfg_guard[id(sfg)]
                for assignment in sfg.ordered_assignments():
                    node = (process, assignment, guard)
                    nodes.append(node)
                    target = resolve(assignment.target)
                    if not target.is_register():
                        produces[target] = node

        nodes.extend(self.untimed)
        # A converted read follows its channel's producer, as an aliased
        # read follows the signal it resolves to.
        for chan in self.formats:
            producer = chan.producer
            if producer is not None:
                source = (producer.process if producer.sig is None
                          else produces.get(resolve(producer.sig)))
                for consumer in chan.consumers:
                    if source is not None and consumer.sig in self.overrides:
                        produces[consumer.sig] = source

        edges: Dict[int, List] = {id(n): [] for n in nodes}

        def add_edge(src_node, dst_node):
            edges[id(src_node)].append(dst_node)

        for node in nodes:
            if isinstance(node, tuple):
                _process, assignment, _guard = node
                for sig in assignment.reads():
                    source = produces.get(resolve(sig))
                    if source is not None and source is not node:
                        add_edge(source, node)
            else:
                process = node
                for port in process.in_ports():
                    src_port = port.channel.producer
                    if src_port is None:
                        continue
                    if isinstance(src_port.process, UntimedProcess):
                        add_edge(src_port.process, node)
                    else:
                        src_sig = resolve(src_port.sig)
                        if src_sig.is_register():
                            continue
                        source = produces.get(src_sig)
                        if source is not None:
                            add_edge(source, node)
        return nodes, edges


class _Fanout:
    """One schedule walk, every spelling: each call goes to each emitter
    in turn, the Python reference first, so the layout's names are
    allocated in its order.  An emitter that cannot render a construct
    (:class:`_NotNative`) drops out."""

    def __init__(self, emitters: Sequence[object]):
        self.emitters = list(emitters)

    def __getattr__(self, name: str) -> Callable[..., None]:
        def call(*args) -> None:
            for emitter in list(self.emitters):
                try:
                    getattr(emitter, name)(*args)
                except _NotNative:
                    self.emitters.remove(emitter)

        return call


class CompiledSimulator:
    """Generate, compile and run an application-specific simulator.

    ``passes`` picks the IR pass pipeline run over every lowered block
    before emission: ``"engine"`` by default (the default passes plus
    ``elide_quantize``, which drops every saturation, wrap fold and
    overflow check the block's interval facts prove can never fire),
    any other :data:`~repro.ir.passes.PIPELINES` name, or an explicit
    ``(name, fn)`` sequence; ``passes=()`` renders the naive lowering,
    the ablation baseline.  ``validate`` turns on translation
    validation of every pass application (``"sampled"`` /
    ``"exhaustive"``, see :mod:`repro.ir.equiv`) — an inequivalent
    rewrite aborts construction with
    :class:`~repro.ir.equiv.PassEquivalenceError` naming the pass.
    :attr:`pass_stats` holds the per-pass statistics (also published to
    ``obs.metrics`` when a capture is attached); :attr:`ir_op_count` /
    :attr:`ir_op_count_raw` report the step function's IR op totals
    after / before optimization.

    One walk of the schedule renders the step twice (DESIGN.md §24): as
    Python, :attr:`source`, the reference, and as C, :attr:`c_source`, a
    CPython extension module built once per digest by
    :mod:`repro.sim.cbuild`.  :attr:`backend` names the step that runs:
    ``"native"``, or ``"python"`` when the design has a float-domain
    value or one wider than 127 bits, the host cannot build the module
    (a warning says why: once per process for a host without the
    compiler or headers, once per design for a source the compiler
    rejects) or the capture asks for emitted instrumentation.
    """

    def __init__(self, system: System, watch: Sequence[Channel] = (),
                 passes=None, validate: str = "off", obs=None):
        self.system = system
        self.layout = SystemLayout(system, watch)
        self.watch = self.layout.watch
        self.pass_manager = PassManager(
            "engine" if passes is None else passes, validate=validate)
        self.cycle = 0
        self.outputs: Dict[str, object] = {}
        self._env: Dict[str, object] = {}
        #: Optional :class:`repro.obs.Capture`.  Instrumentation is
        #: *emitted into the generated source* only when the capture
        #: asks for it — a bare simulator contains no obs code at all.
        self.obs = obs
        self._obs_profile = obs.profile if obs is not None else None
        self._obs_block_labels: List[str] = []
        self._obs_hook = None
        if obs is not None:
            timed = self.layout.timed
            self._obs_hook = obs.compiled_observer(
                [(name, reg) for reg, name in self.layout.registers.items()],
                [(f"{p.name}/{p.fsm.name}", p.fsm)
                 for p in timed if p.fsm is not None])
        #: IR ops across all blocks, before and after the pass pipeline.
        self.ir_op_count_raw = 0
        self.ir_op_count = 0
        python = _PyEmitter(self.layout, self._obs_hook, self._obs_profile,
                            self._obs_block_labels)
        emitters: List[object] = [python]
        if _NATIVE_STEP and _native_failure is None \
                and self._obs_hook is None and self._obs_profile is None:
            emitters.append(_CEmitter(self.layout))
        native = self._generate(emitters)
        self.source = python.source
        #: The C spelling of the step, when the design has one.
        self.c_source: Optional[str] = \
            native.source if native is not None else None
        #: Per-pass statistics across every block (see ``PassManager``).
        self.pass_stats = self.pass_manager.stats
        if obs is not None:
            self.pass_manager.publish(obs.metrics)
        self.backend = "python"
        if native is not None:
            self._load_native(native)
        if self.backend == "python":
            self._env.update(python.env)
            code = compile(self.source, f"<compiled:{system.name}>", "exec")
            exec(code, self._env)
            self._step, self._dump, self._dump_raw, self._load = \
                self._env["_make_step"]()
        if obs is not None:
            obs.metrics.counter(f"compiled/backend/{self.backend}").inc()

    # -- public API ----------------------------------------------------------------

    def step(self, pins: Optional[Dict[str, object]] = None) -> None:
        """Simulate one clock cycle; *pins* drives primary-input channels."""
        self._step(pins or {}, self.outputs)
        self.cycle += 1

    def run(self, cycles: int,
            pins_fn: Optional[Callable[[int], Dict[str, object]]] = None) -> None:
        """Simulate *cycles* cycles, driving pins from ``pins_fn(cycle)``."""
        step = self._step
        outputs = self.outputs
        if pins_fn is None:
            empty: Dict[str, object] = {}
            for _ in range(cycles):
                step(empty, outputs)
            self.cycle += cycles
            return
        for _ in range(cycles):
            step(pins_fn(self.cycle) or {}, outputs)
            self.cycle += 1

    def output(self, chan: Channel):
        """The latest value on a watched channel, in Fx/float domain."""
        return self.outputs[chan.name]

    def snapshot(self) -> Dict[str, object]:
        """Current register values (and FSM states) by name, in Fx domain."""
        return self._dump()

    def save_state(self) -> Dict[str, object]:
        """Deterministic checkpoint: raw register values, FSM states,
        every memory's contents and the cycle."""
        return {"cycle": self.cycle, "state": self._dump_raw(),
                "memories": save_memories(self.layout.memories)}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a checkpoint taken with :meth:`save_state`.

        The memories are written back in place, since the step holds
        their lists.
        """
        restore_memories(self.layout.memories, state["memories"])
        self._load(state["state"])
        self.cycle = state["cycle"]

    # -- code generation -----------------------------------------------------------

    def _optimized(self, block: IRBlock) -> IRBlock:
        self.ir_op_count_raw += block.op_count()
        block = self.pass_manager.run(block)
        self.ir_op_count += block.op_count()
        return block

    def _generate(self, emitters: Sequence[object]) -> Optional["_CEmitter"]:
        """Walk the schedule once, every emitter spelling each construct;
        the C emitter when it rendered the whole step, else None."""
        layout = self.layout
        out = _Fanout(emitters)
        out.begin()

        def convert_entering(chan: Channel) -> None:
            """Convert a value where it enters, but for ERROR formats."""
            for fmt in layout.formats[chan]:
                if fmt.overflow is not Overflow.ERROR:
                    out.convert(chan, fmt)

        # Pins: the value as driven, then once per consumer format.
        for chan in layout.pins:
            out.pin(chan)
            convert_entering(chan)
        # A timed producer's value enters where it is stored: at the
        # top for a register, after each assignment for a plain signal.
        entering: Dict[Sig, List[Channel]] = {}
        for chan in layout.formats:
            if not is_boundary(chan):
                source = layout.resolve(chan.producer.sig)
                entering.setdefault(source, []).append(chan)
                if source.is_register():
                    convert_entering(chan)

        # Phase 0: transition selection for every FSM, each guard
        # lowered and optimized once.
        for process in layout.timed:
            if process.fsm is None:
                continue
            states = layout.fsm_index[id(process)]
            rows = []
            for state in process.fsm.states:
                entries = []
                for t_index, transition in enumerate(
                        _global_transitions(process)):
                    if transition.source is not state:
                        continue
                    cond = transition.condition
                    if cond.expr is None and cond.negated:
                        continue  # a 'never' guard can never fire
                    target = states[transition.target.name]
                    if cond.is_always():
                        entries.append((t_index, None, False, target))
                        break
                    lowerer = layout.new_lowerer()
                    lowerer.lower_expr(cond.expr)
                    entries.append((t_index, self._optimized(lowerer.block),
                                    cond.negated, target))
                rows.append((state, entries))
            out.select(process, rows)

        def flush_group(group: List[tuple]) -> None:
            """Lower one same-guard run of assignments as a single block."""
            if not group:
                return
            out.open_group(group[0][2])
            checked: List[Tuple[Channel, FxFormat]] = []
            for _process, assignment, _guard in group:
                for read in layout.checked_reads.get(assignment, ()):
                    if read not in checked:
                        checked.append(read)
                        out.convert(*read)
            prof_index = None
            if self._obs_profile is not None:
                # Self-profiling: bracket the rendered block with clock
                # reads, attributed to the block's first store target.
                g_process, g_assignment, _ = group[0]
                label = f"{g_process.name}/{g_assignment.target.name}"
                if len(group) > 1:
                    label += f"(+{len(group) - 1})"
                prof_index = len(self._obs_block_labels)
                self._obs_block_labels.append(label)
                out.profile_open(prof_index)
            lowerer = layout.new_lowerer()
            for _process, assignment, _guard in group:
                lowerer.lower_assignment(assignment)
            block = self._optimized(lowerer.block)
            out.block(block)
            for store in block.stores:
                out.store(store)
                if not isinstance(store.target, Register):
                    for chan in entering.get(store.target, ()):
                        convert_entering(chan)
            if prof_index is not None:
                out.profile_close(prof_index)
            out.close_group()

        # Main body: assignments and untimed calls in global order.
        group: List[tuple] = []
        for node in layout.order:
            if isinstance(node, tuple):
                # An ERROR conversion opens its block, so one of a value
                # stored in the current block starts a new block.
                sources = {layout.resolve(chan.producer.sig)
                           for chan, _fmt in layout.checked_reads.get(
                               node[1], ()) if not is_boundary(chan)}
                if group and (group[0][2] != node[2] or sources and any(
                        layout.resolve(g[1].target) in sources
                        for g in group)):
                    flush_group(group)
                    group = []
                group.append(node)
            else:
                flush_group(group)
                group = []
                # A RAM or ROM whose class keeps its behaviour is
                # emitted inline.
                if isinstance(node, Ram) \
                        and type(node).behavior is Ram.behavior:
                    out.ram(node)
                elif isinstance(node, Rom) \
                        and type(node).behavior is Rom.behavior:
                    out.rom(node)
                else:
                    out.behaviour(node)
                for port in node.out_ports():
                    if port.channel is not None:
                        convert_entering(port.channel)
        flush_group(group)

        # Watched outputs: None in a cycle without a token.
        for chan in self.watch:
            out.watch(chan)
        out.end()
        native = [e for e in out.emitters if isinstance(e, _CEmitter)]
        # C names follow model names, which may hold any letter.
        if native and not native[0].source.isascii():
            return None
        return native[0] if native else None

    def _load_native(self, native: "_CEmitter") -> None:
        """Build or load the C step and run it; on failure warn and
        leave the Python step to run.  A host that cannot build warns
        once per process; a source the compiler rejects warns once and
        runs the Python step for its design only."""
        global _native_failure
        if native.source in _failed_sources:
            return
        try:
            module = cbuild.extension(native.source)
        except cbuild.BuildError as error:
            if isinstance(error, cbuild.CompileError):
                _failed_sources.add(native.source)
                scope = "this design"
            else:
                _native_failure = str(error)
                scope = "compiled simulation"
            warnings.warn(f"native compiled step unavailable, {scope} "
                          f"runs the Python step: {error}", RuntimeWarning,
                          stacklevel=3)
            return
        layout = self.layout
        registers = list(layout.registers)
        fsms = [p for p in layout.timed if p.fsm is not None]
        names = [reg.name for reg in registers]
        formats = [reg.fmt for reg in registers]
        state_keys = [f"{p.name}.state" for p in fsms]
        state_names = [list(layout.fsm_index[id(p)]) for p in fsms]
        state_index = [layout.fsm_index[id(p)] for p in fsms]
        step = module.new(tuple(native.ctx))
        step.load(tuple(
            [reg.init.raw if isinstance(reg.init, Fx) else reg.init
             for reg in registers]
            + [index[p.fsm.initial_state.name]
               for p, index in zip(fsms, state_index)]))
        count = len(names)

        def dump_raw() -> Dict[str, object]:
            values = step.state()
            state: Dict[str, object] = dict(zip(names, values))
            for key, states, index in zip(state_keys, state_names,
                                          values[count:]):
                state[key] = states[index]
            return state

        def dump() -> Dict[str, object]:
            values = step.state()
            state: Dict[str, object] = {
                name: Fx(raw=raw, fmt=fmt)
                for name, raw, fmt in zip(names, values, formats)}
            for key, states, index in zip(state_keys, state_names,
                                          values[count:]):
                state[key] = states[index]
            return state

        def load(state: Dict[str, object]) -> None:
            step.load(tuple([state[name] for name in names]
                            + [index[state[key]] for key, index
                               in zip(state_keys, state_index)]))

        self._native = step
        self._step = step.step
        self._dump, self._dump_raw, self._load = dump, dump_raw, load
        self.backend = "native"


#: False inside :func:`_python_step`.
_NATIVE_STEP = True
#: Why the native step is unavailable in this process (None until the
#: host failed to build one).
_native_failure: Optional[str] = None
#: The C sources the compiler rejected in this process.
_failed_sources: Set[str] = set()


@contextmanager
def _python_step():
    """Simulators built inside this block run the Python step.

    A private seam: the tests hold both spellings to the same values,
    as :func:`repro.synth.gatesim._python_kernel` does for the gate
    kernels.
    """
    global _NATIVE_STEP
    saved, _NATIVE_STEP = _NATIVE_STEP, False
    try:
        yield
    finally:
        _NATIVE_STEP = saved


def _global_transitions(process: TimedProcess):
    if process.fsm is None:
        return []
    return list(process.fsm.transitions)


def _no_token(process: UntimedProcess, result) -> None:
    """Raise the cycle scheduler's error if *result* lacks an output token.

    Called by the generated step when extracting a behaviour's outputs
    failed; returns (and the step re-raises the original error) when
    every output is there after all.
    """
    results = result or {}
    for port in process.out_ports():
        if port.name not in results:
            raise SimulationError(
                f"untimed process {process.name!r} produced no token for "
                f"output {port.name!r}"
            )


def _guard_affinity(node) -> object:
    """Grouping key for a node's guard (None for untimed processes).

    Assignment nodes are ``(process, assignment, guard)`` with guard
    either None (always runs) or ``(process, transition_indices)``.
    """
    if not isinstance(node, tuple):
        return ("untimed", id(node))
    guard = node[2]
    if guard is None:
        return None
    return (id(guard[0]), guard[1])


def _toposort(nodes, edges, system_name: str):
    indegree: Dict[int, int] = {id(n): 0 for n in nodes}
    by_id = {id(n): n for n in nodes}
    for src_id, targets in edges.items():
        for target in targets:
            indegree[id(target)] += 1
    from collections import deque

    # Stable order with guard affinity: among ready nodes prefer the
    # first with the same guard as the node just emitted, falling back
    # to declaration order.  Longer same-guard runs mean more
    # assignments lowered into one IRBlock, so CSE shares subexpressions
    # *across* SFG boundaries; the tie-break keeps the order
    # deterministic and the fallback keeps it the old declaration order.
    order = []
    ready = deque(n for n in nodes if indegree[id(n)] == 0)
    last_guard = object()
    while ready:
        node = ready.popleft()
        if _guard_affinity(node) != last_guard:
            for index, candidate in enumerate(ready):
                if _guard_affinity(candidate) == last_guard:
                    ready.appendleft(node)
                    del ready[index + 1]
                    node = candidate
                    break
        last_guard = _guard_affinity(node)
        order.append(node)
        for target in edges[id(node)]:
            indegree[id(target)] -= 1
            if indegree[id(target)] == 0:
                ready.append(target)
    if len(order) != len(nodes):
        stuck = [by_id[i] for i, d in indegree.items() if d > 0]
        names = []
        for node in stuck[:6]:
            if isinstance(node, tuple):
                names.append(f"{node[0].name}:{node[1].target.name}")
            else:
                names.append(node.name)
        raise CodegenError(
            f"system {system_name!r} has a combinational loop; compiled "
            f"simulation needs an acyclic union graph (stuck: {names})"
        )
    return order
