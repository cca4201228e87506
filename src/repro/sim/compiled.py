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
* values enter from outside only at the boundary — primary-input pins
  and untimed processes' outputs — and are quantized there once into
  each formatted consumer's format, as the cycle scheduler coerces a
  token into the reading signal's format (an ``Overflow.ERROR`` format,
  which can raise, is quantized where a marked assignment reads it);
  untimed behaviours are called directly, with ``Fx`` inputs built
  without a second range check (:attr:`SystemLayout.boundary`,
  DESIGN.md §18);
* the FSM transition selection of every component is emitted first (the
  conditions depend only on registers, so this is the scheduler's phase 0);
* all assignments of all components are emitted in one global topological
  order, guarded by their component's selected-transition index;
  consecutive same-guard assignments are lowered as one straight-line IR
  block, so common subexpressions are computed once per cycle;
* register updates commit at the end of the generated function.

The generated source is compiled with :func:`compile` and executed — the
Python equivalent of regenerating C++ and running it through the compiler.

Semantics vs rendering
----------------------
Everything about *what* a cycle computes — channel aliasing, register
collection, FSM transition tables, the global assignment schedule and its
guards — lives in :class:`SystemLayout`.  *How* that schedule is spelled
is an emitter decision: :class:`_PyEmitter` renders it as Python
integers.  The layout never knows about the spelling.

Semantics note: under the cycle scheduler a channel whose producer is
inactive carries *no token*; the compiled simulator models the same net as
a wire that holds its last value (what the synthesized hardware does).
Designs that never read a stale token behave identically under both.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..fixpt import Fx, FxFormat, Overflow, Rounding
from ..core.errors import CodegenError, SimulationError
from ..core.process import TimedProcess, UntimedProcess
from ..core.sfg import Assignment
from ..core.signal import Register, Sig
from ..core.system import Channel, System
from ..ir import IRBlock, Lowerer, PassManager
from ..ir.ops import LEAF_OPS


class _Namer:
    """Allocates stable, unique Python identifiers for model objects."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._names: Dict[int, str] = {}
        self._used: Set[str] = set()
        self._counter = itertools.count()

    def __call__(self, obj, hint: str = "") -> str:
        name = self._names.get(id(obj))
        if name is None:
            base = f"{self.prefix}_{_sanitize(hint)}" if hint else self.prefix
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
    """Renders lowered IR blocks as Python source.

    Ops used more than once become ``_tN = ...`` temporaries; single-use
    ops inline into their consumer.  Ops whose subtree can raise (an
    ``Overflow.ERROR`` quantize) always inline, preserving the lazy
    evaluation of untaken mux branches.
    """

    def __init__(self, sig_ref: Callable[[Sig], Tuple[str, Optional[FxFormat]]]):
        self.sig_ref = sig_ref
        self._temps = itertools.count()

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


#: Structured guard of a scheduled assignment: ``None`` (always executes)
#: or ``(process, transition_indices)`` — the assignment runs when the
#: process's selected transition is one of the indices.  The emitter
#: renders it as a Python comparison (:meth:`CompiledSimulator._guard_code`).
Guard = Optional[Tuple[TimedProcess, Tuple[int, ...]]]


class SystemLayout:
    """The semantics of a system, apart from how a step renders them.

    One :class:`SystemLayout` answers every *what-does-a-cycle-compute*
    question — channel aliasing, boundary formats, register/FSM inventories,
    the globally scheduled assignment order and its structured
    :data:`Guard` s — without committing to a rendering.
    :class:`CompiledSimulator` renders it as Python source.
    """

    def __init__(self, system: System, watch: Sequence[Channel] = ()):
        self.system = system
        self.watch = list(watch)
        self.timed: List[TimedProcess] = system.timed_processes()
        self.untimed: List[UntimedProcess] = system.untimed_processes()
        self.sig_name = _Namer("s")
        self.reg_name = _Namer("r")

        # Map every timed input-port signal to its channel's producing sig.
        alias: Dict[Sig, Sig] = {}
        self.pin_channels: List[Channel] = []
        #: Boundary channels — primary-input pins and untimed outputs,
        #: whose values come from outside the generated step — mapped
        #: to the distinct formats of their formatted timed consumers.
        #: Each (channel, format) pair is one raw-integer variable of the
        #: step (:meth:`boundary_var`), quantized once where the value
        #: enters (DESIGN.md §18).
        self.boundary: Dict[Channel, List[FxFormat]] = {}
        for chan in system.channels:
            producer = chan.producer
            driver_sig = None
            if producer is not None and producer.sig is not None:
                driver_sig = producer.sig
            for consumer in chan.consumers:
                if consumer.sig is not None and driver_sig is not None:
                    alias[consumer.sig] = driver_sig
            if producer is None:
                self.pin_channels.append(chan)
            elif not isinstance(producer.process, UntimedProcess):
                continue
            fmts = self.boundary[chan] = []
            for consumer in chan.consumers:
                fmt = consumer.sig.fmt if consumer.sig is not None else None
                if fmt is not None and fmt not in fmts:
                    fmts.append(fmt)
        self._alias = alias
        #: Built by :meth:`watch_guard` on first use.
        self._assigned: Optional[Dict[
            Sig, Optional[Tuple[TimedProcess, Set[int]]]]] = None

        # Collect all registers and FSMs.  The hierarchical names are the
        # same ones repro.obs.register_watchlist derives for the cycle
        # scheduler — identical traversal, so cross-engine toggle counts
        # line up signal for signal.
        self.registers: List[Register] = []
        seen_regs: Set[int] = set()
        self.obs_regs: List[Tuple[str, Register]] = []
        for process in self.timed:
            for sfg in process.all_sfgs():
                for reg in sfg.registers():
                    if id(reg) not in seen_regs:
                        seen_regs.add(id(reg))
                        self.registers.append(reg)
                        self.obs_regs.append(
                            (f"{process.name}/{reg.name}", reg))

        #: FSM state-name -> index per timed process (keyed by id).
        self.fsm_index: Dict[int, Dict[str, int]] = {}
        for process in self.timed:
            if process.fsm is not None:
                self.fsm_index[id(process)] = {
                    s.name: i for i, s in enumerate(process.fsm.states)
                }

        # A timed consumer of a boundary channel reads the variable of its
        # own format at that format's binary point, as the cycle scheduler
        # coerces a token into the reading signal's format; an
        # unformatted consumer reads the value as driven (float domain).
        self.overrides: Dict[Sig, Tuple[str, Optional[FxFormat]]] = {}
        for chan in self.boundary:
            for consumer in chan.consumers:
                sig = consumer.sig
                if sig is not None:
                    self.overrides[sig] = (self.boundary_var(chan, sig.fmt),
                                           sig.fmt)

        #: The ``Overflow.ERROR`` boundary formats each assignment reads
        #: through its input cone, as (channel, format) pairs.  Such a
        #: conversion can raise, so it happens where a marked assignment
        #: reads the port — where the cycle scheduler copies the token
        #: into the port's signal — not where the value enters.
        self.checked_reads: Dict[Assignment,
                                 List[Tuple[Channel, FxFormat]]] = {}
        for process in self.timed:
            in_ports = {port.sig: port for port in process.in_ports()
                        if port.sig is not None}
            checked = sorted(
                (sig for sig, port in in_ports.items()
                 if sig.fmt is not None
                 and sig.fmt.overflow is Overflow.ERROR
                 and port.channel in self.boundary),
                key=lambda s: s.name)
            if not checked:
                continue
            for sfg in process.all_sfgs():
                deps = sfg.assignment_input_deps(set(in_ports))
                for assignment in sfg.ordered_assignments():
                    reads = [(in_ports[sig].channel, sig.fmt)
                             for sig in checked if sig in deps[assignment]]
                    if reads:
                        self.checked_reads[assignment] = reads

        # The globally scheduled assignment order (with structured guards)
        # plus interleaved untimed processes.
        nodes, edges = self._build_graph()
        self.order = _toposort(nodes, edges, system.name)

    # -- signal references --------------------------------------------------------

    def resolve(self, sig: Sig) -> Sig:
        alias = self._alias
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
        """The step variable of a boundary channel.

        With *fmt* None, the value as driven (a pin's value from the
        caller, an untimed output as its behaviour returned it);
        otherwise that value quantized into *fmt*, one of
        ``boundary[chan]``, as a raw integer.
        """
        producer = chan.producer
        if producer is None:
            var = f"pin_{_sanitize(chan.name)}"
        else:
            var = (f"u_{_sanitize(producer.process.name)}"
                   f"_{_sanitize(producer.name)}")
        if fmt is None:
            return var
        return f"q{self.boundary[chan].index(fmt)}_{var}"

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
        if chan in self.boundary:
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
        if chan in self.boundary:
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

        for process in self.untimed:
            nodes.append(process)
            for port in process.out_ports():
                chan = port.channel
                if chan is None:
                    continue
                for consumer in chan.consumers:
                    if consumer.sig is not None:
                        produces[consumer.sig] = process

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
                    chan = port.channel
                    if chan is None or chan.producer is None:
                        continue
                    src_port = chan.producer
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


class CompiledSimulator:
    """Generate, compile and run an application-specific simulator.

    ``optimize=True`` (the default) runs the IR pass pipeline over
    every lowered block before emission; ``optimize=False`` renders the
    naive lowering, the ablation baseline.  ``passes`` picks the
    pipeline: ``"engine"`` by default (the default passes plus
    ``elide_quantize``, which drops every saturation, wrap fold and
    overflow check the block's interval facts prove can never fire),
    any other :data:`~repro.ir.passes.PIPELINES` name, or an explicit
    ``(name, fn)`` sequence.  ``validate`` turns on translation
    validation of every pass application (``"sampled"`` /
    ``"exhaustive"``, see :mod:`repro.ir.equiv`) — an inequivalent
    rewrite aborts construction with
    :class:`~repro.ir.equiv.PassEquivalenceError` naming the pass.
    :attr:`pass_stats` holds the per-pass statistics (also published to
    ``obs.metrics`` when a capture is attached); :attr:`ir_op_count` /
    :attr:`ir_op_count_raw` report the step function's IR op totals
    after / before optimization.
    """

    def __init__(self, system: System, watch: Sequence[Channel] = (),
                 optimize: bool = True, passes=None, validate: str = "off",
                 obs=None):
        self.system = system
        self.layout = SystemLayout(system, watch)
        self.watch = self.layout.watch
        self.optimize = optimize
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
        #: IR ops across all blocks, before and after the pass pipeline.
        self.ir_op_count_raw = 0
        self.ir_op_count = 0
        self.source = self._generate()
        #: Per-pass statistics across every block (see ``PassManager``).
        self.pass_stats = self.pass_manager.stats
        if obs is not None:
            self.pass_manager.publish(obs.metrics)
        code = compile(self.source, f"<compiled:{system.name}>", "exec")
        exec(code, self._env)
        self._step, self._dump, self._dump_raw, self._load = \
            self._env["_make_step"]()

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
        """Deterministic checkpoint: raw register values, FSM states, cycle."""
        return {"cycle": self.cycle, "state": self._dump_raw()}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a checkpoint taken with :meth:`save_state`."""
        self._load(state["state"])
        self.cycle = state["cycle"]

    # -- code generation -----------------------------------------------------------

    def _optimized(self, block: IRBlock) -> IRBlock:
        self.ir_op_count_raw += block.op_count()
        if self.optimize:
            block = self.pass_manager.run(block)
        self.ir_op_count += block.op_count()
        return block

    @staticmethod
    def _guard_code(guard: Guard) -> Optional[str]:
        """Render a structured guard as a one-lane Python condition."""
        if guard is None:
            return None
        process, trs = guard
        pname = _sanitize(process.name)
        if len(trs) == 1:
            return f"tr_{pname} == {trs[0]}"
        options = ", ".join(str(t) for t in trs)
        return f"tr_{pname} in ({options})"

    def _generate(self) -> str:
        layout = self.layout
        timed = layout.timed
        sig_name = layout.sig_name
        reg_name = layout.reg_name
        registers = layout.registers
        fsm_index = layout.fsm_index
        emitter = _PyEmitter(layout.sig_ref_full)

        # -- emit -------------------------------------------------------------------
        lines: List[str] = []
        emit = lines.append
        emit("from repro.fixpt import Fx, quantize_raw as _quantize_raw")
        emit("from repro.fixpt.fixed import _fx")
        emit("from repro.sim.compiled import _check_overflow, _no_token")
        emit("")
        emit("def _make_step():")

        # Closure state: registers, FSM states, untimed behaviors, formats.
        for reg in registers:
            init = reg.init.raw if isinstance(reg.init, Fx) else repr(reg.init)
            emit(f"    {reg_name(reg, reg.name)} = {init}")
        for process in timed:
            if process.fsm is not None:
                states = fsm_index[id(process)]
                emit(f"    st_{_sanitize(process.name)} = "
                     f"{states[process.fsm.initial_state.name]}")

        body: List[str] = []
        b = body.append

        def convert(chan: Channel, fmt: FxFormat, indent: str) -> None:
            """Quantize a boundary channel's value into one of its formats."""
            b(f"{indent}{layout.boundary_var(chan, fmt)} = "
              f"_quantize_raw({layout.boundary_var(chan)}, {_fmt_ref(fmt)})")

        def convert_entering(chan: Channel) -> None:
            """Convert a value where it enters, but for ERROR formats."""
            for fmt in layout.boundary[chan]:
                if fmt.overflow is not Overflow.ERROR:
                    convert(chan, fmt, "        ")

        # Pins: the value as driven, then once per consumer format.
        for chan in layout.pin_channels:
            b(f"        {layout.boundary_var(chan)} = "
              f"pins.get({chan.name!r}, 0)")
            convert_entering(chan)

        def condition_code(expr) -> Tuple[str, Optional[int]]:
            """Lower, optimize and inline-render one FSM guard."""
            lowerer = layout.new_lowerer()
            lowerer.lower_expr(expr)
            block = self._optimized(lowerer.block)
            refs = emitter.render(block)
            root = block.roots[0]
            emitter.ref(root)
            return refs[root], block.ops[root].frac

        # Phase 0: transition selection for every FSM.
        for process in timed:
            if process.fsm is None:
                continue
            pname = _sanitize(process.name)
            states = fsm_index[id(process)]
            b(f"        # phase 0: {process.name} transition select")
            first_state = True
            for state in process.fsm.states:
                kw = "if" if first_state else "elif"
                first_state = False
                b(f"        {kw} st_{pname} == {states[state.name]}:")
                first_cond = True
                closed = False
                for t_index, transition in enumerate(
                        _global_transitions(process)):
                    if transition.source is not state:
                        continue
                    cond = transition.condition
                    if cond.expr is None and cond.negated:
                        continue  # a 'never' guard can never fire
                    if cond.is_always():
                        if first_cond:
                            b("            if True:")
                        else:
                            b("            else:")
                        closed = True
                    else:
                        code, frac = condition_code(cond.expr)
                        test = f"({code}) != 0" if frac is not None else f"bool({code})"
                        if cond.negated:
                            test = f"not ({test})"
                        kw2 = "if" if first_cond else "elif"
                        b(f"            {kw2} {test}:")
                    first_cond = False
                    b(f"                tr_{pname} = {t_index}")
                    b(f"                nst_{pname} = "
                      f"{states[transition.target.name]}")
                    if closed:
                        break
                if first_cond:
                    b(f"            raise RuntimeError("
                      f"'FSM {process.name}: state {state.name} is stuck')")
                elif not closed:
                    b("            else:")
                    b(f"                raise RuntimeError("
                      f"'FSM {process.name}: no transition from {state.name}')")

        def flush_group(group: List[tuple]) -> None:
            """Lower one same-guard run of assignments as a single block."""
            if not group:
                return
            guard = self._guard_code(group[0][2])
            indent = "        "
            if guard is not None:
                b(f"        if {guard}:")
                indent = "            "
            checked: List[Tuple[Channel, FxFormat]] = []
            for _process, assignment, _guard in group:
                for read in layout.checked_reads.get(assignment, ()):
                    if read not in checked:
                        checked.append(read)
                        convert(*read, indent)
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
                b(f"{indent}_obs_t = _obs_perf()")
            lowerer = layout.new_lowerer()
            for _process, assignment, _guard in group:
                lowerer.lower_assignment(assignment)
            block = self._optimized(lowerer.block)
            emitter.render(block, lines=body, indent=indent)
            for store in block.stores:
                target = store.target
                code = emitter.ref(store.value)
                if isinstance(target, Register):
                    var = f"n_{reg_name(target, target.name)}"
                else:
                    var = sig_name(target, target.name)
                b(f"{indent}{var} = {code}")
                if not isinstance(target, Register):
                    emitter.bind(store.value, var)
            if prof_index is not None:
                b(f"{indent}_obs_block({prof_index}, _obs_perf() - _obs_t)")

        def call_untimed(process: UntimedProcess) -> None:
            """Fire one behaviour and convert its outputs where they enter.

            Inputs are ``Fx`` values built without a range check: every
            formatted variable already holds a raw value inside its format
            (DESIGN.md §15's leaf-range invariant).
            """
            fn = behavior_name(process, process.name)
            proc = process_name(process, process.name)
            self._env_untimed[fn] = process.behavior
            self._env_untimed[proc] = process
            args = []
            for port in process.in_ports():
                chan = port.channel
                if chan is None:
                    args.append(f"{port.name}=0")
                elif chan in layout.boundary:
                    args.append(f"{port.name}={layout.boundary_var(chan)}")
                else:
                    code, fmt = layout.sig_ref_full(chan.producer.sig)
                    if fmt is not None:
                        code = f"_fx({code}, {_fmt_ref(fmt)})"
                    args.append(f"{port.name}={code}")
            result = f"res_{_sanitize(process.name)}"
            b(f"        {result} = {fn}({', '.join(args)})")
            outs = [port for port in process.out_ports()
                    if port.channel is not None]
            if outs:
                # The cycle scheduler's typed error for a missing token;
                # the try costs nothing while every token is there.
                b("        try:")
                for port in outs:
                    b(f"            {layout.boundary_var(port.channel)} = "
                      f"{result}[{port.name!r}]")
                b("        except (KeyError, TypeError):")
                b(f"            _no_token({proc}, {result})")
                b("            raise")
            b(f"        {proc}.firings += 1")
            for port in outs:
                convert_entering(port.channel)

        # Main body: assignments and untimed calls in global order.
        behavior_name = _Namer("beh")
        process_name = _Namer("proc")
        self._env_untimed: Dict[str, object] = {}
        group: List[tuple] = []
        for node in layout.order:
            if isinstance(node, tuple):
                if group and group[0][2] != node[2]:
                    flush_group(group)
                    group = []
                group.append(node)
            else:
                flush_group(group)
                group = []
                call_untimed(node)
        flush_group(group)

        # Watched outputs: None in a cycle without a token.
        for chan in self.watch:
            value_code, fmt = layout.watch_ref(chan)
            if fmt is not None:
                value_code = f"_fx({value_code}, {_fmt_ref(fmt)})"
            guard = self._guard_code(layout.watch_guard(chan))
            if guard is not None:
                value_code = f"{value_code} if {guard} else None"
            b(f"        outputs[{chan.name!r}] = {value_code}")

        # Assemble: next-value pre-initialization + commit.
        pre: List[str] = []
        commit: List[str] = []
        for reg in registers:
            name = reg_name(reg, reg.name)
            pre.append(f"        n_{name} = {name}")
            commit.append(f"        {name} = n_{name}")
        for process in timed:
            if process.fsm is not None:
                pname = _sanitize(process.name)
                commit.append(f"        st_{pname} = nst_{pname}")

        # Observability hook: one post-commit call per cycle handing the
        # capture raw register values, FSM state indices and selected
        # transition indices.  Emitted only when the capture wants it.
        self._obs_hook = None
        if self.obs is not None:
            obs_fsms = [(f"{p.name}/{p.fsm.name}", p.fsm)
                        for p in timed if p.fsm is not None]
            self._obs_hook = self.obs.compiled_observer(
                layout.obs_regs, obs_fsms)
        if self._obs_hook is not None:
            regs_args = ", ".join(reg_name(reg, reg.name)
                                  for reg in registers)
            fsm_procs = [p for p in timed if p.fsm is not None]
            sts_args = ", ".join(f"st_{_sanitize(p.name)}"
                                 for p in fsm_procs)
            trs_args = ", ".join(f"tr_{_sanitize(p.name)}"
                                 for p in fsm_procs)
            commit.append(
                f"        _obs_end_cycle("
                f"({regs_args}{',' if registers else ''}), "
                f"({sts_args}{',' if fsm_procs else ''}), "
                f"({trs_args}{',' if fsm_procs else ''}))"
            )

        state_names = [reg_name(reg, reg.name) for reg in registers]
        state_names += [f"st_{_sanitize(p.name)}" for p in timed if p.fsm is not None]
        emit("    def step(pins, outputs):")
        if state_names:
            emit(f"        nonlocal {', '.join(state_names)}")
        for line in pre:
            emit(line)
        for line in body:
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
                pname = _sanitize(process.name)
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
                pname = _sanitize(process.name)
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

        source = "\n".join(lines) + "\n"
        # Provide formats and behaviors in the module environment.
        self._env.update(_FMT_POOL)
        self._env.update(self._env_untimed)
        if self._obs_hook is not None:
            self._env["_obs_end_cycle"] = self._obs_hook
        if self._obs_profile is not None:
            from time import perf_counter as _obs_perf

            labels = self._obs_block_labels
            profile = self._obs_profile
            self._env["_obs_perf"] = _obs_perf
            self._env["_obs_block"] = (
                lambda index, dt: profile.add(labels[index], dt))
        return source


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
