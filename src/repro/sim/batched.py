"""Batched compiled simulation: N stimulus streams per generated step.

The scalar :class:`~repro.sim.compiled.CompiledSimulator` renders one
:class:`~repro.sim.compiled.SystemLayout` — the scalar semantics of a
system — as straight-line Python over plain integers.  This module
renders the *same layout* as numpy-vectorized code: every register,
FSM state and intermediate value becomes an ``int64`` array of
``lanes`` elements, so one pass through the generated ``step()``
advances ``lanes`` independent stimulus streams.  Nothing below the
emitter knows about lanes; the IR blocks, formats and schedule are
byte-identical to the scalar back-end's.

Vectorization rules (DESIGN.md §8):

* fixed-point raws live in ``int64`` lane arrays; quantization is
  masked two's-complement arithmetic (``_np.clip`` for saturation,
  :func:`_fold_vec` for wrap) driven by the same
  :class:`~repro.fixpt.FxFormat` wordlength metadata the scalar
  emitter uses;
* a structured :data:`~repro.sim.compiled.Guard` renders as a boolean
  lane mask; guarded stores merge with ``_np.where(mask, value, old)``
  instead of branching, and FSM transition selection computes a
  per-lane selected-transition array;
* both mux branches evaluate on every lane (vector select is eager),
  which is only sound because raising ops are rejected up front:
  systems with an ``Overflow.ERROR`` quantize that the ``engine``
  pipeline's range proof cannot remove, untimed processes (their
  Python-side state cannot be replicated per lane) or IR values wider
  than 62 bits (no headroom in ``int64``) raise
  :class:`~repro.core.errors.CodegenError` at construction.

Observability captures are explicitly rejected (``ReproError``): the
obs layer counts scalar toggles and would silently miscount on lane
arrays.  Use the scalar engines for instrumented runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..core.errors import CodegenError, ReproError, SimulationError
from ..core.system import Channel, System
from ..fixpt import Fx, FxFormat, Overflow, Rounding, quantize_raw
from ..ir import IRBlock, PassManager
from .compiled import (
    Guard,
    SystemLayout,
    _fmt_ref,
    _FMT_POOL,
    _global_transitions,
    _PyEmitter,
    _sanitize,
)

#: Default lane count: one machine word of the gate engine, and a batch
#: size where numpy dispatch overhead is already well amortized.
DEFAULT_LANES = 64


def _fold_vec(values, wl: int):
    """Vectorized two's-complement sign fold of *values* into *wl* bits."""
    masked = _np.asarray(values) & ((1 << wl) - 1)
    half = 1 << (wl - 1)
    return _np.where(masked >= half, masked - (1 << wl), masked)


def _quantize_float_vec(values, fmt: FxFormat):
    """Exact per-lane quantization of float-domain *values* into *fmt*."""
    arr = _np.asarray(values)
    if arr.ndim == 0:
        return _np.int64(quantize_raw(arr.item(), fmt))
    return _np.array([quantize_raw(v.item(), fmt) for v in arr],
                     dtype=_np.int64)


def gen_quantize_vec(code: str, frac: Optional[int], fmt: FxFormat) -> str:
    """Vectorized counterpart of :func:`repro.sim.compiled.gen_quantize`."""
    if frac is None:
        return f"_quantize_float_vec({code}, {_fmt_ref(fmt)})"
    shift = frac - fmt.frac_bits
    if shift < 0:
        body = f"(({code}) << {-shift})"
    elif shift == 0:
        body = f"({code})"
    elif fmt.rounding is Rounding.ROUND:
        body = f"((({code}) + {1 << (shift - 1)}) >> {shift})"
    else:
        body = f"(({code}) >> {shift})"
    if fmt.overflow is Overflow.SATURATE:
        return f"_np.clip({body}, {fmt.raw_min}, {fmt.raw_max})"
    if fmt.overflow is Overflow.WRAP:
        if fmt.signed:
            return f"_fold_vec({body}, {fmt.wl})"
        return f"(({body}) & {(1 << fmt.wl) - 1})"
    raise CodegenError(
        "batched simulation cannot vectorize Overflow.ERROR formats "
        "(vector select is eager, so untaken lanes would raise)"
    )


class _VecEmitter(_PyEmitter):
    """Renders lowered IR blocks as numpy-vectorized Python source.

    Only the renderings whose scalar form is not array-safe are
    overridden; everything else (add/mul/shift/mask arithmetic) is
    already elementwise on ``int64`` arrays.
    """

    def _render_op(self, block: IRBlock, op, ref) -> str:
        code = op.opcode
        a = op.args
        if code == "cmp":
            return (f"_np.where(({ref(a[0])}) {op.attrs[0]} "
                    f"({ref(a[1])}), 1, 0)")
        if code == "mux":
            sel_frac = block.ops[a[0]].frac
            if sel_frac is not None:
                sel = f"(({ref(a[0])}) != 0)"
            else:
                # Scalar emits int(sel): floats truncate toward zero
                # before the truth test, so |sel| < 1 selects false.
                sel = f"(_np.asarray({ref(a[0])}).astype(_np.int64) != 0)"
            return f"_np.where({sel}, ({ref(a[1])}), ({ref(a[2])}))"
        if code == "quantize":
            src_frac = block.ops[a[0]].frac
            return gen_quantize_vec(ref(a[0]), src_frac, op.attrs[0])
        if code == "toint":
            return f"(_np.asarray({ref(a[0])}).astype(_np.int64))"
        return super()._render_op(block, op, ref)

    @staticmethod
    def _fold_sign(code: str, wl: int, signed: bool) -> str:
        if not signed:
            return code
        return f"_fold_vec({code}, {wl})"


class BatchedCompiledSimulator:
    """Generate, compile and run a *lanes*-wide vectorized simulator.

    Same constructor surface as :class:`CompiledSimulator` plus
    ``lanes``; ``step(pins)`` accepts scalar pin values (broadcast to
    every lane) or per-lane sequences, and every watched output /
    register snapshot comes back per lane.
    """

    def __init__(self, system: System, lanes: int = DEFAULT_LANES,
                 watch: Sequence[Channel] = (), optimize: bool = True,
                 passes=None, validate: str = "off", obs=None):
        if obs is not None:
            raise ReproError(
                "batched simulation does not support observability "
                "captures: toggle/activity profiling counts scalar "
                "values and would silently miscount lane arrays — run "
                "the scalar CompiledSimulator for instrumented runs"
            )
        if lanes < 1:
            raise SimulationError(f"lanes must be >= 1, got {lanes}")
        self.system = system
        self.lanes = lanes
        self.layout = SystemLayout(system, watch)
        if self.layout.untimed:
            names = ", ".join(p.name for p in self.layout.untimed)
            raise CodegenError(
                f"system {system.name!r} has untimed processes ({names}): "
                "their Python-side state cannot be replicated per lane, "
                "so the batched backend supports timed-only systems"
            )
        self.watch = self.layout.watch
        self.optimize = optimize
        self.pass_manager = PassManager(
            "engine" if passes is None else passes, validate=validate)
        self.cycle = 0
        self.outputs: Dict[str, object] = {}
        self._env: Dict[str, object] = {}
        self._watch_fmts: Dict[str, FxFormat] = {}
        self.ir_op_count_raw = 0
        self.ir_op_count = 0
        self.source = self._generate()
        self.pass_stats = self.pass_manager.stats
        code = compile(self.source, f"<batched:{system.name}>", "exec")
        exec(code, self._env)
        self._step, self._dump, self._dump_raw, self._load = \
            self._env["_make_step"]()

    # -- public API ----------------------------------------------------------------

    def step(self, pins: Optional[Dict[str, object]] = None) -> None:
        """Advance every lane one clock cycle.

        Scalar pin values broadcast to all lanes; list/tuple/ndarray
        values drive one entry per lane.
        """
        self._step(self._convert_pins(pins), self.outputs)
        self.cycle += 1

    def run(self, cycles: int,
            pins_fn: Optional[Callable[[int], Dict[str, object]]] = None
            ) -> None:
        """Simulate *cycles* cycles, driving pins from ``pins_fn(cycle)``."""
        for _ in range(cycles):
            self.step(pins_fn(self.cycle) if pins_fn else None)

    def run_batch(self, batch) -> None:
        """Run a :class:`repro.sim.stimuli.StimulusBatch` to completion."""
        if batch.lanes != self.lanes:
            raise SimulationError(
                f"stimulus batch has {batch.lanes} lanes, "
                f"simulator has {self.lanes}"
            )
        for cycle in range(batch.cycles):
            self.step(batch.pins_at(cycle))

    def output(self, chan, lane: Optional[int] = None):
        """A watched channel's latest value: one lane, or all lanes."""
        name = chan.name if isinstance(chan, Channel) else chan
        value = self.outputs[name]
        fmt = self._watch_fmts.get(name)
        if lane is not None:
            got = value[lane]
            return Fx(raw=int(got), fmt=fmt) if fmt is not None else got
        if fmt is not None:
            return [Fx(raw=int(v), fmt=fmt) for v in value]
        return list(value)

    def output_raw(self, chan):
        """A watched channel's latest per-lane raw array."""
        name = chan.name if isinstance(chan, Channel) else chan
        return self.outputs[name]

    def snapshot(self) -> Dict[str, object]:
        """Per-lane register values (and FSM state names) by name."""
        return self._dump()

    def save_state(self) -> Dict[str, object]:
        """Deterministic per-lane checkpoint (raw values + cycle)."""
        return {"cycle": self.cycle, "lanes": self.lanes,
                "state": self._dump_raw()}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a checkpoint taken with :meth:`save_state`."""
        if state.get("lanes", self.lanes) != self.lanes:
            raise SimulationError(
                f"checkpoint has {state['lanes']} lanes, "
                f"simulator has {self.lanes}"
            )
        self._load(state["state"])
        self.cycle = state["cycle"]

    def _convert_pins(self, pins: Optional[Dict[str, object]]
                      ) -> Dict[str, object]:
        if not pins:
            return {}
        lanes = self.lanes
        converted: Dict[str, object] = {}
        for name, value in pins.items():
            if isinstance(value, _np.ndarray):
                vals = value.tolist()
            elif isinstance(value, (list, tuple)):
                vals = list(value)
            else:
                vals = [value] * lanes
            if len(vals) != lanes:
                raise SimulationError(
                    f"pin {name!r}: got {len(vals)} values for "
                    f"{lanes} lanes"
                )
            fmt = self._pin_fmts.get(name)
            if fmt is None:
                converted[name] = _np.asarray(vals)
            else:
                converted[name] = _np.array(
                    [quantize_raw(v, fmt) for v in vals], dtype=_np.int64
                )
        return converted

    # -- code generation -----------------------------------------------------------

    def _optimized(self, block: IRBlock) -> IRBlock:
        self.ir_op_count_raw += block.op_count()
        if self.optimize:
            block = self.pass_manager.run(block)
        self.ir_op_count += block.op_count()
        self._check_block(block)
        return block

    def _check_block(self, block: IRBlock) -> None:
        """Reject IR the eager int64 vector domain cannot evaluate."""
        for op in block.ops:
            if op.opcode == "quantize":
                fmt = op.attrs[0]
                if fmt.overflow is Overflow.ERROR:
                    raise CodegenError(
                        "batched simulation cannot vectorize "
                        "Overflow.ERROR formats (vector select is "
                        "eager, so untaken lanes would raise)"
                    )
                src = block.ops[op.args[0]]
                if src.frac is not None and src.width is not None:
                    shift = src.frac - fmt.frac_bits
                    widened = src.width + max(0, -shift) + 1
                    if widened > 62:
                        raise CodegenError(
                            f"IR value of {widened} bits overflows the "
                            "batched backend's int64 lanes"
                        )
            if op.frac is not None and op.width is not None \
                    and op.width > 62:
                raise CodegenError(
                    f"IR value of {op.width} bits overflows the "
                    "batched backend's int64 lanes"
                )

    def _generate(self) -> str:
        layout = self.layout
        timed = layout.timed
        sig_name = layout.sig_name
        reg_name = layout.reg_name
        self._pin_fmts: Dict[str, FxFormat] = {}
        registers = layout.registers
        fsm_index = layout.fsm_index
        emitter = _VecEmitter(layout.sig_ref_full)

        lines: List[str] = []
        emit = lines.append
        emit("import numpy as _np")
        emit("from repro.fixpt import Fx")
        emit("from repro.sim.batched import _fold_vec, _quantize_float_vec")
        emit("")
        emit(f"_LANES = {self.lanes}")
        emit("_ZEROS = _np.zeros(_LANES, dtype=_np.int64)")
        for process in timed:
            if process.fsm is not None:
                pname = _sanitize(process.name)
                states = fsm_index[id(process)]
                by_index = ", ".join(f"{i}: {n!r}"
                                     for n, i in sorted(states.items(),
                                                        key=lambda kv: kv[1]))
                by_name = ", ".join(f"{n!r}: {i}"
                                    for n, i in sorted(states.items(),
                                                       key=lambda kv: kv[1]))
                emit(f"_STN_{pname} = {{{by_index}}}")
                emit(f"_STI_{pname} = {{{by_name}}}")
        emit("")
        emit("def _make_step():")

        # Closure state: per-lane register and FSM-state arrays.
        for reg in registers:
            name = reg_name(reg, reg.name)
            if reg.fmt is not None:
                raw = reg.init.raw if isinstance(reg.init, Fx) \
                    else int(reg.init)
                emit(f"    {name} = _np.full(_LANES, {raw}, "
                     f"dtype=_np.int64)")
            elif isinstance(reg.init, (int, float)):
                emit(f"    {name} = _np.full(_LANES, {reg.init!r}, "
                     f"dtype=_np.float64)")
            else:
                raise CodegenError(
                    f"register {reg.name!r}: non-numeric init "
                    f"{reg.init!r} cannot be replicated per lane"
                )
        for process in timed:
            if process.fsm is not None:
                pname = _sanitize(process.name)
                states = fsm_index[id(process)]
                init = states[process.fsm.initial_state.name]
                emit(f"    st_{pname} = _np.full(_LANES, {init}, "
                     f"dtype=_np.int64)")

        body: List[str] = []
        b = body.append

        def condition_code(expr) -> Tuple[str, Optional[int]]:
            lowerer = layout.new_lowerer()
            lowerer.lower_expr(expr)
            block = self._optimized(lowerer.block)
            refs = emitter.render(block, lines=None, allow_temps=False)
            root = block.roots[0]
            emitter.ref(root)
            return refs[root], block.ops[root].frac

        # Phase 0: per-lane transition selection for every FSM.  Guards
        # are pure register reads, so evaluating every state's
        # conditions on every lane (eager, unlike the scalar if/elif
        # ladder) is sound.
        for process in timed:
            if process.fsm is None:
                continue
            pname = _sanitize(process.name)
            states = fsm_index[id(process)]
            b(f"        # phase 0: {process.name} transition select")
            b(f"        tr_{pname} = _np.full(_LANES, -1, dtype=_np.int64)")
            b(f"        nst_{pname} = st_{pname}")
            for state in process.fsm.states:
                b(f"        _in = (st_{pname} == {states[state.name]})")
                closed = False
                any_transition = False
                for t_index, transition in enumerate(
                        _global_transitions(process)):
                    if transition.source is not state:
                        continue
                    cond = transition.condition
                    if cond.expr is None and cond.negated:
                        continue  # a 'never' guard can never fire
                    any_transition = True
                    if cond.is_always():
                        b("        _take = _in")
                        closed = True
                    else:
                        code, frac = condition_code(cond.expr)
                        if frac is not None:
                            test = f"(({code}) != 0)"
                        else:
                            test = f"((_np.asarray({code})) != 0)"
                        if cond.negated:
                            test = f"(~{test})"
                        b(f"        _take = _in & {test}")
                    b(f"        tr_{pname} = _np.where(_take, {t_index}, "
                      f"tr_{pname})")
                    b(f"        nst_{pname} = _np.where(_take, "
                      f"{states[transition.target.name]}, nst_{pname})")
                    if closed:
                        break
                    b("        _in = _in & ~_take")
                if not any_transition:
                    b(f"        if _np.any(_in):")
                    b(f"            raise RuntimeError("
                      f"'FSM {process.name}: state {state.name} is stuck')")
                elif not closed:
                    b(f"        if _np.any(_in):")
                    b(f"            raise RuntimeError("
                      f"'FSM {process.name}: no transition from "
                      f"{state.name}')")

        # Pin reads: one array per primary-input channel, converted by
        # _convert_pins into the one format its consumers read.
        for chan in layout.pin_channels:
            fmts = layout.boundary[chan]
            unformatted = any(c.sig is not None and c.sig.fmt is None
                              for c in chan.consumers)
            if len(fmts) + unformatted > 1:
                raise CodegenError(
                    f"pin {chan.name!r} feeds consumers of different "
                    "formats; the batched backend converts each pin "
                    "into one format"
                )
            fmt = fmts[0] if fmts else None
            if fmt is not None:
                self._pin_fmts[chan.name] = fmt
            b(f"        {layout.boundary_var(chan, fmt)} = "
              f"pins.get({chan.name!r}, _ZEROS)")

        guard_counter = [0]
        bound_sigs: set = set()

        def flush_group(group: List[tuple]) -> None:
            """One same-guard run of assignments as a masked block."""
            if not group:
                return
            guard: Guard = group[0][2]
            mask_var = None
            if guard is not None:
                process, trs = guard
                pname = _sanitize(process.name)
                tests = " | ".join(f"(tr_{pname} == {t})" for t in trs)
                mask_var = f"_g{guard_counter[0]}"
                guard_counter[0] += 1
                b(f"        {mask_var} = {tests}")
            lowerer = layout.new_lowerer()
            for _process, assignment, _guard in group:
                lowerer.lower_assignment(assignment)
            block = self._optimized(lowerer.block)
            emitter.render(block, lines=body, indent="        ")
            from ..core.signal import Register
            for store in block.stores:
                target = store.target
                code = emitter.ref(store.value)
                if isinstance(target, Register):
                    var = f"n_{reg_name(target, target.name)}"
                    if mask_var is not None:
                        b(f"        {var} = _np.where({mask_var}, "
                          f"{code}, {var})")
                    else:
                        b(f"        {var} = {code}")
                else:
                    var = sig_name(target, target.name)
                    if mask_var is not None:
                        # Lanes outside the mask keep an earlier group's
                        # value (groups with disjoint guards covering all
                        # taken transitions), or a dead default no
                        # in-mask consumer ever reads.
                        prev = var if var in bound_sigs else "_ZEROS"
                        b(f"        {var} = _np.where({mask_var}, "
                          f"{code}, {prev})")
                    else:
                        b(f"        {var} = {code}")
                    bound_sigs.add(var)
                    emitter.bind(store.value, var)

        # Main body: every assignment in the layout's global order.
        group: List[tuple] = []
        for node in layout.order:
            # Untimed nodes were rejected at construction; every node
            # here is a (process, assignment, guard) triple.
            if group and group[0][2] != node[2]:
                flush_group(group)
                group = []
            group.append(node)
        flush_group(group)

        # Watched outputs: raw per-lane arrays (Fx wrapping happens in
        # the accessor — arrays stay cheap inside the hot loop).
        for chan in self.watch:
            if chan.producer is None:
                value_code: str = f"pins.get({chan.name!r}, _ZEROS)"
                fmt: Optional[FxFormat] = None
            else:
                value_code, fmt = layout.sig_ref_full(chan.producer.sig)
            if fmt is not None:
                self._watch_fmts[chan.name] = fmt
            b(f"        outputs[{chan.name!r}] = {value_code}")

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

        state_names = [reg_name(reg, reg.name) for reg in registers]
        state_names += [f"st_{_sanitize(p.name)}" for p in timed
                        if p.fsm is not None]
        emit("    def step(pins, outputs):")
        if state_names:
            emit(f"        nonlocal {', '.join(state_names)}")
        for line in pre:
            emit(line)
        for line in body:
            emit(line)
        for line in commit:
            emit(line)
        if not (pre or body or commit):
            emit("        pass")

        entries = []
        raw_entries = []
        for reg in registers:
            name = reg_name(reg, reg.name)
            if reg.fmt is not None:
                entries.append(
                    f"{reg.name!r}: [Fx(raw=int(_v), "
                    f"fmt={_fmt_ref(reg.fmt)}) for _v in {name}]"
                )
            else:
                entries.append(f"{reg.name!r}: list({name})")
            raw_entries.append(f"{reg.name!r}: [int(_v) for _v in {name}]")
        for process in timed:
            if process.fsm is not None:
                pname = _sanitize(process.name)
                expr = (f"[_STN_{pname}[int(_v)] for _v in st_{pname}]")
                entries.append(f"'{process.name}.state': {expr}")
                raw_entries.append(f"'{process.name}.state': {expr}")
        emit("    def dump():")
        emit(f"        return {{{', '.join(entries)}}}")
        emit("    def dump_raw():")
        emit(f"        return {{{', '.join(raw_entries)}}}")
        emit("    def load(state):")
        if state_names:
            emit(f"        nonlocal {', '.join(state_names)}")
        for reg in registers:
            name = reg_name(reg, reg.name)
            dtype = "_np.int64" if reg.fmt is not None else "_np.float64"
            emit(f"        {name} = _np.array(state[{reg.name!r}], "
                 f"dtype={dtype})")
        for process in timed:
            if process.fsm is not None:
                pname = _sanitize(process.name)
                emit(f"        st_{pname} = _np.array("
                     f"[_STI_{pname}[_s] for _s in "
                     f"state['{process.name}.state']], dtype=_np.int64)")
        if not state_names:
            emit("        pass")
        emit("    return step, dump, dump_raw, load")

        source = "\n".join(lines) + "\n"
        self._env.update(_FMT_POOL)
        return source
