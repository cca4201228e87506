"""The capture object: one run's instrumentation, shared by every engine.

A :class:`Capture` bundles the metrics registry, the activity / FSM /
engine profiles, the structured event trace and the user probes, and
hands each engine exactly the observer callable it needs:

* :meth:`cycle_monitor` — a per-cycle monitor for the interpreted
  :class:`~repro.sim.cycle.CycleScheduler`;
* :meth:`compiled_observer` — the end-of-cycle hook the
  :class:`~repro.sim.compiled.CompiledSimulator` conditionally *emits
  into its generated source* (nothing is emitted when the hook is None,
  so a bare compiled simulation carries zero instrumentation code);
* :meth:`dataflow_observer` — a per-pass hook for the data-flow
  scheduler (firing counters, queue-depth high-water marks);
* :meth:`gate_monitor` — a post-settle monitor for the gate-level
  simulator (primary-output toggle counts).

The registers used for toggle accounting (:func:`register_watchlist`)
are the elaboration's inventory, which the compiled simulator reads too,
so the interpreted and compiled engines observe the same registers under
the same hierarchical names in the same order — that is what makes
toggle counts lockstep-comparable across engines.

Layering: this module (like all of :mod:`repro.obs`) imports only
``core``/``ir``/``fixpt``.  Engines import *it*, never the reverse;
anything engine-shaped arrives duck-typed (schedulers, tracers).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..core.elaborate import register_inventory
from ..core.signal import Register, Sig
from ..core.system import Channel, System
from ..fixpt import Fx
from .activity import ActivityProfile, ToggleStats
from .engineprof import EngineProfile
from .events import EventTrace
from .fsmprof import FsmProfile, FsmStats
from .metrics import MetricsRegistry
from .spans import SpanTracer


def register_watchlist(system: System) -> List[Tuple[str, Register]]:
    """Every register of *system* with its hierarchical name.

    The elaboration's register inventory, which every engine reads: a
    register shared between processes is owned by the first process
    that reaches it.
    """
    inventory = register_inventory(system.timed_processes())
    return [(name, reg) for reg, name in inventory.items()]


def fsm_watchlist(system: System) -> List[Tuple[str, object]]:
    """Every FSM of *system* with its hierarchical name, in timed order."""
    return [(f"{p.name}/{p.fsm.name}", p.fsm)
            for p in system.timed_processes() if p.fsm is not None]


def _transition_meta(fsm) -> List[Tuple[str, str, str, Optional[str]]]:
    """(src, dst, action-label, srcloc) per transition, in FSM order."""
    meta = []
    for t in fsm.transitions:
        label = "+".join(s.name for s in t.sfgs)
        loc = str(t.loc) if t.loc is not None else None
        meta.append((t.source.name, t.target.name, label, loc))
    return meta


class Probe:
    """One attached probe: a ``fn(cycle, value)`` fed every cycle."""

    __slots__ = ("name", "target", "fn")

    def __init__(self, name: str, target, fn: Callable[[int, object], None]):
        self.name = name
        self.target = target
        self.fn = fn

    def __repr__(self) -> str:
        return f"Probe({self.name!r})"


class Capture:
    """One run's worth of instrumentation, attachable to any engine.

    Parameters
    ----------
    activity:
        Record per-signal toggle counts (default on).
    fsm:
        Record per-FSM-state occupancy and transition fires (default on).
    events:
        Record the structured event trace (default on).
    profile:
        Engine self-profiling — wall time per SFG / per lowered IR block.
        Off by default; costs one clock read pair per scheduled unit.
    trace_fires:
        Emit a ``fire`` event per untimed firing (off by default: firing
        events dominate the trace on data-flow-heavy systems).
    cycle_markers:
        When > 0, emit a ``cycle`` marker event every N cycles.
    event_stream:
        Optional text stream events are written through to as they
        happen (crash-safe JSONL), in addition to the in-memory buffer.
    spans:
        Record a span trace (:class:`~repro.obs.spans.SpanTracer`).
        Off by default; when enabled, :meth:`save` writes
        ``spans.jsonl`` next to ``events.jsonl``.
    """

    def __init__(self, activity: bool = True, fsm: bool = True,
                 events: bool = True, profile: bool = False,
                 trace_fires: bool = False, cycle_markers: int = 0,
                 event_stream: Optional[TextIO] = None,
                 spans: bool = False):
        self.metrics = MetricsRegistry()
        self.activity: Optional[ActivityProfile] = \
            ActivityProfile() if activity else None
        self.fsm: Optional[FsmProfile] = FsmProfile() if fsm else None
        self.events: Optional[EventTrace] = \
            EventTrace(event_stream) if events else None
        self.profile: Optional[EngineProfile] = \
            EngineProfile() if profile else None
        self.spans: SpanTracer = SpanTracer(enabled=spans)
        self.trace_fires = trace_fires
        self.cycle_markers = cycle_markers
        self._probes: Dict[int, List[Probe]] = {}
        self._tracers: List[object] = []

    # -- probes -------------------------------------------------------------------

    def probe(self, target, fn: Optional[Callable[[int, object], None]] = None,
              name: Optional[str] = None) -> Probe:
        """Attach a probe to a ``Sig``, ``Register`` or ``Channel``.

        ``fn(cycle, value)`` is called once per simulated cycle with the
        post-commit value (registers), the settled value (plain
        signals), or this cycle's token (channels — skipped on cycles
        the channel carries none).  With no *fn*, the probe feeds a
        gauge named ``probe/<name>`` in the metrics registry.
        """
        if name is None:
            name = getattr(target, "name", None) or f"probe{len(self._probes)}"
        if fn is None:
            gauge = self.metrics.gauge(f"probe/{name}")

            def fn(cycle: int, value, _g=gauge) -> None:
                try:
                    _g.set(float(value))
                except (TypeError, ValueError):
                    pass

        probe = Probe(name, target, fn)
        self._probes.setdefault(id(target), []).append(probe)
        return probe

    def probes_for(self, target) -> List[Probe]:
        return list(self._probes.get(id(target), ()))

    # -- event convenience ---------------------------------------------------------

    def event(self, kind: str, cycle: Optional[int] = None, **fields) -> None:
        """Emit an event if the event trace is enabled (no-op otherwise)."""
        if self.events is not None:
            self.events.emit(kind, cycle=cycle, **fields)

    # -- cycle scheduler ----------------------------------------------------------

    def cycle_monitor(self, scheduler) -> Optional[Callable]:
        """A per-cycle monitor for a :class:`CycleScheduler`, or None.

        Returns None when nothing needs per-cycle work (activity, FSM
        and events off, no probes) so the scheduler attaches no monitor
        at all — disabled instrumentation costs nothing per cycle.
        """
        system = scheduler.system

        reg_obs: List[Tuple[ToggleStats, Register, bool]] = []
        if self.activity is not None:
            for name, reg in register_watchlist(system):
                if reg.fmt is not None:
                    stats = self.activity.record(
                        name, width=reg.fmt.wl, initial=reg.init.raw)
                    reg_obs.append((stats, reg, True))
                else:
                    stats = self.activity.record(name, initial=reg.init)
                    reg_obs.append((stats, reg, False))

        fsm_obs: List[Tuple[Optional[FsmStats], object, Dict[int, int], str]] = []
        if self.fsm is not None or self.events is not None:
            for name, fsm in fsm_watchlist(system):
                stats = None
                if self.fsm is not None:
                    stats = self.fsm.record(
                        name, [s.name for s in fsm.states],
                        _transition_meta(fsm),
                        initial=fsm.initial_state.name
                        if fsm.initial_state else None)
                index_of = {id(t): i for i, t in enumerate(fsm.transitions)}
                fsm_obs.append((stats, fsm, index_of, name))

        probe_runs: List[Tuple[str, object, Callable]] = []
        for probes in self._probes.values():
            for p in probes:
                kind = "chan" if isinstance(p.target, Channel) else \
                    ("reg" if isinstance(p.target, Register) else "sig")
                probe_runs.append((kind, p.target, p.fn))

        events = self.events
        markers = self.cycle_markers
        want_fsm_events = events is not None
        if not reg_obs and not fsm_obs and not probe_runs and not markers:
            return None

        def monitor(sched) -> None:
            cycle = sched.cycle - 1  # monitors run after the increment
            for stats, reg, is_fx in reg_obs:
                value = reg.current
                if is_fx:
                    stats.observe_raw(value.raw)
                else:
                    stats.observe_value(value)
            for stats, fsm, index_of, name in fsm_obs:
                taken = fsm.last_taken
                index = index_of.get(id(taken)) if taken is not None else None
                if stats is not None:
                    stats.observe(fsm.current.name, index)
                if (want_fsm_events and taken is not None
                        and taken.source is not taken.target):
                    events.emit("fsm_transition", cycle=cycle, fsm=name,
                                src=taken.source.name, dst=taken.target.name,
                                srcloc=str(taken.loc))
            for kind, target, fn in probe_runs:
                if kind == "chan":
                    if target.valid:
                        fn(cycle, target.value)
                elif kind == "reg":
                    fn(cycle, target.current)
                else:
                    fn(cycle, target.value)
            if markers and cycle % markers == 0:
                events.emit("cycle", cycle=cycle)

        return monitor

    # -- compiled simulator --------------------------------------------------------

    def compiled_observer(self, registers: Sequence[Tuple[str, Register]],
                          fsms: Sequence[Tuple[str, object]]
                          ) -> Optional[Callable]:
        """The end-of-cycle hook the compiled simulator emits, or None.

        ``registers`` / ``fsms`` arrive in the generated step function's
        own ordering; the hook receives, per cycle, the tuple of raw
        register values, the tuple of FSM state indices and the tuple of
        selected transition indices, matching those orderings.  When the
        hook is None the simulator emits no instrumentation at all.
        """
        reg_obs = []
        for index, (name, reg) in enumerate(registers):
            stats = None
            if self.activity is not None:
                if reg.fmt is not None:
                    stats = self.activity.record(
                        name, width=reg.fmt.wl, initial=reg.init.raw)
                else:
                    stats = self.activity.record(name, initial=reg.init)
            fns = [p.fn for p in self._probes.get(id(reg), ())]
            if stats is not None or fns:
                reg_obs.append((index, stats, reg.fmt, fns))

        fsm_obs = []
        for index, (name, fsm) in enumerate(fsms):
            stats = None
            if self.fsm is not None:
                stats = self.fsm.record(
                    name, [s.name for s in fsm.states], _transition_meta(fsm),
                    initial=fsm.initial_state.name if fsm.initial_state
                    else None)
            if stats is not None or self.events is not None:
                state_names = [s.name for s in fsm.states]
                fsm_obs.append((index, stats, state_names,
                                _transition_meta(fsm), name))

        events = self.events
        markers = self.cycle_markers
        if not reg_obs and not fsm_obs and not markers:
            return None

        counter = [0]

        def hook(regs, states, trs) -> None:
            cycle = counter[0]
            counter[0] = cycle + 1
            for index, stats, fmt, fns in reg_obs:
                value = regs[index]
                if stats is not None:
                    if fmt is not None:
                        stats.observe_raw(value)
                    else:
                        stats.observe_value(value)
                for fn in fns:
                    fn(cycle, Fx(raw=value, fmt=fmt)
                       if fmt is not None else value)
            for index, stats, state_names, tmeta, name in fsm_obs:
                tr = trs[index]
                if stats is not None:
                    stats.observe(state_names[states[index]], tr)
                if events is not None:
                    src, dst, _label, loc = tmeta[tr]
                    if src != dst:
                        events.emit("fsm_transition", cycle=cycle, fsm=name,
                                    src=src, dst=dst, srcloc=loc)
            if markers and cycle % markers == 0:
                events.emit("cycle", cycle=cycle)

        return hook

    # -- data-flow scheduler --------------------------------------------------------

    def dataflow_observer(self, scheduler) -> Optional[Callable]:
        """A per-pass hook for a :class:`DataflowScheduler`, or None.

        Called after every scheduler pass with the processes fired that
        pass; maintains per-process firing counters, per-channel
        queue-depth high-water gauges, and optional ``fire`` events.
        """
        want_fires = self.trace_fires and self.events is not None
        if self.activity is None and not want_fires:
            # Queue/firing accounting rides on the activity switch.
            return None
        system = scheduler.system
        channels = list(system.channels)
        depth_gauges = [
            (chan, self.metrics.gauge(f"dataflow/queue/{chan.name}"))
            for chan in channels
        ]
        fire_counters: Dict[int, object] = {}
        for process in system.untimed_processes():
            fire_counters[id(process)] = self.metrics.counter(
                f"dataflow/{process.name}/firings")
        events = self.events

        def observer(fired) -> None:
            for process in fired:
                fire_counters[id(process)].inc()
                if want_fires:
                    events.emit("fire", process=process.name,
                                firing=process.firings)
            for chan, gauge in depth_gauges:
                gauge.set(chan.tokens())

        return observer

    # -- gate-level simulator --------------------------------------------------------

    def gate_monitor(self, sim) -> Optional[Callable]:
        """A post-settle monitor for a :class:`GateSimulator`, or None.

        Samples every primary-output bus (unsigned raw domain) into the
        activity profile under ``<netlist>/<output>`` names.  On a
        word-parallel simulator (``sim.lanes > 1``) every lane is
        sampled and aggregated per lane — a lane-packed word is never
        fed to the scalar toggle path, so Hamming counts stay exact.
        """
        if self.activity is None:
            return None
        netlist = sim.netlist
        bus_obs = [
            (self.activity.record(f"{netlist.name}/{name}", width=len(bus)),
             name)
            for name, bus in netlist.outputs.items()
        ]
        if not bus_obs:
            return None
        if getattr(sim, "lanes", 1) > 1:
            def monitor(gatesim) -> None:
                for stats, name in bus_obs:
                    stats.observe_raw_lanes(
                        gatesim.output_lanes(name, signed=False))

            return monitor

        def monitor(gatesim) -> None:
            for stats, name in bus_obs:
                stats.observe_raw(gatesim.output(name, signed=False))

        return monitor

    # -- serialization ---------------------------------------------------------------

    def attach_vcd(self, tracer) -> None:
        """Register a waveform tracer so :meth:`save` writes its VCD.

        Duck-typed: anything with a ``write_vcd(stream)`` method works
        (the :class:`~repro.sim.tracing.Tracer` — obs cannot import it).
        """
        self._tracers.append(tracer)

    def as_dict(self) -> Dict[str, object]:
        """The JSON-serializable capture summary (``metrics.json``)."""
        return {
            "metrics": self.metrics.as_dict(),
            "activity": self.activity.as_dict()
            if self.activity is not None else {},
            "fsm": self.fsm.as_dict() if self.fsm is not None else {},
            "profile": self.profile.as_dict()
            if self.profile is not None else {},
            "events": self.events.kinds() if self.events is not None else {},
        }

    def save(self, directory: str) -> str:
        """Write the capture to *directory* for ``python -m repro.obs``.

        Produces ``metrics.json`` (all profiles), ``events.jsonl`` (when
        events are enabled) and one VCD per attached tracer
        (``trace.vcd``, ``trace1.vcd``, ...).  Returns *directory*.
        """
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "metrics.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, default=str)
            handle.write("\n")
        if self.events is not None:
            with open(os.path.join(directory, "events.jsonl"), "w",
                      encoding="utf-8") as handle:
                self.events.write_jsonl(handle)
        if self.spans.enabled and len(self.spans):
            with open(os.path.join(directory, "spans.jsonl"), "w",
                      encoding="utf-8") as handle:
                self.spans.write_jsonl(handle)
        for index, tracer in enumerate(self._tracers):
            name = "trace.vcd" if index == 0 else f"trace{index}.vcd"
            with open(os.path.join(directory, name), "w",
                      encoding="utf-8") as handle:
                tracer.write_vcd(handle)
        return directory


#: Descriptive alias: ``Instrumentation(...)`` reads better at call sites
#: that configure a capture up front.
Instrumentation = Capture
