"""Event-driven simulation with HDL (delta-cycle) semantics.

Table 1 of the paper compares the C++ approaches against RT-level VHDL
simulation.  Since no commercial VHDL simulator is available offline, this
module reproduces *the mechanism that gives RT-HDL simulation its cost*: an
event-driven kernel with per-signal sensitivity lists and delta cycles.

The system is mapped to an RTL process network exactly the way the
generated VHDL would be:

* every FSM becomes a combinational transition-selection process plus a
  clocked state register;
* every SFG assignment becomes a combinational process, guarded by its
  SFG's marking net and sensitive to the signals it reads;
* every register becomes a clocked process sampling a combinational
  next-value net;
* every channel becomes a propagation process (structural port map);
* untimed blocks become combinational processes.

One :meth:`EventSimulator.step` simulates one clock cycle: drive pins,
settle the combinational network through delta cycles, then apply the
clock edge.  Results match the cycle scheduler; only the runtime differs —
which is the point of the Table 1 comparison.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..fixpt import Fx, quantize
from ..core.errors import ModelError, SimulationError
from ..core.process import TimedProcess, UntimedProcess
from ..core.sfg import SFG, Assignment
from ..core.signal import Register, Sig
from ..core.system import Channel, System


class _Process:
    """One event-driven process: runs when a sensitivity net changes."""

    __slots__ = ("name", "run", "sensitivity")

    def __init__(self, name: str, run: Callable[[], List[Tuple[Sig, object]]],
                 sensitivity: Sequence[Sig]):
        self.name = name
        self.run = run
        self.sensitivity = tuple(sensitivity)


class EventSimulator:
    """Delta-cycle event-driven simulation of a system."""

    def __init__(self, system: System, max_deltas: int = 1000):
        self.system = system
        self.max_deltas = max_deltas
        self.cycle = 0
        #: Delta-cycle statistics (events processed, process activations).
        self.events = 0
        self.activations = 0

        self._procs: List[_Process] = []
        self._sensitive: Dict[int, List[_Process]] = {}
        self._seq_actions: List[Callable[[], List[Tuple[Sig, object]]]] = []
        self._pin_sigs: Dict[str, List[Sig]] = {}
        self._mark_nets: Dict[int, Sig] = {}
        self._build()

    # -- network construction -----------------------------------------------------

    def _net(self, name: str) -> Sig:
        return Sig(name)

    def _add_proc(self, proc: _Process) -> None:
        self._procs.append(proc)
        for sig in proc.sensitivity:
            self._sensitive.setdefault(id(sig), []).append(proc)

    def _build(self) -> None:
        system = self.system

        # Channel propagation processes (structural port maps).
        for chan in system.channels:
            producer = chan.producer
            if producer is None:
                # Primary input: pins drive every consumer sig directly.
                sigs = [c.sig for c in chan.consumers if c.sig is not None]
                self._pin_sigs[chan.name] = sigs
                continue
            src_sig = producer.sig
            if src_sig is None:
                continue  # produced by an untimed block; handled below
            targets = [c.sig for c in chan.consumers if c.sig is not None]
            if not targets:
                continue

            def propagate(src=src_sig, dst=tuple(targets)):
                value = src.value if not isinstance(src, Register) else src.current
                return [(t, value) for t in dst]

            self._add_proc(_Process(f"wire:{chan.name}", propagate, [src_sig]))

        for process in system.timed_processes():
            self._build_timed(process)
        for process in system.untimed_processes():
            self._build_untimed(process)

    def _build_timed(self, process: TimedProcess) -> None:
        fsm = process.fsm
        all_sfgs = process.all_sfgs()

        # Marking nets: 1 when the SFG executes this cycle.
        for sfg in all_sfgs:
            net = self._net(f"{process.name}.{sfg.name}.mark")
            net.value = 0
            self._mark_nets[id(sfg)] = net

        for sfg in process.static_sfgs:
            self._mark_nets[id(sfg)].value = 1  # statically marked

        if fsm is not None:
            state_net = self._net(f"{process.name}.state")
            state_index = {s.name: i for i, s in enumerate(fsm.states)}
            state_net.value = state_index[fsm.initial_state.name]
            next_state_net = self._net(f"{process.name}.state_d")
            next_state_net.value = state_net.value

            cond_sigs: Set[Sig] = set()
            for transition in fsm.transitions:
                if transition.condition.expr is not None:
                    cond_sigs |= transition.condition.expr.signals()

            fsm_sfgs = [s for s in fsm.sfgs() if s not in process.static_sfgs]

            def select(fsm=fsm, state_net=state_net, next_net=next_state_net,
                       index=state_index, sfgs=tuple(fsm_sfgs)):
                current = fsm.states[int(state_net.value)]
                marked: Tuple[SFG, ...] = ()
                target = int(state_net.value)
                for transition in current.transitions:
                    if transition.condition.evaluate():
                        marked = transition.sfgs
                        target = index[transition.target.name]
                        break
                else:
                    raise SimulationError(
                        f"FSM {fsm.name!r}: no transition from "
                        f"{current.name!r}"
                    )
                updates = [(next_net, target)]
                for sfg in sfgs:
                    net = self._mark_nets[id(sfg)]
                    updates.append((net, 1 if sfg in marked else 0))
                return updates

            self._add_proc(_Process(
                f"{process.name}.select", select,
                [state_net, *sorted(cond_sigs, key=lambda s: s.name)],
            ))

            def state_edge(state_net=state_net, next_net=next_state_net,
                           fsm=fsm):
                fsm.current = fsm.states[int(next_net.value)]
                return [(state_net, next_net.value)]

            self._seq_actions.append(state_edge)

        # Group the drivers of each target across SFGs: in the generated RTL
        # a multiply-driven register gets one next-value mux selected by the
        # marking nets, exactly like the priority chain built here.
        drivers: Dict[int, List[Tuple[Sig, Assignment]]] = {}
        target_of: Dict[int, Sig] = {}
        for sfg in all_sfgs:
            mark = self._mark_nets[id(sfg)]
            for assignment in sfg.ordered_assignments():
                target = assignment.target
                drivers.setdefault(id(target), []).append((mark, assignment))
                target_of[id(target)] = target

        for target_id, driver_list in drivers.items():
            target = target_of[target_id]
            sens: List[Sig] = []
            for mark, assignment in driver_list:
                sens.append(mark)
                sens.extend(sorted(assignment.reads(), key=lambda s: s.name))
            if isinstance(target, Register):
                d_net = self._net(f"{process.name}.{target.name}.d")
                d_net.value = target.current

                def comb_reg(dl=tuple(driver_list), d=d_net, reg=target):
                    for mark, a in dl:
                        if int(mark.value):
                            value = a.expr.evaluate()
                            if reg.fmt is not None:
                                value = quantize(value, reg.fmt)
                            return [(d, value)]
                    return [(d, reg.current)]  # hold

                self._add_proc(_Process(
                    f"{process.name}.{target.name}.d", comb_reg,
                    [target, *sens],
                ))

                def edge(reg=target, d=d_net):
                    return [(reg, d.value)]

                self._seq_actions.append(edge)
            else:
                def comb(dl=tuple(driver_list), target=target):
                    for mark, a in dl:
                        if int(mark.value):
                            old = target.value
                            a.execute()
                            if _differs(old, target.value):
                                return [(target, _KEEP)]
                            return []
                    return []  # no marked driver: the wire holds

                self._add_proc(_Process(
                    f"{process.name}.{target.name}", comb, sens,
                ))

    def _build_untimed(self, process: UntimedProcess) -> None:
        in_sigs: Dict[str, Sig] = {}
        sens: List[Sig] = []
        for port in process.in_ports():
            chan = port.channel
            if chan is None:
                raise ModelError(
                    f"untimed process {process.name!r} port {port.name!r} "
                    "is unconnected"
                )
            net = self._net(f"{process.name}.{port.name}")
            in_sigs[port.name] = net
            sens.append(net)
            # Feed the net from the channel's producer.
            producer = chan.producer
            if producer is None:
                self._pin_sigs.setdefault(chan.name, []).append(net)
            elif producer.sig is not None:
                def feed(src=producer.sig, dst=net):
                    value = src.current if isinstance(src, Register) else src.value
                    return [(dst, value)]

                self._add_proc(_Process(
                    f"{process.name}.{port.name}.feed", feed, [producer.sig],
                ))
            else:
                # Untimed-to-untimed: producer writes consumer nets directly.
                pass

        out_nets: Dict[str, List[Sig]] = {}
        for port in process.out_ports():
            chan = port.channel
            if chan is None:
                continue
            targets = [c.sig for c in chan.consumers if c.sig is not None]
            out_nets[port.name] = targets

        def run(process=process, in_sigs=in_sigs, out_nets=out_nets):
            kwargs = {name: net.value for name, net in in_sigs.items()}
            results = process.behavior(**kwargs) or {}
            process.firings += 1
            updates = []
            for name, targets in out_nets.items():
                for target in targets:
                    updates.append((target, results[name]))
            return updates

        self._add_proc(_Process(f"{process.name}.run", run, sens))

    # -- kernel ----------------------------------------------------------------------

    def _settle(self, initial: List[Tuple[Sig, object]]) -> None:
        """Propagate net updates through delta cycles until quiescent."""
        pending = initial
        for _delta in range(self.max_deltas):
            if not pending:
                return
            woken: List[_Process] = []
            woken_ids: Set[int] = set()
            for sig, value in pending:
                self.events += 1
                if value is not _KEEP:
                    if isinstance(sig, Register) or sig.fmt is None:
                        # Internal nets carry tokens verbatim (no coercion);
                        # register commits were quantized by the d-net proc.
                        sig._value = value
                    else:
                        sig.value = value
                for proc in self._sensitive.get(id(sig), ()):
                    if id(proc) not in woken_ids:
                        woken_ids.add(id(proc))
                        woken.append(proc)
            pending = []
            for proc in woken:
                self.activations += 1
                pending.extend(proc.run())
            # Drop updates that do not change the net (event suppression).
            pending = [
                (sig, value) for sig, value in pending
                if value is _KEEP or _differs(
                    sig.current if isinstance(sig, Register) else sig.value,
                    value)
            ]
        oscillating = sorted({
            sig.name for sig, _value in pending if sig.name is not None
        })
        error = SimulationError(
            f"event simulation did not settle within {self.max_deltas} delta "
            f"cycles (combinational oscillation); still-changing nets: "
            f"{oscillating[:8]}"
        )
        # Structured diagnostics for tooling (mirrors DeadlockError).
        error.cycle = self.cycle
        error.deltas = self.max_deltas
        error.pending = oscillating
        raise error

    #: Hooks called once per cycle after the combinational network settles
    #: and before the clock edge (i.e. when the cycle's values are stable).
    @property
    def monitors(self) -> List[Callable[["EventSimulator"], None]]:
        if not hasattr(self, "_monitors"):
            self._monitors = []
        return self._monitors

    def step(self, pins: Optional[Dict[str, object]] = None) -> None:
        """Simulate one clock cycle: drive pins, settle, sample, clock edge."""
        if self.cycle == 0:
            # Initial settling: run every process once.
            updates: List[Tuple[Sig, object]] = []
            for proc in self._procs:
                self.activations += 1
                updates.extend(proc.run())
            self._settle(updates)
        if pins:
            updates = []
            for name, value in pins.items():
                for sig in self._pin_sigs.get(name, ()):
                    updates.append((sig, value))
            self._settle(updates)
        for monitor in self.monitors:
            monitor(self)
        # Clock edge: all clocked processes sample, then updates propagate.
        edge_updates: List[Tuple[Sig, object]] = []
        for action in self._seq_actions:
            edge_updates.extend(action())
        self._settle(edge_updates)
        self.cycle += 1

    def run(self, cycles: int,
            pins_fn: Optional[Callable[[int], Dict[str, object]]] = None) -> None:
        """Simulate *cycles* clock cycles."""
        for _ in range(cycles):
            self.step(pins_fn(self.cycle) if pins_fn else None)

    def value(self, sig: Sig):
        """Read a signal's settled value."""
        return sig.current if isinstance(sig, Register) else sig.value


class _Keep:
    """Marker: the process already wrote the net in place."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<keep>"


_KEEP = _Keep()


def _differs(old, new) -> bool:
    try:
        return not (old == new)
    except Exception:
        return True
