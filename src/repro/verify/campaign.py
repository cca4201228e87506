"""Fault-injection campaigns against the golden gate-level simulation.

A campaign replays one stimulus program — a list of per-cycle pin
drives — first on the fault-free netlist (the golden run), then once per
fault with the saboteur armed, comparing primary outputs cycle by cycle.
A fault is *detected* when any output differs on any cycle; the result is
a coverage report in the style of :mod:`repro.synth.report`.

The campaign reuses one :class:`~repro.synth.gatesim.GateSimulator`
through the checkpoint/restore guard rail instead of re-levelizing the
netlist per fault, and accepts a :class:`~repro.verify.guard.Watchdog`
so long campaigns return partial coverage instead of wedging.  The
golden run, its pin program and the fault simulators are built on the
first run and kept, so a shard worker's later spans
(:meth:`FaultCampaign.run_shard`) replay only their faults.

Lane-mapped campaigns
---------------------
With ``lanes=N`` the campaign maps the fault universe onto the gate
simulator's bit-lanes: each chunk of up to N faults runs in *one*
word-parallel replay — lane L carries fault L's saboteur — so the
whole chunk costs one golden-replay's worth of gate evaluations
instead of N.  The golden run and each chunk are
:meth:`GateSimulator.replay` calls over one packed
:class:`~repro.synth.gatesim.PinProgram`, one native call each (a
chunk holding transient faults is split at their cycles).  Detection
diffs each output bus's lane-packed words against the golden bit
pattern, claiming each lane's first divergent (cycle, output) in the
same order the scalar path checks them, so the resulting
:class:`CampaignReport` is equal field for field to the scalar
campaign's.  :attr:`FaultCampaign.gate_evals` (scalar-or-lane word
evaluations, from :attr:`GateSimulator.gate_evals`) is the denominator
of the speedup claim.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import SimulationError
from ..synth.gatesim import Detections, GateSimulator, PinProgram
from ..synth.netlist import Netlist
from .faults import (
    StuckAtFault,
    TransientFault,
    collapse_faults,
    enumerate_faults,
)
from .guard import Watchdog

Fault = Union[StuckAtFault, TransientFault]
Stimulus = Sequence[Mapping[str, int]]


def derive_seed(base: int, *components: int) -> int:
    """A stable per-item seed from a base seed and item coordinates.

    Splitting work across shards/workers must never change what any
    item simulates, so per-item seeds are *derived* — hashed from the
    base seed and the item's position — rather than drawn sequentially
    from one shared RNG (whose stream would depend on execution order).
    SHA-256 based: stable across processes, platforms and Python's
    per-run string-hash salt.
    """
    digest = hashlib.sha256(
        ("repro-seed:" + ":".join(str(c) for c in (base,) + components))
        .encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def random_stimulus(netlist: Netlist, cycles: int,
                    seed: int = 0,
                    stream: Optional[int] = None) -> List[Dict[str, int]]:
    """A reproducible random stimulus program for *netlist*'s inputs.

    Each cycle drives every primary input with a uniform random raw value
    of the right width (two's-complement domain, like
    :meth:`GateSimulator.set_input`).

    ``stream`` selects one of many independent programs sharing the same
    base *seed*: the effective seed is ``derive_seed(seed, stream)``, so
    sweep item N's stimulus is identical no matter which shard or worker
    generates it.
    """
    if stream is not None:
        seed = derive_seed(seed, stream)
    rng = random.Random(seed)
    program: List[Dict[str, int]] = []
    for _ in range(cycles):
        program.append({
            name: rng.getrandbits(len(bus))
            for name, bus in netlist.inputs.items()
        })
    return program


@dataclass
class FaultResult:
    """Outcome of simulating one (representative) fault."""

    fault: Fault
    detected: bool
    #: First cycle on which an output differed (None when undetected).
    detect_cycle: Optional[int] = None
    #: Name of the first differing primary output.
    detect_output: Optional[str] = None
    #: Size of the structural equivalence class this fault represents.
    class_size: int = 1


@dataclass
class CampaignReport:
    """Coverage report of a fault campaign (``report()`` renders text)."""

    netlist_name: str
    cycles: int
    total_faults: int
    collapsed_faults: int
    results: List[FaultResult] = field(default_factory=list)
    #: False when a watchdog budget expired before every fault ran.
    complete: bool = True
    #: Representatives never simulated because the budget expired.
    skipped: int = 0

    def detected(self) -> List[FaultResult]:
        return [r for r in self.results if r.detected]

    def undetected(self) -> List[FaultResult]:
        return [r for r in self.results if not r.detected]

    @property
    def detected_weight(self) -> int:
        """Detected faults counting every member of collapsed classes."""
        return sum(r.class_size for r in self.detected())

    def coverage(self) -> float:
        """Detected fraction of the full (uncollapsed) fault universe."""
        if not self.total_faults:
            return 1.0
        return self.detected_weight / self.total_faults

    def report(self, netlist: Optional[Netlist] = None,
               max_undetected: int = 8) -> str:
        """Text summary in the synthesis-report style."""
        lines = [
            f"fault campaign {self.netlist_name}",
            f"  stimulus   : {self.cycles} cycles",
            f"  fault list : {self.total_faults} faults, "
            f"{self.collapsed_faults} after collapsing",
            f"  simulated  : {len(self.results)} representatives"
            + ("" if self.complete
               else f" (partial: {self.skipped} skipped on budget)"),
            f"  detected   : {len(self.detected())} representatives "
            f"({self.detected_weight} faults)",
            f"  coverage   : {100.0 * self.coverage():.1f}%",
        ]
        undetected = self.undetected()
        if undetected:
            shown = ", ".join(
                r.fault.describe(netlist) for r in undetected[:max_undetected]
            )
            suffix = ", ..." if len(undetected) > max_undetected else ""
            lines.append(f"  undetected : {shown}{suffix}")
        return "\n".join(lines)


class FaultCampaign:
    """Run a fault-injection campaign on a netlist.

    Parameters
    ----------
    netlist:
        The gate-level design under test.
    stimuli:
        The stimulus program: one ``{input_name: raw}`` mapping per cycle.
    faults:
        Faults to inject.  Default: the structurally-collapsed stuck-at
        universe.  Explicit lists may mix stuck-at and transient faults.
    collapse:
        When *faults* is None, whether to collapse the stuck-at universe
        (True) or simulate it uncollapsed (False).
    watchdog:
        Optional wall-clock/cycle budget.  When it expires mid-campaign,
        the report comes back with ``complete=False`` and the remaining
        faults counted as ``skipped`` — partial results, no exception.
        (The batched path checks the budget per chunk, so a tight budget
        may cut at a different fault boundary than the scalar path.)
    lanes:
        Faults simulated per word-parallel replay.  1 (default) is the
        historical one-replay-per-fault path; 64 fills a machine word.
        The report is the same either way.
    shard:
        Optional ``(start, stop)`` slice of the deterministic work list
        (the collapsed representatives, in their canonical order): only
        those items are simulated.  ``total_faults`` still counts the
        *full* universe — a shard's own coverage number is meaningless;
        shards exist to be merged by a runner that re-assembles the
        complete report.  Lane packing restarts at each shard boundary,
        which is report-invariant (the batched path is byte-identical
        to the scalar path at any chunking).
    """

    def __init__(self, netlist: Netlist, stimuli: Stimulus,
                 faults: Optional[Sequence[Fault]] = None,
                 collapse: bool = True,
                 watchdog: Optional[Watchdog] = None,
                 obs=None, lanes: int = 1,
                 shard: Optional[Tuple[int, int]] = None):
        self.netlist = netlist
        self.stimuli = [dict(pins) for pins in stimuli]
        self.watchdog = watchdog
        self.lanes = lanes
        #: Word-level gate evaluations spent by the last :meth:`run`
        #: (golden + fault simulation) — compare a ``lanes=64`` campaign
        #: against a ``lanes=1`` campaign to see the batching win.
        self.gate_evals = 0
        #: Optional :class:`repro.obs.Capture`: campaign progress and
        #: per-fault outcomes become events on its stream.
        self.obs = obs
        #: Optional ``fn(done, total)`` called as work items complete —
        #: per fault on the scalar path, per chunk on the batched path.
        #: The sharded runner's workers hook this to stream live shard
        #: progress to the parent; it never affects results.
        self.progress = None
        if faults is None:
            if collapse:
                result = collapse_faults(netlist)
                self.total_faults = result.total
                self._work = [
                    (rep, len(members))
                    for rep, members in result.classes.items()
                ]
            else:
                universe = enumerate_faults(netlist)
                self.total_faults = len(universe)
                self._work = [(fault, 1) for fault in universe]
        else:
            self.total_faults = len(faults)
            self._work = [(fault, 1) for fault in faults]
        #: Length of the full work list before any shard slicing — the
        #: ``collapsed_faults`` a merged report must carry.
        self.work_size = len(self._work)
        #: What depends only on the netlist and the stimulus, built on
        #: the first run and kept for the next (a shard worker runs many
        #: spans): the golden simulator, the packed pin program, the
        #: golden replay and its gate evaluations; and per lane count a
        #: fault simulator, its fresh state and its evaluations then.
        self._golden: Optional[tuple] = None
        self._fault_sims: Dict[int, tuple] = {}
        self.shard = shard
        if shard is not None:
            start, stop = shard
            if not (0 <= start <= stop <= len(self._work)):
                raise SimulationError(
                    f"shard ({start}, {stop}) outside work list of "
                    f"{len(self._work)} representatives"
                )
            self._work = self._work[start:stop]

    # -- execution ---------------------------------------------------------------

    def _golden_run(self, sim: GateSimulator, program: PinProgram):
        """Lane 0's output words on every cycle of *program*."""
        return sim.replay(program, 0, len(program))

    def _golden_replay(self) -> tuple:
        """``(simulator, program, golden words, gate evaluations)`` of
        the golden run, replayed on the first call only."""
        if self._golden is None:
            sim = GateSimulator(self.netlist)
            program = PinProgram(self.netlist, self.stimuli)
            golden = self._golden_run(sim, program)
            self._golden = (sim, program, golden, sim.gate_evals)
        return self._golden

    def _fault_sim(self, lanes: int) -> tuple:
        """``(simulator, fresh state, gate evaluations then)`` of the
        *lanes*-lane fault simulator, built on the first call only.  Its
        fresh state is the state the golden run started from."""
        kept = self._fault_sims.get(lanes)
        if kept is None:
            sim = GateSimulator(self.netlist, lanes=lanes)
            kept = self._fault_sims[lanes] = (sim, sim.save_state(),
                                              sim.gate_evals)
        return kept

    def _simulate_fault(self, sim: GateSimulator, fault: Fault,
                        golden: List[Dict[str, int]], initial) -> FaultResult:
        sim.release()
        sim.restore_state(initial)
        if isinstance(fault, StuckAtFault):
            sim.force(fault.net, fault.value)
        captured: Dict[str, int] = {}
        sim.monitors = [lambda s: captured.update(s.settled_outputs())]
        try:
            for cycle, pins in enumerate(self.stimuli):
                transient_now = (isinstance(fault, TransientFault)
                                 and cycle == fault.cycle)
                if transient_now:
                    sim.flip(fault.net)
                sim.step(pins)
                if transient_now:
                    sim.release(fault.net)
                expected = golden[cycle]
                for name, value in expected.items():
                    if captured[name] != value:
                        return FaultResult(fault, True, cycle, name)
            return FaultResult(fault, False)
        finally:
            sim.monitors = []
            sim.release()

    def _simulate_chunk(self, sim: GateSimulator,
                        chunk: Sequence[tuple], program: PinProgram,
                        golden, initial) -> List[FaultResult]:
        """Simulate up to ``sim.lanes`` faults in one word-parallel replay.

        Lane L carries fault L.  The stuck-at faults are armed in one
        pass over the chunk, one override per net, which the released
        simulator takes as its force table; the native kernel's override
        arrays are then written in one pass in level order.  A transient
        fault splits the replay at its cycle (flip, run that cycle,
        release).  The replay claims, per lane, the first (cycle, output)
        whose lane-packed bus word differs from the golden bit pattern —
        outputs checked in the same order as the scalar path, so the
        recorded fields match it exactly.
        """
        sim.release()
        sim.restore_state(initial)
        forces: Dict[int, Tuple[int, int]] = {}
        transients: Dict[int, List[tuple]] = {}
        for lane, (fault, _size) in enumerate(chunk):
            if isinstance(fault, StuckAtFault):
                lanes, bits = forces.get(fault.net, (0, 0))
                forces[fault.net] = (lanes | 1 << lane,
                                     bits | (fault.value & 1) << lane)
            elif 0 <= fault.cycle < len(program):
                transients.setdefault(fault.cycle, []).append(
                    (lane, fault.net))
        sim.force_many(forces)
        detections = Detections(golden, len(chunk))
        try:
            start = 0
            for cycle in sorted(transients):
                sim.replay(program, start, cycle, detections)
                armed = transients[cycle]
                for lane, net in armed:
                    sim.flip(net, lanes=[lane])
                sim.replay(program, cycle, cycle + 1, detections)
                for lane, net in armed:
                    sim.release(net, lanes=[lane])
                start = cycle + 1
            sim.replay(program, start, len(program), detections)
        finally:
            sim.release()
        names = list(self.netlist.outputs)
        results = []
        for lane, (fault, size) in enumerate(chunk):
            hit = detections.first(lane)
            if hit is None:
                results.append(FaultResult(fault, False, class_size=size))
            else:
                results.append(FaultResult(fault, True, hit[0],
                                           names[hit[1]], size))
        return results

    def run_shard(self, start: int, stop: int) -> CampaignReport:
        """Run only work items ``[start, stop)`` of the current work list.

        The returned report's results cover just that span (the
        denominators still describe the whole campaign, as with the
        ``shard`` parameter).  The campaign object stays reusable — the
        work list is restored afterwards — so a shard worker pays for
        fault collapsing once and then executes any number of spans.
        """
        if not (0 <= start <= stop <= len(self._work)):
            raise SimulationError(
                f"shard span ({start}, {stop}) outside work list of "
                f"{len(self._work)} representatives"
            )
        saved = self._work
        self._work = saved[start:stop]
        try:
            return self.run()
        finally:
            self._work = saved

    def run(self) -> CampaignReport:
        """Execute the campaign; always returns a report (never wedges).

        :attr:`gate_evals` counts the golden replay and a fresh fault
        simulator on every run, as if each run built its own.
        """
        golden_sim, program, golden, golden_evals = self._golden_replay()

        report = CampaignReport(
            netlist_name=self.netlist.name,
            cycles=len(self.stimuli),
            total_faults=self.total_faults,
            collapsed_faults=self.work_size,
        )
        # The capture's event stream, if any (duck-typed).
        events = getattr(self.obs, "events", None)
        if events is not None:
            events.emit("campaign_start", netlist=self.netlist.name,
                        cycles=len(self.stimuli), faults=self.total_faults,
                        representatives=len(self._work))
        if self.lanes > 1:
            fault_evals = self._run_batched(report, program, golden, events)
        else:
            outputs = golden_sim.recorded_outputs(golden, len(program))
            fault_evals = self._run_scalar(report, outputs, events)
        self.gate_evals = golden_evals + fault_evals
        if events is not None:
            events.emit("campaign_end", netlist=self.netlist.name,
                        coverage=report.coverage(), complete=report.complete,
                        skipped=report.skipped,
                        detected=len(report.detected()))
        return report

    def _run_scalar(self, report: CampaignReport,
                    golden: List[Dict[str, int]], events) -> int:
        """Simulate the work list one fault at a time; returns the gate
        evaluations a fresh simulator would have spent."""
        # One simulator for every fault: restore beats re-levelizing.
        fault_sim, initial, built = self._fault_sim(1)
        start = fault_sim.gate_evals
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.start()
        for index, (fault, class_size) in enumerate(self._work):
            if watchdog is not None and watchdog.expired():
                report.complete = False
                report.skipped = len(self._work) - index
                break
            result = self._simulate_fault(fault_sim, fault, golden, initial)
            result.class_size = class_size
            report.results.append(result)
            if events is not None:
                _emit_fault(events, result)
            if watchdog is not None:
                # One tick per fault: max_cycles doubles as a fault budget.
                watchdog.tick()
            if self.progress is not None:
                self.progress(index + 1, len(self._work))
        return built + fault_sim.gate_evals - start

    def _run_batched(self, report: CampaignReport, program: PinProgram,
                     golden, events) -> int:
        """Simulate the work list a chunk of lanes at a time; returns the
        gate evaluations a fresh simulator would have spent."""
        # One lane-wide simulator for the whole campaign; its fresh
        # post-levelize state doubles as the per-chunk restore point
        # (every lane starts from the same DFF init the golden run did),
        # and lane 0's golden output words are the reference bit
        # patterns every lane's packed words are diffed against.
        fault_sim, initial, built = self._fault_sim(self.lanes)
        start = fault_sim.gate_evals
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.start()
        index = 0
        work = self._work
        while index < len(work):
            if watchdog is not None and watchdog.expired():
                report.complete = False
                report.skipped = len(work) - index
                break
            chunk = work[index:index + self.lanes]
            results = self._simulate_chunk(fault_sim, chunk, program,
                                           golden, initial)
            report.results.extend(results)
            if events is not None:
                for result in results:
                    _emit_fault(events, result)
            if watchdog is not None:
                for _result in results:
                    watchdog.tick()
            index += len(chunk)
            if self.progress is not None:
                self.progress(index, len(work))
        return built + fault_sim.gate_evals - start


def _emit_fault(events, result: FaultResult) -> None:
    events.emit("fault", fault=str(result.fault), detected=result.detected,
                detect_cycle=result.detect_cycle,
                detect_output=result.detect_output,
                class_size=result.class_size)
