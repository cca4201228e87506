"""Measurement machinery shared by the workloads.

* :class:`Tracer` records coarse spans (name, start, end, parent, work
  units) around every call the benchmark makes into a layer of the
  environment.  Spans are per set-up stage and per timed slice, never per
  simulated cycle, so recording them costs nothing measurable.
* :class:`Replay` runs one simulation engine (one Table 1 row) over a
  cyclic stimulus program in time slices and checks every observed
  output against the reference.
* :class:`CampaignTask` runs lane-packed fault campaigns over chunks of
  a seeded fault order and cross-checks them.
* :class:`TurnaroundTask` repeats the compile turnaround.
* :func:`measure` interleaves all tasks round-robin in short slices, so
  drifts of the host's speed hit every task alike, and
  :class:`Calibration` measures that speed so timings can be rescaled.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder; :meth:`dump` writes the spans as JSON."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, units: float = 0):
        record = self.add(name, perf_counter(), None, units)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: Optional[float],
            units: float) -> Dict[str, object]:
        """Record a span under the current span; *end* None means open."""
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": start,
            "end": end,
            "units": units,
        }
        self.spans.append(record)
        return record

    def self_time(self, name: str) -> Tuple[float, float]:
        """Summed self time (seconds) and work units of spans *name*.

        Self time is a span's duration minus the time its children cover.
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    span["end"] - span["start"])
        seconds = units = 0.0
        for span in self.spans:
            if span["name"] == name:
                seconds += (span["end"] - span["start"]
                            - child_time.get(span["id"], 0.0))
                units += span["units"]
        return seconds, units

    def per_unit(self, name: str, scale: float) -> float:
        """Self time of spans *name* per work unit, times *scale*."""
        seconds, units = self.self_time(name)
        return scale * seconds / units

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class _NoMismatch:
    """The expected output of every netlist replay cycle: 0 mismatches."""

    def __getitem__(self, _index: int) -> int:
        return 0


NO_MISMATCH = _NoMismatch()


class Replay:
    """One engine replaying a cyclic stimulus program in timed slices.

    ``step(i)`` simulates program cycle ``i`` and returns what the engine
    observed on that cycle, in the engine's own value domain; it is
    converted to ``int`` when checked against ``expected[i]``, after the
    slice's timing stops.
    ``length()`` is the program length (read once per slice).  At the end
    of the program ``restart()`` returns the engine to its initial state
    and reports how many end-of-program checks failed; its cost is
    excluded from the slice's timing.
    """

    def __init__(self, name: str, step: Callable[[int], object],
                 expected, length: Callable[[], int],
                 restart: Callable[[], int]) -> None:
        self.name = name
        self.step = step
        self.expected = expected
        self.length = length
        self.restart = restart
        self.cycle = 0
        #: Per-slice cycles/sec.
        self.rates: List[float] = []
        self.cycles = 0
        self.attempted = 0
        self.failed = 0

    def _mismatches(self, begin: int, observed: Sequence[object]) -> int:
        expected = self.expected
        return sum(1 for offset, value in enumerate(observed)
                   if (None if value is None else int(value))
                   != expected[begin + offset])

    def run_slice(self, seconds: float, tracer: Tracer) -> None:
        step = self.step
        limit = self.length()
        if limit == 0:
            return
        cycle = begin = self.cycle
        observed: List[object] = []
        append = observed.append
        failures = steps = 0
        excluded = 0.0
        start = perf_counter()
        deadline = start + seconds
        while True:
            append(step(cycle))
            cycle += 1
            steps += 1
            if cycle == limit:
                pause = perf_counter()
                failures += self._mismatches(begin, observed)
                failures += self.restart()
                observed = []
                append = observed.append
                cycle = begin = 0
                resumed = perf_counter()
                excluded += resumed - pause
                deadline += resumed - pause
            if perf_counter() >= deadline:
                break
        end = perf_counter()
        elapsed = end - start - excluded
        tracer.add(self.name, start, end - excluded, steps)
        failures += self._mismatches(begin, observed)
        self.cycle = cycle
        self.cycles += steps
        self.rates.append(steps / elapsed)
        self.attempted += 1
        if failures:
            self.failed += 1


class CampaignTask:
    """Lane-packed campaigns over consecutive chunks of a fault order.

    Each slice campaigns the next ``chunk`` faults of the (seeded) order
    on 64 lanes, wrapping around, so a run covers much of the collapsed
    universe and its fast chunks do not hinge on the seed's sample.
    A chunk campaigned again must reproduce its first results, and
    :meth:`check` campaigns the head of the first chunk on the scalar
    path, which must agree field for field.
    """

    LANES = 64

    def __init__(self, netlist, stimuli, faults: Sequence[object],
                 chunk: int) -> None:
        self.netlist = netlist
        self.stimuli = stimuli
        self.faults = list(faults)
        self.chunk = chunk
        self.position = 0
        #: Per-chunk faults/sec.
        self.rates: List[float] = []
        #: Word-level gate evaluations per fault of the first chunk.
        self.gate_evals_per_fault = 0.0
        self.attempted = 0
        self.failed = 0
        self._seen: Dict[int, List[tuple]] = {}

    @staticmethod
    def _summary(report) -> List[tuple]:
        return [(str(r.fault), r.detected, r.detect_cycle, r.detect_output)
                for r in report.results]

    def _chunk(self, position: int) -> List[object]:
        count = len(self.faults)
        return [self.faults[(position + k) % count]
                for k in range(self.chunk)]

    def run_slice(self, _seconds: float, tracer: Tracer) -> None:
        from repro.verify import FaultCampaign

        position = self.position
        self.position = (position + self.chunk) % len(self.faults)
        faults = self._chunk(position)
        campaign = FaultCampaign(self.netlist, self.stimuli, faults=faults,
                                 lanes=self.LANES)
        with tracer.span("campaign", units=len(faults)) as span:
            report = campaign.run()
        summary = self._summary(report)
        first = self._seen.setdefault(position, summary)
        self.rates.append(len(faults) / span_seconds(span))
        if position == 0:
            self.gate_evals_per_fault = campaign.gate_evals / len(faults)
        self.attempted += 1
        if not (report.complete and summary == first
                and len(summary) == len(faults)):
            self.failed += 1

    def check(self, scalar_faults: int) -> bool:
        """The scalar path agrees with the lane-packed one on a sample."""
        from repro.verify import FaultCampaign

        head = self._chunk(0)[:scalar_faults]
        scalar = FaultCampaign(self.netlist, self.stimuli, faults=head).run()
        return self._summary(scalar) == self._seen[0][:scalar_faults]


class TurnaroundTask:
    """Capture plus compiled-simulator generation, repeated per slice.

    ``build()`` returns the generated simulator; every build must carry
    the same IR op count as *reference_ops*.
    """

    def __init__(self, build: Callable[[], object], reference_ops: int) -> None:
        self.build = build
        self.reference_ops = reference_ops
        #: Seconds per build.
        self.times: List[float] = []
        self.attempted = 0
        self.failed = 0

    def run_slice(self, seconds: float, tracer: Tracer) -> None:
        deadline = perf_counter() + seconds
        while True:
            with tracer.span("turnaround", units=1) as span:
                simulator = self.build()
            self.times.append(span_seconds(span))
            self.attempted += 1
            if simulator.ir_op_count != self.reference_ops:
                self.failed += 1
            # A design is a cyclic object graph: free it now, untimed, so
            # no later build pays for collecting it.
            del simulator
            gc.collect()
            if perf_counter() >= deadline:
                break


class Calibration:
    """A fixed pure-Python kernel that measures the host's current speed.

    Shared hosts change speed by a third or more for tens of seconds at a
    time (other tenants on the same core), longer than a whole run.
    Interpreter-bound code slows alike, so every timing is rescaled to the
    speed of a reference host on which the kernel runs ``REFERENCE_RATE``
    times a second: ``speed_factor()`` is that rescaling, from the fast
    tail of calibration slices interleaved with the measured ones.
    """

    #: Kernel runs per second on the reference host (a 2.1 GHz x86-64
    #: core running CPython 3.11 without contention).
    REFERENCE_RATE = 12000.0

    def __init__(self) -> None:
        self.rates: List[float] = []

    @staticmethod
    def kernel() -> int:
        table: Dict[int, int] = {}
        acc = 0
        for i in range(500):
            acc = (acc * 31 + i) & 0xFFFF
            table[i & 63] = acc
            acc ^= table.get((i * 7) & 63, 0)
        return acc

    def run_slice(self, seconds: float, _tracer: Tracer) -> None:
        kernel = self.kernel
        runs = 0
        start = perf_counter()
        deadline = start + seconds
        while True:
            kernel()
            runs += 1
            now = perf_counter()
            if now >= deadline:
                break
        self.rates.append(runs / (now - start))

    def speed_factor(self) -> float:
        """How much faster the reference host is than this run's host."""
        return self.REFERENCE_RATE / fastest_rate(self.rates)

    @classmethod
    def burst(cls) -> "Calibration":
        """A calibration measured right now, over ten slices."""
        calibration = cls()
        for _ in range(10):
            calibration.run_slice(SLICE_SECONDS, None)
        return calibration


#: Length of one engine's time slice: short, so that many slices fall
#: between the host's bursts of contention (see :func:`fastest_rate`).
SLICE_SECONDS = 0.02


def measure(tasks: Sequence[object], seconds: float, tracer: Tracer) -> None:
    """Round-robin time slices over *tasks* for about *seconds*."""
    begin = perf_counter()
    with tracer.span("measure"):
        while True:
            with tracer.span("round"):
                for task in tasks:
                    task.run_slice(SLICE_SECONDS, tracer)
            if perf_counter() - begin >= seconds:
                break


# Contention from other tenants only ever slows a slice down, so the fast
# tail of the per-slice samples is far steadier from run to run than
# their median; slow regimes that outlast a run are what the calibration
# rescales away.


def fastest_rate(rates: Sequence[float]) -> float:
    """The 90th percentile of per-slice rates."""
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[-1]


def fastest_time(times: Sequence[float]) -> float:
    """The 10th percentile of per-build times."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[0]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def span_seconds(record: Dict[str, object]) -> float:
    return record["end"] - record["start"]
