"""Stimulus and capture helpers for system simulation.

During system simulation the applied stimuli and observed responses are
recorded so that verification test-benches can be generated *"in
correspondence with the C++ simulation"* (paper sections 1 and 6).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.errors import SimulationError
from ..core.process import TimedProcess
from ..core.system import Channel


class StimulusBatch:
    """N independent stimulus programs, one per lane.

    A lane is one scalar stimulus stream: a list of per-cycle
    ``{pin_name: value}`` mappings.  The batch holds ``lanes`` such
    programs of equal length and presents them column-wise —
    :meth:`pins_at` returns, for one cycle, every pin's per-lane value
    list — which is the shape both batched engines consume
    (:meth:`repro.synth.gatesim.GateSimulator.run_batch` and
    :meth:`repro.sim.batched.BatchedCompiledSimulator.run_batch`).

    The batch is pure stimulus bookkeeping: it never interprets values,
    so raw gate-level integers and Fx/float behavioural values both pass
    through untouched.
    """

    def __init__(self, programs: Sequence[Sequence[Mapping[str, object]]]):
        if not programs:
            raise SimulationError("a StimulusBatch needs at least one lane")
        cycles = len(programs[0])
        for index, program in enumerate(programs):
            if len(program) != cycles:
                raise SimulationError(
                    f"lane {index} has {len(program)} cycles, "
                    f"lane 0 has {cycles} — lanes must align"
                )
        self.programs: List[List[Dict[str, object]]] = [
            [dict(pins) for pins in program] for program in programs
        ]
        self.lanes = len(self.programs)
        self.cycles = cycles

    @classmethod
    def broadcast(cls, program: Sequence[Mapping[str, object]],
                  lanes: int) -> "StimulusBatch":
        """The same scalar program on every lane."""
        return cls([program] * lanes)

    @classmethod
    def from_programs(cls, *programs) -> "StimulusBatch":
        """One lane per argument."""
        return cls(list(programs))

    def lane(self, index: int) -> List[Dict[str, object]]:
        """Lane *index* as a scalar stimulus program."""
        return self.programs[index]

    def pins_at(self, cycle: int) -> Dict[str, List[object]]:
        """Every pin driven on *cycle*: name -> one value per lane.

        A pin missing from some lane's mapping is driven with 0 on that
        lane (matching the engines' undriven-pin default).
        """
        names = []
        seen = set()
        for program in self.programs:
            for name in program[cycle]:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return {
            name: [program[cycle].get(name, 0) for program in self.programs]
            for name in names
        }

    def __len__(self) -> int:
        return self.cycles


class Recorder:
    """Records the per-cycle value of channels (None when no token).

    Register as a monitor: ``scheduler.monitors.append(recorder)``.
    """

    def __init__(self, *channels: Channel):
        self.channels = list(channels)
        self.trace: Dict[str, List[object]] = {c.name: [] for c in self.channels}

    def watch(self, chan: Channel) -> None:
        """Add a channel to the recording set (pads history with None)."""
        self.channels.append(chan)
        self.trace[chan.name] = [None] * self._length()

    def _length(self) -> int:
        return max((len(v) for v in self.trace.values()), default=0)

    def __call__(self, scheduler) -> None:
        for chan in self.channels:
            self.trace[chan.name].append(chan.value if chan.valid else None)

    def __getitem__(self, name: str) -> List[object]:
        return self.trace[name]

    def last(self, name: str):
        """The most recent recorded value of channel *name*."""
        return self.trace[name][-1]


class PortLog:
    """Captures the cycle-true port I/O of one timed component.

    The log holds, per cycle, the token seen on every connected port (or
    None).  :mod:`repro.hdl.testbench` turns this into an HDL testbench
    that re-applies the inputs and asserts the outputs against the
    synthesized component (the paper's verification generation, Fig. 8).
    """

    def __init__(self, process: TimedProcess):
        self.process = process
        self.inputs: Dict[str, List[object]] = {
            p.name: [] for p in process.in_ports()
        }
        self.outputs: Dict[str, List[object]] = {
            p.name: [] for p in process.out_ports()
        }
        # Each port beside its log, inputs first, in declaration order.
        self._taps = [(p, self.inputs[p.name]) for p in process.in_ports()]
        self._taps += [(p, self.outputs[p.name]) for p in process.out_ports()]

    def __call__(self, scheduler) -> None:
        for port, values in self._taps:
            chan = port.channel
            values.append(
                chan.value if chan is not None and chan.valid else None
            )

    @property
    def cycles(self) -> int:
        """Number of recorded cycles."""
        for values in self.inputs.values():
            return len(values)
        for values in self.outputs.values():
            return len(values)
        return 0
