"""Lockstep execution of two simulation engines with divergence localization.

The environment's refinement story only works if the engines agree; when
they silently don't, debugging used to mean staring at two waveform
dumps.  :class:`Lockstep` runs two engines over the same stimulus
program, compares a canonical observation (raw fixed-point values of the
design's outputs) and, on mismatch, binary-searches replays to the
*first* divergent cycle, naming the divergent signals — an actionable
diagnostic instead of a silent disagreement.

Engines plug in through small adapters that normalize three things:
pin driving, the pre-clock-edge observation instant, and the value
domain (``Fx`` tokens become raw integers, matching the netlist world).
Factories (not instances) are supplied, because localization replays
fresh engine pairs and because two engines must never share one mutable
``System``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..fixpt import Fx, FxFormat, quantize_raw
from ..sim.compiled import CompiledSimulator
from ..sim.cycle import CycleScheduler
from ..sim.event import EventSimulator
from ..synth.gatesim import GateSimulator
from ..synth.netlist import Netlist

Observation = Dict[str, object]
Stimulus = Sequence[Mapping[str, object]]


def _canonical(token):
    """Normalize a token into the comparable domain (Fx -> raw int)."""
    if isinstance(token, Fx):
        return token.raw
    if isinstance(token, bool):
        return int(token)
    return token


class EngineAdapter:
    """Uniform lockstep interface over one simulation engine."""

    name = "engine"

    def step(self, pins: Mapping[str, object]) -> None:
        """Drive one clock cycle with *pins* (design-domain values)."""
        raise NotImplementedError

    def observe(self) -> Observation:
        """This cycle's canonical observation (pre-clock-edge outputs)."""
        raise NotImplementedError


class CycleAdapter(EngineAdapter):
    """The interpreted three-phase cycle scheduler."""

    def __init__(self, system, name: str = "interpreted"):
        self.scheduler = CycleScheduler(system)
        self.name = name
        self._pins = {chan.name: chan
                      for chan in self.scheduler.elaboration.pins}
        self._outs = [
            chan for chan in system.channels if chan.producer is not None
        ]

    def step(self, pins: Mapping[str, object]) -> None:
        self.scheduler.step({
            self._pins[name]: value for name, value in (pins or {}).items()
        })

    def observe(self) -> Observation:
        # Channels keep this cycle's tokens until the next step clears them.
        return {
            chan.name: _canonical(chan.value) if chan.valid else None
            for chan in self._outs
        }


class CompiledAdapter(EngineAdapter):
    """The generated compiled-code simulator."""

    def __init__(self, system, name: str = "compiled", passes=None,
                 validate: str = "off"):
        self._outs = [
            chan for chan in system.channels if chan.producer is not None
        ]
        self.sim = CompiledSimulator(system, watch=self._outs, passes=passes,
                                     validate=validate)
        self.name = name

    def step(self, pins: Mapping[str, object]) -> None:
        self.sim.step(dict(pins or {}))

    def observe(self) -> Observation:
        return {
            chan.name: _canonical(self.sim.outputs.get(chan.name))
            for chan in self._outs
        }


class EventAdapter(EngineAdapter):
    """The event-driven (delta-cycle, HDL-semantics) simulator."""

    def __init__(self, system, name: str = "event_rt"):
        self.sim = EventSimulator(system)
        self.name = name
        self._outs = [
            chan for chan in system.channels if chan.producer is not None
        ]
        self._last: Observation = {}
        self.sim.monitors.append(self._capture)

    def _capture(self, sim) -> None:
        self._last = {
            chan.name: _canonical(sim.value(chan)) for chan in self._outs
        }

    def step(self, pins: Mapping[str, object]) -> None:
        self.sim.step(dict(pins or {}))

    def observe(self) -> Observation:
        return dict(self._last)


class GateAdapter(EngineAdapter):
    """The levelized gate-level simulator over a synthesized netlist."""

    def __init__(self, netlist: Netlist,
                 in_formats: Optional[Mapping[str, FxFormat]] = None,
                 signed: object = True,
                 name: str = "netlist"):
        self.sim = GateSimulator(netlist)
        self.in_formats = dict(in_formats or {})
        self.signed = signed
        self.name = name
        self._last: Observation = {}
        self.sim.monitors.append(self._capture)

    @classmethod
    def from_synthesis(cls, synthesis, name: str = "netlist") -> "GateAdapter":
        """Build an adapter from a :class:`ComponentSynthesis`, pulling pin
        formats and output signedness from the source process's ports."""
        process = synthesis.process
        in_formats = {
            port.name: port.sig.fmt for port in process.in_ports()
            if port.sig is not None and port.sig.fmt is not None
        }
        signed = {
            port.name: port.sig.fmt.signed for port in process.out_ports()
            if port.sig is not None and port.sig.fmt is not None
        }
        return cls(synthesis.netlist, in_formats, signed=signed, name=name)

    def _is_signed(self, output: str) -> bool:
        if isinstance(self.signed, Mapping):
            return bool(self.signed.get(output, True))
        return bool(self.signed)

    def _capture(self, sim) -> None:
        self._last = {
            name: sim.output(name, self._is_signed(name))
            for name in sim.netlist.outputs
        }

    def _to_raw(self, name: str, value) -> int:
        fmt = self.in_formats.get(name)
        if fmt is None:
            return int(value)
        if isinstance(value, Fx):
            return value.raw
        return quantize_raw(value, fmt)

    def step(self, pins: Mapping[str, object]) -> None:
        self.sim.step({
            name: self._to_raw(name, value)
            for name, value in (pins or {}).items()
        })

    def observe(self) -> Observation:
        return dict(self._last)


@dataclass
class Divergence:
    """The first point at which two lockstep engines disagree."""

    cycle: int
    signals: List[str]
    values_a: Dict[str, object]
    values_b: Dict[str, object]
    engine_a: str = "A"
    engine_b: str = "B"

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{name}: {self.engine_a}={self.values_a.get(name)!r} "
            f"{self.engine_b}={self.values_b.get(name)!r}"
            for name in self.signals
        )
        return (f"engines {self.engine_a!r} and {self.engine_b!r} first "
                f"diverge at cycle {self.cycle} on {self.signals} ({pairs})")


class Lockstep:
    """Run two engines in lockstep and localize any divergence.

    Parameters
    ----------
    make_a / make_b:
        Factories returning fresh :class:`EngineAdapter` instances over
        *independent* design instances (engines share mutable signal
        state, so each factory must rebuild its own system).
    stimuli:
        The stimulus program, one pin mapping per cycle, in the design's
        value domain (adapters convert per engine).
    strict:
        When True, a signal observed by only one engine — or a cycle
        where one engine produced no token — counts as a divergence.
        Default False: only signals both engines observe are compared and
        ``None`` (no token) acts as a wildcard.
    """

    def __init__(self, make_a: Callable[[], EngineAdapter],
                 make_b: Callable[[], EngineAdapter],
                 stimuli: Stimulus, strict: bool = False):
        self.make_a = make_a
        self.make_b = make_b
        self.stimuli = [dict(pins) for pins in stimuli]
        self.strict = strict

    # -- comparison --------------------------------------------------------------

    def _diff(self, oa: Observation, ob: Observation) -> List[str]:
        if self.strict:
            keys = set(oa) | set(ob)
        else:
            keys = set(oa) & set(ob)
        missing = object()
        diffs = []
        for key in sorted(keys):
            va = oa.get(key, missing)
            vb = ob.get(key, missing)
            if not self.strict and (va is None or vb is None):
                continue
            if va is missing or vb is missing or va != vb:
                diffs.append(key)
        return diffs

    # -- execution ---------------------------------------------------------------

    def run(self, compare_every: int = 1) -> Optional[Divergence]:
        """Lockstep the engines; None when they agree everywhere.

        ``compare_every`` trades comparison cost against localization
        cost: with a stride, mismatches are only *noticed* at stride
        boundaries and the exact first bad cycle is then recovered by
        binary-searching O(log stride) fresh replays.  Localization
        assumes a divergence persists once state has split (true for
        register-observable divergences); the returned cycle is verified
        divergent and the cycle before it verified clean.
        """
        if compare_every < 1:
            raise SimulationError("compare_every must be >= 1")
        a, b = self.make_a(), self.make_b()
        last_ok = -1
        total = len(self.stimuli)
        for cycle in range(total):
            pins = self.stimuli[cycle]
            a.step(pins)
            b.step(pins)
            if (cycle + 1) % compare_every == 0 or cycle == total - 1:
                oa, ob = a.observe(), b.observe()
                if not self.strict and not (set(oa) & set(ob)):
                    raise SimulationError(
                        f"lockstep engines {a.name!r} and {b.name!r} share no "
                        "observation signals; check adapter naming"
                    )
                if self._diff(oa, ob):
                    return self._localize(last_ok + 1, cycle, (oa, ob),
                                          a.name, b.name)
                last_ok = cycle
        return None

    def _observe_at(self, cycle: int) -> Tuple[Observation, Observation]:
        """Replay fresh engines through *cycle* and observe there."""
        a, b = self.make_a(), self.make_b()
        for pins in self.stimuli[:cycle + 1]:
            a.step(pins)
            b.step(pins)
        return a.observe(), b.observe()

    def _localize(self, lo: int, hi: int,
                  known_at_hi: Tuple[Observation, Observation],
                  name_a: str, name_b: str) -> Divergence:
        cache: Dict[int, Tuple[Observation, Observation]] = {hi: known_at_hi}
        while lo < hi:
            mid = (lo + hi) // 2
            pair = cache.get(mid)
            if pair is None:
                pair = self._observe_at(mid)
                cache[mid] = pair
            if self._diff(*pair):
                hi = mid
            else:
                lo = mid + 1
        pair = cache.get(lo)
        if pair is None:
            pair = self._observe_at(lo)
        oa, ob = pair
        signals = self._diff(oa, ob)
        return Divergence(
            cycle=lo,
            signals=signals,
            values_a={name: oa.get(name) for name in signals},
            values_b={name: ob.get(name) for name in signals},
            engine_a=name_a,
            engine_b=name_b,
        )
