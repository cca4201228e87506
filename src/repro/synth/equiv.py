"""Netlist-level equivalence checking via miter construction.

The IR-level translation validation (:mod:`repro.ir.equiv`) proves
optimized blocks against their raw lowering — but a pass can be proved
at the IR level and still synthesize to a different function when its
frac/width labels mislead the gate back-end's alignment.  This module
closes that gap: two netlists with the same primary-input/output
interface are combined into a *miter* — shared inputs feed both copies,
every output pair is XORed bit by bit and the disagreements OR-reduce
to one ``diff`` net — and the miter is evaluated with the word-parallel
:class:`~repro.synth.gatesim.GateSimulator`, 64 stimulus vectors per
gate pass.  Narrow input cones are checked exhaustively; wide ones fall
back to seeded random sampling.  Sequential netlists (DFFs on either
side) get a bounded check: both copies start from their DFF initial
values and the miter must hold on every cycle of every episode.

:func:`optimize_netlist` callers opt in through ``validate=`` (see
:func:`repro.synth.flow.synthesize_process`), mirroring the IR-level
``PassManager`` contract: an inequivalent rewrite raises
:class:`NetlistEquivalenceError` carrying a concrete input valuation
and the first output bus that disagrees.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from .gates import KINDS, GateKind
from .netlist import Net, Netlist

#: Total primary-input bits below which the check enumerates every
#: assignment ("exhaustive" mode; 2**16 vectors = 1024 gate passes at
#: 64 lanes).
EXHAUSTIVE_PI_BITS = 16

#: Random vectors per combinational sampled check.
SAMPLED_VECTORS = 512

#: Episodes x cycles for the bounded sequential check.
SEQUENTIAL_EPISODES = 4
SEQUENTIAL_CYCLES = 16


@dataclass
class NetlistCounterexample:
    """A concrete stimulus on which two netlists disagree."""

    inputs: Dict[str, int]
    output: Optional[str] = None
    got_a: Optional[int] = None
    got_b: Optional[int] = None
    cycle: int = 0
    note: Optional[str] = None

    def describe(self) -> str:
        if self.note and self.output is None:
            return self.note
        pins = ", ".join(f"{n}={v}" for n, v in sorted(self.inputs.items()))
        where = f" at cycle {self.cycle}" if self.cycle else ""
        return (f"output {self.output!r} disagrees{where}: "
                f"{self.got_a} != {self.got_b} under [{pins}]")


@dataclass
class NetlistEquivReport:
    """Outcome of :func:`check_netlists`."""

    equivalent: bool
    counterexample: Optional[NetlistCounterexample] = None
    exhaustive: bool = False
    vectors: int = 0
    sequential: bool = False
    outputs: List[str] = field(default_factory=list)


class NetlistEquivalenceError(ReproError):
    """A netlist rewrite changed observable behaviour."""

    def __init__(self, stage: str,
                 counterexample: Optional[NetlistCounterexample]):
        self.stage = stage
        self.counterexample = counterexample
        detail = counterexample.describe() if counterexample else "unknown"
        super().__init__(
            f"netlist stage {stage!r} is not equivalence-preserving: "
            f"{detail}"
        )


def _mapped(net_map: Dict[Net, Net], dst: Netlist, net: Net) -> Net:
    """*net*'s image in *dst*, allocated the first time it is seen."""
    image = net_map.get(net)
    if image is None:
        image = net_map[net] = dst.new_net()
    return image


def _instantiate(dst: Netlist, src: Netlist,
                 pi_map: Dict[Net, Net]) -> Dict[Net, Net]:
    """Copy *src*'s gates into *dst*, sharing the mapped PI nets."""
    net_map = dict(pi_map)
    for output in src.gate_outputs:
        if output not in net_map:
            net_map[output] = dst.new_net()
    for code, inputs, output, init in zip(src.gate_kinds, src.gate_inputs,
                                          src.gate_outputs, src.gate_inits):
        inputs = [_mapped(net_map, dst, i) for i in inputs]
        dst.add(KINDS[code], inputs, net_map[output], init=init)
    return net_map


def _or_tree(nl: Netlist, nets: Sequence[Net]) -> Net:
    nets = list(nets)
    if not nets:
        return nl.const(0)
    while len(nets) > 1:
        paired = []
        for i in range(0, len(nets) - 1, 2):
            paired.append(nl.add(GateKind.OR2, [nets[i], nets[i + 1]]))
        if len(nets) % 2:
            paired.append(nets[-1])
        nets = paired
    return nets[0]


def build_miter(a: Netlist, b: Netlist) -> Tuple[Netlist, Optional[str]]:
    """A miter netlist over *a* and *b*, or an interface mismatch.

    Returns ``(miter, None)`` on success: the miter shares one primary
    input bus per common input name, exposes ``diff__<name>`` (1 = that
    output bus disagrees) per output and ``diff`` as the OR over all of
    them.  Returns ``(None, reason)`` when the interfaces cannot be
    mitered (different input/output names or widths).
    """
    if sorted(a.inputs) != sorted(b.inputs):
        return None, (f"input sets differ: {sorted(a.inputs)} vs "
                      f"{sorted(b.inputs)}")
    if sorted(a.outputs) != sorted(b.outputs):
        return None, (f"output sets differ: {sorted(a.outputs)} vs "
                      f"{sorted(b.outputs)}")
    for name in a.inputs:
        if len(a.inputs[name]) != len(b.inputs[name]):
            return None, (f"input {name!r} widths differ: "
                          f"{len(a.inputs[name])} vs {len(b.inputs[name])}")
    for name in a.outputs:
        if len(a.outputs[name]) != len(b.outputs[name]):
            return None, (f"output {name!r} widths differ: "
                          f"{len(a.outputs[name])} vs {len(b.outputs[name])}")

    miter = Netlist(f"miter({a.name},{b.name})")
    pi_map_a: Dict[Net, Net] = {}
    pi_map_b: Dict[Net, Net] = {}
    for name in sorted(a.inputs):
        bus = miter.add_input(name, len(a.inputs[name]))
        for src_net, dst_net in zip(a.inputs[name], bus):
            pi_map_a[src_net] = dst_net
        for src_net, dst_net in zip(b.inputs[name], bus):
            pi_map_b[src_net] = dst_net
    map_a = _instantiate(miter, a, pi_map_a)
    map_b = _instantiate(miter, b, pi_map_b)

    diffs: List[Net] = []
    for name in sorted(a.outputs):
        bits = []
        for net_a, net_b in zip(a.outputs[name], b.outputs[name]):
            bits.append(miter.add(
                GateKind.XOR2,
                [_mapped(map_a, miter, net_a),
                 _mapped(map_b, miter, net_b)]))
        per_output = _or_tree(miter, bits)
        miter.set_output(f"diff__{name}", [per_output])
        diffs.append(per_output)
    miter.set_output("diff", [_or_tree(miter, diffs)])
    return miter, None


def _first_divergent_output(sim, lane: int) -> Optional[str]:
    for name in sorted(sim.netlist.outputs):
        if not name.startswith("diff__"):
            continue
        if sim.output(name, signed=False, lane=lane):
            return name[len("diff__"):]
    return None


def check_netlists(a: Netlist, b: Netlist, mode: str = "sampled",
                   seed: int = 0, lanes: int = 64,
                   vectors: Optional[int] = None) -> NetlistEquivReport:
    """Check two netlists for bit-level equivalence via a miter.

    ``mode="exhaustive"`` enumerates every primary-input assignment when
    the combined input width allows (:data:`EXHAUSTIVE_PI_BITS`),
    falling back to sampling otherwise; ``mode="sampled"`` drives
    ``vectors`` seeded random assignments (:data:`SAMPLED_VECTORS` by
    default).  Netlists with DFFs get the bounded sequential check:
    random episodes replayed cycle by cycle from the registers' initial
    values, every cycle's outputs compared.  ``lanes`` stimulus vectors
    are packed per gate pass.
    """
    from .gatesim import GateSimulator

    miter, reason = build_miter(a, b)
    if miter is None:
        return NetlistEquivReport(
            equivalent=False,
            counterexample=NetlistCounterexample(inputs={}, note=reason))

    rng = random.Random(seed)
    in_widths = {name: len(bus) for name, bus in miter.inputs.items()}
    names = sorted(in_widths)
    sequential = bool(a.indices(GateKind.DFF) or b.indices(GateKind.DFF))
    sim = GateSimulator(miter, lanes=lanes)

    def run_chunk(chunk: List[Dict[str, int]], cycle: int = 0
                  ) -> Optional[NetlistCounterexample]:
        """Evaluate up to *lanes* assignments in one gate pass."""
        padded = chunk + [chunk[-1]] * (lanes - len(chunk))
        pins = {name: [v[name] for v in padded] for name in names}
        sim.step(pins)
        diff = sim.output_lanes("diff", signed=False)
        for lane in range(len(chunk)):
            if diff[lane]:
                return NetlistCounterexample(
                    inputs=chunk[lane],
                    output=_first_divergent_output(sim, lane),
                    cycle=cycle)
        return None

    tried = 0

    if not sequential:
        total_bits = sum(in_widths.values())
        if mode == "exhaustive" and total_bits <= EXHAUSTIVE_PI_BITS:
            space = [range(1 << in_widths[name]) for name in names]
            chunk: List[Dict[str, int]] = []
            for assignment in itertools.product(*space):
                chunk.append(dict(zip(names, assignment)))
                if len(chunk) == lanes:
                    cex = run_chunk(chunk)
                    tried += len(chunk)
                    if cex is not None:
                        return _resolved(a, b, cex, NetlistEquivReport(
                            False, cex, exhaustive=True, vectors=tried))
                    chunk = []
            if chunk:
                cex = run_chunk(chunk)
                tried += len(chunk)
                if cex is not None:
                    return _resolved(a, b, cex, NetlistEquivReport(
                        False, cex, exhaustive=True, vectors=tried))
            return NetlistEquivReport(True, exhaustive=True, vectors=tried)

        count = vectors if vectors is not None else SAMPLED_VECTORS
        if mode == "exhaustive":
            count *= 4  # wide cone: buy confidence with more vectors
        remaining = count
        while remaining > 0:
            chunk = [_random_assignment(rng, names, in_widths)
                     for _ in range(min(lanes, remaining))]
            cex = run_chunk(chunk)
            tried += len(chunk)
            remaining -= len(chunk)
            if cex is not None:
                return _resolved(a, b, cex, NetlistEquivReport(
                    False, cex, vectors=tried))
        return NetlistEquivReport(True, vectors=tried)

    # Bounded sequential check: per-lane random episodes from reset.
    episodes = SEQUENTIAL_EPISODES * (2 if mode == "exhaustive" else 1)
    cycles = SEQUENTIAL_CYCLES * (2 if mode == "exhaustive" else 1)
    for _episode in range(episodes):
        sim = GateSimulator(miter, lanes=lanes)
        for cycle in range(cycles):
            chunk = [_random_assignment(rng, names, in_widths)
                     for _ in range(lanes)]
            cex = run_chunk(chunk, cycle)
            tried += len(chunk)
            if cex is not None:
                return _resolved(a, b, cex, NetlistEquivReport(
                    False, cex, vectors=tried, sequential=True))
    return NetlistEquivReport(True, vectors=tried, sequential=True)


def _random_assignment(rng: random.Random, names: Sequence[str],
                       widths: Dict[str, int]) -> Dict[str, int]:
    return {name: rng.getrandbits(widths[name]) if widths[name] else 0
            for name in names}


def _resolved(a: Netlist, b: Netlist, cex: NetlistCounterexample,
              report: NetlistEquivReport) -> NetlistEquivReport:
    """Fill in the two sides' concrete output values for *cex*.

    The miter only says *that* an output bus differs; replaying the
    original netlists on the counterexample stimulus recovers the two
    raw values for the report (sequential counterexamples replay the
    stimulus history only one cycle deep — the divergent cycle's pins —
    so got_a/got_b are best-effort there).
    """
    from .gatesim import GateSimulator

    if cex.output is None:
        return report
    for attr, nl in (("got_a", a), ("got_b", b)):
        sim = GateSimulator(nl)
        sim.step(dict(cex.inputs))
        setattr(cex, attr, sim.output(cex.output, signed=False))
    return report
