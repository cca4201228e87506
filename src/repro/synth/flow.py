"""The divide-and-conquer synthesis flow (paper Figure 8).

For each timed component:

* **controller synthesis** — the FSM becomes a state register plus
  transition-select lines (:mod:`repro.synth.controller`), after the guard
  conditions are synthesized from the datapath registers;
* **datapath synthesis** — the SFG instruction set is expanded to shared
  word-level operators and gates (:mod:`repro.synth.datapath`);
* **linkage** — select lines steer operand multiplexers, register
  write-priority muxes and output-port gating;
* **post-optimization** — constant propagation, structural hashing and a
  dead-gate sweep (:mod:`repro.synth.optimize`).

:func:`synthesize_system` bit-blasts every component but optimizes each
structurally distinct one once per call: a component whose unoptimized
netlist repeats an earlier one gate for gate (names aside) gets a copy
of that optimized netlist under its own name and net names.

The result simulates in :class:`~repro.synth.gatesim.GateSimulator` and
can be verified cycle-by-cycle against a :class:`~repro.sim.PortLog`
captured from the system simulation — the paper's generated-testbench
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..fixpt import Fx, FxFormat, quantize_raw
from ..core.errors import SynthesisError
from ..core.fsm import Transition
from ..core.process import TimedProcess, UntimedProcess
from ..core.sfg import SFG
from ..core.signal import Register, Sig
from ..core.system import System
from ..ir.formats import vector_width
from ..sim.stimuli import PortLog
from . import bitops
from .bitops import Word
from .controller import ControllerResult, synthesize_controller
from .datapath import ExprSynthesizer, OperatorAllocator
from .gates import GateKind
from .gatesim import GateSimulator
from .netlist import Net, Netlist
from .optimize import optimize_netlist


@dataclass
class ComponentSynthesis:
    """Synthesis outcome for one timed component."""

    process: TimedProcess
    netlist: Netlist
    controller: Optional[ControllerResult]
    sharing: Dict[str, int]

    @property
    def gate_count(self) -> int:
        return self.netlist.gate_count()

    @property
    def area(self) -> float:
        return self.netlist.area()


def synthesize_process(process: TimedProcess, share: bool = True,
                       encoding: str = "binary", two_level: bool = False,
                       optimize: bool = True,
                       expose_registers: bool = False,
                       ir_passes: bool = True, passes=None,
                       validate: str = "off") -> ComponentSynthesis:
    """Synthesize one timed component to a gate-level netlist.

    ``ir_passes`` runs the IR optimization pipeline over every lowered
    instruction before expansion to gates; disable it for the ablation
    baseline.  ``passes`` picks the pipeline (``"default"``,
    ``"aggressive"`` or an explicit sequence) and ``validate`` turns on
    translation validation of every IR pass application *and* a
    netlist-level miter check of the post-synthesis optimizer
    (:func:`repro.synth.equiv.check_netlists`).
    """
    synthesis = _bit_blast(process, share, encoding, two_level,
                           expose_registers, ir_passes, passes, validate)
    if optimize:
        synthesis.netlist = optimize_netlist(synthesis.netlist,
                                             validate=validate)
    return synthesis


def _bit_blast(process: TimedProcess, share: bool, encoding: str,
               two_level: bool, expose_registers: bool, ir_passes: bool,
               passes, validate: str) -> ComponentSynthesis:
    """:func:`synthesize_process` up to, not including, optimization."""
    nl = Netlist(process.name)
    all_sfgs = process.all_sfgs()

    # Registers: pre-allocate Q buses so everything can read them.
    registers: List[Register] = []
    seen: Set[int] = set()
    for sfg in all_sfgs:
        for reg in sfg.registers():
            if id(reg) not in seen:
                seen.add(id(reg))
                registers.append(reg)
    reg_q: Dict[int, Word] = {}
    for reg in registers:
        fmt = _fmt_of(reg)
        bus = nl.new_bus(vector_width(fmt), reg.name)
        reg_q[id(reg)] = Word(bus, fmt.frac_bits)

    # Primary inputs.
    input_word: Dict[int, Word] = {}
    for port in process.in_ports():
        fmt = _fmt_of(port.sig)
        bus = nl.add_input(port.name, vector_width(fmt))
        input_word[id(port.sig)] = Word(bus, fmt.frac_bits)

    alloc = OperatorAllocator(nl, share=share)

    # Leaf resolution with a per-slot intermediate namespace.
    internal: Dict[int, Word] = {}

    def leaf_word(sig: Sig) -> Word:
        if id(sig) in internal:
            return internal[id(sig)]
        if isinstance(sig, Register):
            try:
                return reg_q[id(sig)]
            except KeyError:
                raise SynthesisError(
                    f"register {sig.name!r} is read but belongs to no SFG "
                    f"of component {process.name!r}"
                ) from None
        if id(sig) in input_word:
            return input_word[id(sig)]
        raise SynthesisError(
            f"signal {sig.name!r} in component {process.name!r} is neither "
            "an intermediate, a register, nor an input port"
        )

    synthesizer = ExprSynthesizer(nl, alloc, leaf_word, optimize=ir_passes,
                                  passes=passes, validate=validate)

    # Guard conditions (always active: dedicated operators).
    controller = None
    ordinal = 0
    if process.fsm is not None:
        alloc.begin_slot(None)
        condition_nets: Dict[Transition, Optional[Net]] = {}
        cache: Dict[int, Net] = {}
        for transition in process.fsm.transitions:
            expr = transition.condition.expr
            if expr is None:
                condition_nets[transition] = None
                continue
            net = cache.get(id(expr))
            if net is None:
                block = synthesizer.guard_block(expr)
                words = synthesizer.synth_block(block)
                word = words[block.roots[0]]
                net = bitops.or_tree(nl, word.nets) if word.width > 1 \
                    else word.nets[0]
                cache[id(expr)] = net
            condition_nets[transition] = net
        controller = synthesize_controller(
            nl, process.fsm, condition_nets, encoding=encoding,
            two_level=two_level,
        )

    # Datapath: walk each transition (a time slot), then the static SFGs.
    # Register-write candidates, in execution order (later = higher
    # priority, matching the simulator's last-write-wins semantics).
    reg_candidates: Dict[int, List[Tuple[int, Net, Word]]] = {}
    out_candidates: Dict[int, List[Tuple[int, Net, Word]]] = {}
    port_sig_ids = {id(p.sig): p for p in process.out_ports()}

    def run_sfg(sfg: SFG, select: Net) -> None:
        nonlocal ordinal
        block = synthesizer.sfg_block(sfg)
        words = synthesizer.synth_block(block)
        for store in block.stores:
            target = store.target
            # The lowered store value already went through the target-
            # format quantize, so it is the committed word.
            quantized = words[store.value]
            ordinal += 1
            if isinstance(target, Register):
                reg_candidates.setdefault(id(target), []).append(
                    (ordinal, select, quantized)
                )
            else:
                internal[id(target)] = quantized
                if id(target) in port_sig_ids:
                    out_candidates.setdefault(id(target), []).append(
                        (ordinal, select, quantized)
                    )

    if process.fsm is not None:
        # Sizing pre-scan: register every instruction's operator demands
        # so shared instances are created wide enough for all of them.
        # Demands come from the same lowered blocks synthesis will
        # expand, so the noted shapes are exact.
        for transition in process.fsm.transitions:
            for sfg in transition.sfgs:
                synthesizer.prescan_block(synthesizer.sfg_block(sfg))
        for transition in process.fsm.transitions:
            select = controller.select[transition]
            alloc.begin_slot(select)
            internal.clear()
            for sfg in transition.sfgs:
                run_sfg(sfg, select)
    # Static SFGs execute every cycle, after the transition's SFGs.
    alloc.begin_slot(None)
    internal.clear()
    const1 = nl.const(1)
    for sfg in process.static_sfgs:
        run_sfg(sfg, const1)

    alloc.finalize()

    # Register D: priority mux chain, hold (Q) as the base case.
    for reg in registers:
        fmt = _fmt_of(reg)
        q = reg_q[id(reg)]
        candidates = sorted(reg_candidates.get(id(reg), []))
        d = q
        for _ordinal, select, word in candidates:
            d = bitops.mux_word(nl, select, word, d)
            d = Word(d.nets[:q.width], q.frac)
        init = reg.init.raw if isinstance(reg.init, Fx) else int(reg.init)
        for i, q_net in enumerate(q.nets):
            nl.add(GateKind.DFF, [d.nets[i]], output=q_net,
                   init=(init >> i) & 1)

    # Primary outputs: priority mux chain over the driving instructions,
    # constant 0 when no driver is active (matching the RTL default).
    for port in process.out_ports():
        fmt = _fmt_of(port.sig)
        width = vector_width(fmt)
        if isinstance(port.sig, Register):
            nl.set_output(port.name, reg_q[id(port.sig)].nets[:width])
            continue
        candidates = sorted(out_candidates.get(id(port.sig), []))
        value = bitops.const_word(nl, 0, width, fmt.frac_bits)
        for _ordinal, select, word in candidates:
            value = bitops.mux_word(nl, select, word, value)
            value = Word(value.nets[:width], fmt.frac_bits)
        nl.set_output(port.name, value.nets)

    if expose_registers:
        for reg in registers:
            nl.set_output(f"reg__{reg.name}", reg_q[id(reg)].nets)

    return ComponentSynthesis(
        process=process,
        netlist=nl,
        controller=controller,
        sharing=alloc.sharing_report(),
    )


def _fmt_of(sig: Sig) -> FxFormat:
    if sig.fmt is None:
        raise SynthesisError(
            f"signal {sig.name!r} has no fixed-point format; synthesis "
            "needs bit-true wordlengths"
        )
    return sig.fmt


@dataclass
class SystemSynthesis:
    """Synthesis outcome for a whole system."""

    system: System
    components: List[ComponentSynthesis]
    ram_macros: List[UntimedProcess]

    @property
    def total_gates(self) -> int:
        return sum(c.gate_count for c in self.components)

    @property
    def total_area(self) -> float:
        return sum(c.area for c in self.components)


def synthesize_system(system: System, share: bool = True,
                      encoding: str = "binary",
                      optimize: bool = True,
                      ir_passes: bool = True, passes=None,
                      validate: str = "off") -> SystemSynthesis:
    """Synthesize every timed component of *system* (Fig. 8 flow).

    Each component's netlist is what :func:`synthesize_process` gives for
    it alone.  A component whose unoptimized netlist repeats an earlier
    one's (:func:`_repeat_names`) is not optimized again: it gets a copy
    of the earlier optimized netlist.
    """
    components = []
    #: Each distinct unoptimized netlist so far, with its optimized one.
    distinct: List[Tuple[Netlist, Netlist]] = []
    for process in system.timed_processes():
        synthesis = _bit_blast(process, share, encoding,
                               two_level=False, expose_registers=False,
                               ir_passes=ir_passes, passes=passes,
                               validate=validate)
        if optimize:
            synthesis.netlist = _optimize_once(synthesis.netlist, distinct,
                                               validate)
        components.append(synthesis)
    return SystemSynthesis(
        system=system,
        components=components,
        ram_macros=list(system.untimed_processes()),
    )


def _optimize_once(raw: Netlist, distinct: List[Tuple[Netlist, Netlist]],
                   validate: str) -> Netlist:
    """``optimize_netlist(raw)``, copied from an earlier repeat if any;
    a new distinct netlist joins *distinct*."""
    for earlier_raw, earlier in distinct:
        phi = _repeat_names(earlier_raw, raw)
        if phi is not None:
            return _renamed_copy(earlier, raw.name, phi)
    result = optimize_netlist(raw, validate=validate)
    distinct.append((raw, result))
    return result


def _repeat_names(earlier: Netlist, raw: Netlist) -> Optional[Dict[str, str]]:
    """How *raw* renames *earlier*'s nets, if it repeats it structurally.

    A repeat has as many nets as *earlier*, the same gates in the same
    order (kind, nets and DFF init) and the same ports, and names the
    same nets, with names that map consistently: every net *earlier*
    calls ``a``, *raw* calls ``phi[a]``.  The optimizer reads nothing else
    of a netlist but its name, and carries only its net names through, so
    *raw* optimizes to *earlier*'s result with each name ``a`` read as
    ``phi[a]``.  Returns ``phi``, or None when *raw* is no repeat.  The
    counts and ports are compared first, so a netlist of another shape
    costs a few comparisons.
    """
    if (earlier._net_count != raw._net_count
            or len(earlier.gates) != len(raw.gates)
            or list(earlier.inputs.items()) != list(raw.inputs.items())
            or list(earlier.outputs.items()) != list(raw.outputs.items())
            or len(earlier.net_names) != len(raw.net_names)):
        return None
    for a, b in zip(earlier.gates, raw.gates):
        if (a.kind is not b.kind or a.inputs != b.inputs
                or a.output != b.output or a.init != b.init):
            return None
    phi: Dict[str, str] = {}
    raw_names = raw.net_names
    for net, name in earlier.net_names.items():
        renamed = raw_names.get(net)
        if renamed is None or phi.setdefault(name, renamed) != renamed:
            return None
    return phi


def _renamed_copy(netlist: Netlist, name: str,
                  phi: Dict[str, str]) -> Netlist:
    """A new netlist equal to *netlist* but for its name and net names
    (each name ``a`` becomes ``phi[a]``)."""
    renamed = Netlist(name)
    for gate in netlist.gates:
        renamed.add(gate.kind, gate.inputs, output=gate.output,
                    init=gate.init)
    renamed._net_count = netlist._net_count
    renamed.net_names = {net: phi[label]
                         for net, label in netlist.net_names.items()}
    renamed.inputs = {port: list(bus)
                      for port, bus in netlist.inputs.items()}
    renamed.outputs = {port: list(bus)
                       for port, bus in netlist.outputs.items()}
    renamed._const0, renamed._const1 = netlist._const0, netlist._const1
    return renamed


def verify_component(log: PortLog, synthesis: ComponentSynthesis,
                     signed_outputs: bool = True) -> List[str]:
    """Replay a captured port log against the synthesized netlist.

    This is the generated-testbench verification of Fig. 8: the inputs
    recorded during system simulation drive the netlist; every recorded
    output token is compared.  Returns a list of mismatch descriptions
    (empty = verified).
    """
    process = log.process
    sim = GateSimulator(synthesis.netlist)
    mismatches: List[str] = []
    out_fmts = {p.name: _fmt_of(p.sig) for p in process.out_ports()}

    for cycle in range(log.cycles):
        pins: Dict[str, int] = {}
        for port in process.in_ports():
            token = log.inputs[port.name][cycle]
            if token is not None:
                pins[port.name] = _to_raw(token, _fmt_of(port.sig))

        captured: Dict[str, int] = {}

        def sample(gsim, captured=captured):
            for name in out_fmts:
                captured[name] = gsim.output(name)

        sim.monitors = [sample]
        sim.step(pins)
        for name, fmt in out_fmts.items():
            expected_token = log.outputs[name][cycle]
            if expected_token is None:
                continue
            expected = _to_raw(expected_token, fmt)
            actual = captured[name]
            if actual != expected:
                mismatches.append(
                    f"{process.name}.{name} cycle {cycle}: netlist gives "
                    f"{actual}, simulation recorded {expected}"
                )
    return mismatches


def _to_raw(token, fmt: FxFormat) -> int:
    if isinstance(token, Fx):
        return token.raw
    return quantize_raw(token, fmt)
