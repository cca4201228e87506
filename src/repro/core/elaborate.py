"""Elaboration: what a system means under a clock, stated once.

The cycle scheduler, the compiled step, the event engine and the VHDL
top level each build an :class:`Elaboration` of their :class:`System`
and read its channel semantics from it (DESIGN.md §23).  Building one
checks the rules of a clocked system, raising a :class:`ModelError`
that names the process and the port: every input port is connected,
every port of a timed process binds a signal, and every port of an
untimed process has rate 1 (it fires once per cycle).

A timed consumer reads a channel's token in its own format.  Where the
producer is timed and of the same format, or the consumer has none,
the consumer's signal is an alias of the producer's.  Otherwise the
value is converted into the consumer's format where it enters (a pin,
an untimed output, a timed producer's assignment), or, for an
``Overflow.ERROR`` format, whose conversion can raise, where a marked
assignment reads the port.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Tuple

from ..fixpt import FxFormat, Overflow
from .errors import ModelError
from .memory import Ram, memories
from .sfg import Assignment
from .signal import Register, Sig
from .system import Channel, System


def register_inventory(processes: Iterable) -> Dict[Register, str]:
    """Every register of the timed *processes* by its hierarchical name,
    in the order every checkpoint and toggle count follows; a register
    shared between processes is named after the first to reach it."""
    inventory: Dict[Register, str] = {}
    for process in processes:
        for sfg in process.all_sfgs():
            for reg in sfg.registers():
                inventory.setdefault(reg, f"{process.name}/{reg.name}")
    return inventory


def is_boundary(chan: Channel) -> bool:
    """True when *chan*'s value comes from outside every timed process:
    a primary-input pin or an untimed process's output."""
    return chan.producer is None or chan.producer.sig is None


class Elaboration:
    """The checked channel facts of a system under a clock.

    :attr:`formats` maps every channel whose value a timed consumer
    converts to the distinct formats it is converted into; every
    boundary channel is listed, with none when no formatted timed
    process reads it.  :attr:`alias` maps each aliased consumer signal
    to its producer's.  :attr:`checked_reads` lists, per assignment, the
    ERROR conversions ``(channel, format)`` in its input cone.
    :attr:`registers` is computed on first use.
    """

    def __init__(self, system: System):
        for process in system.processes:
            timed = process.is_timed()
            for port in process.ports.values():
                where = (f"{'timed' if timed else 'untimed'} process "
                         f"{process.name!r} port {port.name!r}")
                if timed and port.sig is None:
                    raise ModelError(f"{where} binds no signal")
                if not timed and port.rate != 1:
                    raise ModelError(
                        f"{where} has rate {port.rate}; under a clock "
                        "untimed blocks are single-rate")
                if port.direction == "in" and port.channel is None:
                    raise ModelError(f"{where} is unconnected")
        self.system = system
        self.timed = system.timed_processes()
        self.untimed = system.untimed_processes()
        self.memories: List[Ram] = memories(self.untimed)
        self.pins = [chan for chan in system.channels if chan.producer is None]

        self.formats: Dict[Channel, List[FxFormat]] = {}
        self.alias: Dict[Sig, Sig] = {}
        for chan in system.channels:
            source = None if is_boundary(chan) else chan.producer.sig
            fmts: List[FxFormat] = []
            for port in chan.consumers:
                sig = port.sig
                if sig is None:
                    continue
                if source is not None and sig.fmt in (None, source.fmt):
                    self.alias[sig] = source
                elif sig.fmt is not None and sig.fmt not in fmts:
                    fmts.append(sig.fmt)
            if source is None or fmts:
                self.formats[chan] = fmts

        self.checked_reads: Dict[Assignment,
                                 List[Tuple[Channel, FxFormat]]] = {}
        for process in self.timed:
            in_ports = {port.sig: port for port in process.in_ports()}
            checked = sorted(
                (sig for sig in in_ports if self.converts(sig)
                 and sig.fmt.overflow is Overflow.ERROR),
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

    @cached_property
    def registers(self) -> Dict[Register, str]:
        """The register inventory (:func:`register_inventory`)."""
        return register_inventory(self.timed)

    def converts(self, sig: Sig) -> bool:
        """True when the timed consumer signal *sig* reads its channel's
        value converted into its own format."""
        return sig.fmt is not None and sig not in self.alias
