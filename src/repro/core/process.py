"""Processes: the concurrent components of a system (paper section 2).

Two flavours exist, exactly as in the paper:

* :class:`UntimedProcess` — a high-level description: an iterative behaviour
  with a *firing rule*; inputs are read at the start of an iteration and
  outputs produced at the end (data-flow simulation semantics, after
  Lee/Messerschmitt SDF).
* :class:`TimedProcess` — a register-transfer-level description operating
  synchronously to the system clock; one iteration corresponds to one clock
  cycle.  Its behaviour is a Mealy FSM coupled to a datapath: the FSM picks
  a transition each cycle and the transition's SFGs execute.

Each process translates to one component in the final implementation.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .clock import Clock
from .errors import ModelError, SimulationError
from .fsm import FSM, Transition
from .sfg import SFG
from .signal import Register, Sig
from .srcloc import here


class Port:
    """A connection point of a process.

    For timed processes a port is bound to an SFG signal; for untimed
    processes it carries a token *rate* (tokens consumed/produced per
    firing, the SDF rate).
    """

    __slots__ = ("process", "name", "direction", "sig", "rate", "channel", "loc")

    def __init__(self, process: "Process", name: str, direction: str,
                 sig: Optional[Sig] = None, rate: int = 1):
        if direction not in ("in", "out"):
            raise ModelError(f"port direction must be 'in' or 'out', got {direction!r}")
        self.process = process
        self.name = name
        self.direction = direction
        self.sig = sig
        self.rate = rate
        self.channel = None  # bound by System.connect
        self.loc = here()

    def __repr__(self) -> str:
        return f"Port({self.process.name}.{self.name}, {self.direction})"


class Process:
    """Base class for system components."""

    def __init__(self, name: str):
        self.name = name
        self.ports: Dict[str, Port] = {}
        self.loc = here()

    def _add_port(self, port: Port) -> Port:
        if port.name in self.ports:
            raise ModelError(f"duplicate port {port.name!r} on process {self.name!r}")
        self.ports[port.name] = port
        return port

    def port(self, name: str) -> Port:
        """Look up a port by name."""
        try:
            return self.ports[name]
        except KeyError:
            raise ModelError(f"process {self.name!r} has no port {name!r}") from None

    def in_ports(self) -> List[Port]:
        """The process's input ports, in declaration order."""
        return [p for p in self.ports.values() if p.direction == "in"]

    def out_ports(self) -> List[Port]:
        """The process's output ports, in declaration order."""
        return [p for p in self.ports.values() if p.direction == "out"]

    def is_timed(self) -> bool:
        """True for clock-cycle-true components, False for untimed ones."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class UntimedProcess(Process):
    """A high-level (untimed) component with data-flow semantics.

    Subclass and override :meth:`behavior` (and optionally
    :meth:`firing_rule`), or use :func:`actor` to build one from a plain
    function.  ``behavior`` receives one keyword argument per input port —
    a single token for rate-1 ports, a list of tokens otherwise — and
    returns a mapping from output port names to a token (or list of tokens
    for rates > 1).
    """

    def __init__(self, name: str):
        super().__init__(name)
        #: The process's counts, ``firings`` then a RAM's ``writes``:
        #: every engine, the native compiled step included, increments
        #: these words in place.
        self._counts = array("q", (0, 0))

    @property
    def firings(self) -> int:
        """Firings so far."""
        return self._counts[0]

    @firings.setter
    def firings(self, value: int) -> None:
        self._counts[0] = value

    def add_input(self, name: str, rate: int = 1) -> Port:
        """Declare an input port consuming *rate* tokens per firing."""
        if rate < 1:
            raise ModelError(f"port rate must be >= 1, got {rate}")
        return self._add_port(Port(self, name, "in", rate=rate))

    def add_output(self, name: str, rate: int = 1) -> Port:
        """Declare an output port producing *rate* tokens per firing."""
        if rate < 1:
            raise ModelError(f"port rate must be >= 1, got {rate}")
        return self._add_port(Port(self, name, "out", rate=rate))

    def firing_rule(self) -> bool:
        """True when this process may fire.

        Default SDF rule: every input channel holds at least ``rate``
        tokens.  Override for data-dependent firing.
        """
        for port in self.in_ports():
            if port.channel is None or port.channel.tokens() < port.rate:
                return False
        return True

    def behavior(self, **inputs):
        """Compute one iteration; must be overridden."""
        raise NotImplementedError(
            f"untimed process {self.name!r} does not implement behavior()"
        )

    def fire(self) -> None:
        """Consume input tokens, run the behaviour, produce output tokens."""
        kwargs = {}
        for port in self.in_ports():
            tokens = [port.channel.get() for _ in range(port.rate)]
            kwargs[port.name] = tokens[0] if port.rate == 1 else tokens
        results = self.behavior(**kwargs) or {}
        for port in self.out_ports():
            if port.name not in results:
                raise SimulationError(
                    f"process {self.name!r} produced no token for output "
                    f"{port.name!r}"
                )
            value = results[port.name]
            tokens = [value] if port.rate == 1 else list(value)
            if len(tokens) != port.rate:
                raise SimulationError(
                    f"process {self.name!r} produced {len(tokens)} tokens on "
                    f"{port.name!r}, expected {port.rate}"
                )
            for token in tokens:
                port.channel.put(token)
        self.firings += 1

    def is_timed(self) -> bool:
        """Untimed processes carry data-flow (firing-rule) semantics."""
        return False


class _FunctionActor(UntimedProcess):
    """An untimed process wrapping a plain Python function."""

    def __init__(self, name: str, func: Callable, inputs: Mapping[str, int],
                 outputs: Mapping[str, int],
                 firing_rule: Optional[Callable[[], bool]] = None):
        super().__init__(name)
        self._func = func
        self._firing_rule = firing_rule
        for port_name, rate in inputs.items():
            self.add_input(port_name, rate)
        for port_name, rate in outputs.items():
            self.add_output(port_name, rate)

    def behavior(self, **inputs):
        return self._func(**inputs)

    def firing_rule(self) -> bool:
        base = super().firing_rule()
        if self._firing_rule is None:
            return base
        return base and self._firing_rule()


def actor(name: str, func: Callable, inputs: Mapping[str, int],
          outputs: Mapping[str, int],
          firing_rule: Optional[Callable[[], bool]] = None) -> UntimedProcess:
    """Build an untimed process from a plain function.

    ``func`` takes one keyword argument per input port and returns a dict
    of output tokens, e.g. ``actor("add", lambda a, b: {"y": a + b},
    inputs={"a": 1, "b": 1}, outputs={"y": 1})``.
    """
    return _FunctionActor(name, func, inputs, outputs, firing_rule)


class TimedProcess(Process):
    """A clock-cycle-true component: a Mealy FSM coupled to a datapath.

    A process may be *controlled* (``fsm`` given: the FSM selects which
    SFGs execute each cycle) or a *pure datapath* (``sfgs`` given: the same
    SFGs execute every cycle).
    """

    def __init__(self, name: str, clk: Clock, fsm: Optional[FSM] = None,
                 sfgs: Sequence[SFG] = ()):
        super().__init__(name)
        self.clk = clk
        self.fsm = fsm
        self.static_sfgs: Tuple[SFG, ...] = tuple(sfgs)
        if fsm is None and not self.static_sfgs:
            raise ModelError(
                f"timed process {name!r} needs an FSM or at least one SFG"
            )

    def add_input(self, name: str, sig: Sig) -> Port:
        """Bind an input port to an SFG input signal."""
        if sig is not None and sig.is_register():
            raise ModelError(
                f"input port {name!r} of {self.name!r} cannot bind a register"
            )
        return self._add_port(Port(self, name, "in", sig=sig))

    def add_output(self, name: str, sig: Sig) -> Port:
        """Bind an output port to an SFG output signal (or a register)."""
        return self._add_port(Port(self, name, "out", sig=sig))

    def all_sfgs(self) -> List[SFG]:
        """Every SFG this component may execute."""
        if self.fsm is not None:
            result = self.fsm.sfgs()
            for sfg in self.static_sfgs:
                if sfg not in result:
                    result.append(sfg)
            return result
        return list(self.static_sfgs)

    def select_sfgs(self) -> List[SFG]:
        """Phase 0: the SFGs marked for execution this cycle."""
        return self.marked_sfgs(
            self.fsm.select() if self.fsm is not None else None)

    def marked_sfgs(self, transition: Optional[Transition]) -> List[SFG]:
        """The SFGs marked when the FSM takes *transition* (None: no FSM)."""
        marked: List[SFG] = []
        if transition is not None:
            marked.extend(transition.sfgs)
        for sfg in self.static_sfgs:
            if sfg not in marked:
                marked.append(sfg)
        return marked

    def commit(self) -> None:
        """Phase 3 helper: commit the FSM state change."""
        if self.fsm is not None:
            self.fsm.commit()

    def reset(self) -> None:
        """Reset the FSM to its initial state (registers reset via clock)."""
        if self.fsm is not None:
            self.fsm.reset()

    def is_timed(self) -> bool:
        """Timed processes operate synchronously to the system clock."""
        return True
