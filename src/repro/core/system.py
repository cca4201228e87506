"""The system machine model: processes connected by an interconnect.

Paper, section 2: *"the DECT transceiver is best described with a set of
concurrent processes ... At the system level, processes execute using
data-flow simulation semantics."*  A :class:`System` holds processes and
:class:`Channel` objects connecting their ports.  A channel behaves as a
token FIFO under the data-flow scheduler and as a once-per-cycle valued
wire under the cycle scheduler (tokens are produced onto the interconnect
during phases 1–2 and cleared at the start of the next cycle).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set

from .clock import Clock
from .errors import ModelError, SimulationError
from .process import Port, Process, TimedProcess, UntimedProcess


class Channel:
    """A point of interconnect between one producer port and consumer ports."""

    def __init__(self, name: str, capacity: Optional[int] = None):
        self.name = name
        self.capacity = capacity
        self.producer: Optional[Port] = None
        self.consumers: List[Port] = []
        #: The token FIFO.  Under cycle semantics the channel is valid
        #: while it is non-empty and its value is the last token; the
        #: cycle scheduler reads it directly on its hot path.
        self.queue: Deque = deque()
        #: Total tokens ever produced (for throughput statistics).
        self.total_produced = 0

    # -- FIFO interface (data-flow semantics) --------------------------------------

    def put(self, token) -> None:
        """Produce one token."""
        if self.capacity is not None and len(self.queue) >= self.capacity:
            raise SimulationError(
                f"channel {self.name!r} overflow (capacity {self.capacity})"
            )
        self.queue.append(token)
        self.total_produced += 1

    def get(self):
        """Consume the oldest token."""
        if not self.queue:
            raise SimulationError(f"channel {self.name!r} underflow")
        return self.queue.popleft()

    def peek(self, index: int = 0):
        """Read a token without consuming it."""
        return self.queue[index]

    def tokens(self) -> int:
        """Number of tokens currently queued."""
        return len(self.queue)

    # -- wire interface (cycle semantics) --------------------------------------------

    @property
    def valid(self) -> bool:
        """True when a token was produced this cycle (cycle semantics)."""
        return bool(self.queue)

    @property
    def value(self):
        """The current cycle's token (cycle semantics)."""
        if not self.queue:
            raise SimulationError(f"channel {self.name!r} has no token this cycle")
        return self.queue[-1]

    def clear(self) -> None:
        """Drop all tokens (start of a new cycle under the cycle scheduler)."""
        self.queue.clear()

    def preload(self, tokens: Iterable) -> None:
        """Place initial tokens (data-flow delay / initial tokens)."""
        for token in tokens:
            self.put(token)
        self.total_produced -= len(self.queue)

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, tokens={len(self.queue)})"


class System:
    """A set of concurrent processes plus their interconnect."""

    def __init__(self, name: str):
        self.name = name
        self.processes: List[Process] = []
        self.channels: List[Channel] = []
        self._by_name: Dict[str, Process] = {}

    # -- construction ------------------------------------------------------------

    def add(self, process: Process) -> Process:
        """Add a process to the system."""
        if process.name in self._by_name:
            raise ModelError(f"duplicate process name {process.name!r}")
        self.processes.append(process)
        self._by_name[process.name] = process
        return process

    def __getitem__(self, name: str) -> Process:
        return self._by_name[name]

    def channel(self, name: str, capacity: Optional[int] = None) -> Channel:
        """Create an unconnected channel (e.g. a primary input)."""
        if any(c.name == name for c in self.channels):
            raise ModelError(f"duplicate channel name {name!r}")
        chan = Channel(name, capacity)
        self.channels.append(chan)
        return chan

    def connect(self, producer: Optional[Port], *consumers: Port,
                name: Optional[str] = None,
                capacity: Optional[int] = None) -> Channel:
        """Wire a producer port to consumer ports through a new channel.

        ``producer`` may be None for a primary input driven by a stimulus
        (tokens are then placed with :meth:`Channel.put` directly).
        """
        if name is None:
            if producer is not None:
                name = f"{producer.process.name}_{producer.name}"
            else:
                name = f"chan{len(self.channels)}"
        chan = self.channel(name, capacity)
        if producer is not None:
            self._bind(chan, producer, as_producer=True)
        for consumer in consumers:
            self._bind(chan, consumer, as_producer=False)
        return chan

    def _bind(self, chan: Channel, port: Port, as_producer: bool) -> None:
        if port.channel is not None:
            raise ModelError(
                f"port {port.process.name}.{port.name} is already connected"
            )
        if as_producer:
            if port.direction != "out":
                raise ModelError(f"{port!r} is not an output port")
            if chan.producer is not None:
                raise ModelError(f"channel {chan.name!r} already has a producer")
            chan.producer = port
        else:
            if port.direction != "in":
                raise ModelError(f"{port!r} is not an input port")
            chan.consumers.append(port)
        port.channel = chan

    def attach(self, chan: Channel, *consumers: Port) -> Channel:
        """Attach additional consumer ports to an existing channel."""
        for consumer in consumers:
            self._bind(chan, consumer, as_producer=False)
        return chan

    # -- queries -------------------------------------------------------------------

    def timed_processes(self) -> List[TimedProcess]:
        """The clock-cycle-true components, in addition order."""
        return [p for p in self.processes if isinstance(p, TimedProcess)]

    def untimed_processes(self) -> List[UntimedProcess]:
        """The high-level (data-flow) components, in addition order."""
        return [p for p in self.processes if isinstance(p, UntimedProcess)]

    def clocks(self) -> List[Clock]:
        """Every clock referenced by the system's timed processes."""
        seen: List[Clock] = []
        for process in self.timed_processes():
            if process.clk not in seen:
                seen.append(process.clk)
        return seen

    def is_pure_dataflow(self) -> bool:
        """True when the system contains only untimed blocks (section 2)."""
        return not self.timed_processes()

    def unconnected_ports(self) -> List[Port]:
        """Ports not wired to any channel (a wiring lint)."""
        return [
            port
            for process in self.processes
            for port in process.ports.values()
            if port.channel is None
        ]

    def __repr__(self) -> str:
        return (f"System({self.name!r}, {len(self.processes)} processes, "
                f"{len(self.channels)} channels)")
