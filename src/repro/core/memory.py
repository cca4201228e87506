"""Memories: RAM and ROM cells as primitives of the system model.

Paper, section 4: *"the RAM cells are described at high level while the
datapaths are described at clock cycle true level"*.  A :class:`Ram` and
a :class:`Rom` are untimed processes, so they sit in the cycle
scheduler's evaluation phase like any behaviour, but the engines know
what they are:

* :meth:`Ram.behavior` and :meth:`Rom.behavior` are the one reference
  semantics.  The cycle scheduler calls them; the event engine reads
  and writes as they do; the compiled step emits the same accesses
  inline over its raw values, indexing :attr:`Ram.data` in place and
  reading a ROM's words from a table (DESIGN.md §22), unless a subclass
  overrides ``behavior``.
* A RAM's contents are simulation state: engine checkpoints record
  them with :func:`save_memories` and write them back in place with
  :func:`restore_memories`.  A ROM's words are fixed at construction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import ModelError, SimulationError
from .process import UntimedProcess


class Ram(UntimedProcess):
    """A single-write, one- or two-read RAM with a synchronous write.

    Reads are combinational: the data token is produced within the same
    cycle, as in the paper's datapath/RAM loop (Fig. 6).  A write
    commits after the reads of its own firing, so it is seen by the
    next.  An address selects word ``int(addr) % depth``; a write needs
    ``we`` and, with ``write_gate``, ``wgate`` to be non-zero, and keeps
    the ``wdata`` token it is handed.
    """

    def __init__(self, name: str, depth: int, second_read_port: bool = False,
                 write_gate: bool = False):
        super().__init__(name)
        if depth < 1:
            raise ModelError(f"RAM {name!r} needs a depth of at least 1, "
                             f"got {depth}")
        self.depth = depth
        self._data: List = [0] * depth
        self.second_read_port = second_read_port
        self.write_gate = write_gate
        self.add_input("addr")
        self.add_output("q")
        if second_read_port:
            self.add_input("addr_b")
            self.add_output("q_b")
        self.add_input("we")
        if write_gate:
            self.add_input("wgate")
        self.add_input("waddr")
        self.add_input("wdata")

    @property
    def writes(self) -> int:
        """Committed writes so far."""
        return self._counts[1]

    @writes.setter
    def writes(self, value: int) -> None:
        self._counts[1] = value

    @property
    def data(self) -> List:
        """The stored tokens, one per word.

        Engines hold this list (the compiled step indexes it), so it is
        only ever changed in place: by writes, :meth:`load` and a
        checkpoint restore.
        """
        return self._data

    def behavior(self, addr, we, waddr, wdata, addr_b=None, wgate=1):
        data, depth = self._data, self.depth
        result = {"q": data[int(addr) % depth]}
        if self.second_read_port:
            result["q_b"] = data[int(addr_b) % depth]
        if int(we) and int(wgate):
            data[int(waddr) % depth] = wdata
            self.writes += 1
        return result

    def dump(self) -> List:
        """The current memory contents (testbench access)."""
        return list(self._data)

    def load(self, values) -> None:
        """Preload memory contents (testbench access)."""
        for index, value in enumerate(values):
            self._data[index % self.depth] = value


class Rom(UntimedProcess):
    """A read-only table of words fixed at construction.

    The read is combinational: input *address* selects word
    ``int(address)``, produced on output *data* within the same cycle,
    and an address outside the table reads 0.  The words are any tokens
    a consumer's format takes (ints, floats, ``Fx`` values), kept as a
    tuple.
    """

    def __init__(self, name: str, words: Sequence, address: str = "addr",
                 data: str = "q"):
        super().__init__(name)
        self._words = tuple(words)
        #: The names of the address input and the data output.
        self.address_port = address
        self.data_port = data
        self.add_input(address)
        self.add_output(data)

    @property
    def words(self) -> Tuple:
        """The table, one token per address."""
        return self._words

    def behavior(self, **inputs):
        address = int(inputs[self.address_port])
        words = self._words
        return {self.data_port:
                words[address] if 0 <= address < len(words) else 0}


def memories(processes: Sequence[UntimedProcess]) -> List[Ram]:
    """The RAMs among *processes*, in their order."""
    return [process for process in processes if isinstance(process, Ram)]


def save_memories(rams: Sequence[Ram]) -> List[List]:
    """A checkpoint of every memory's contents (copies)."""
    return [ram.dump() for ram in rams]


def restore_memories(rams: Sequence[Ram], contents: Sequence[List]) -> None:
    """Write checkpointed contents back into *rams*, in place.

    *rams* may belong to another instance of the design than the one
    saved; they must match in number and depth.
    """
    if len(contents) != len(rams):
        raise SimulationError(
            f"checkpoint has {len(contents)} memories, system has "
            f"{len(rams)}")
    for ram, saved in zip(rams, contents):
        if len(saved) != ram.depth:
            raise SimulationError(
                f"checkpoint holds {len(saved)} words for RAM "
                f"{ram.name!r} of depth {ram.depth}")
    for ram, saved in zip(rams, contents):
        ram.data[:] = saved
