"""Simulation engines for the design environment.

Four engines reproduce the paper's simulation story:

* :class:`DataflowScheduler` — dynamic data-flow execution of untimed
  systems (section 2).
* :class:`CycleScheduler` — the three-phase cycle scheduler for systems
  with timed descriptions (section 4, Fig. 6).
* :class:`CompiledSimulator` — application-specific generated code,
  compiled for fast extensive verification (section 5, Fig. 7).
* :class:`EventSimulator` — an event-driven, delta-cycle engine with HDL
  simulator semantics, serving as the "VHDL (RT)" baseline of Table 1.
"""

from .compiled import CompiledSimulator, SystemLayout
from .cycle import CycleScheduler
from .dataflow import DataflowScheduler, is_consistent, repetitions_vector
from .event import EventSimulator
from .stimuli import PortLog, Recorder
from .tracing import Tracer

__all__ = [
    "CompiledSimulator",
    "SystemLayout",
    "CycleScheduler",
    "EventSimulator",
    "DataflowScheduler",
    "PortLog",
    "Recorder",
    "Tracer",
    "is_consistent",
    "repetitions_vector",
]
