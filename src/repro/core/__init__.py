"""Core modeling objects: signals, SFGs, FSMs, processes, systems.

This package is the paper's primary contribution — a programming (rather
than HDL) approach to ASIC modeling.  Hardware is described by *executing
Python*: operator overloading on :class:`Sig` builds signal-flow-graph data
structures (Fig. 3), a ``<<``-chained DSL builds Mealy FSMs (Fig. 4), and
processes assembled into a :class:`System` are simulated by the schedulers
in :mod:`repro.sim` and translated to HDL by :mod:`repro.hdl`.
"""

from .clock import Clock
from .errors import (
    CheckError,
    CodegenError,
    DeadlockError,
    FxOverflowError,
    ModelError,
    ReproError,
    SimulationError,
    SynthesisError,
    TransientError,
    WatchdogTimeout,
    is_transient,
)
from .expr import (
    BOOL,
    BinOp,
    BitSelect,
    Cast,
    Concat,
    Constant,
    Expr,
    Mux,
    SliceSelect,
    UnOp,
    bit,
    bits,
    cast,
    concat,
    eq,
    ge,
    gt,
    le,
    lt,
    mux,
    ne,
)
from .fsm import FSM, Condition, State, Transition, always, cnd
from .memory import Ram, Rom
from .process import Port, Process, TimedProcess, UntimedProcess, actor
from .sfg import SFG, Assignment
from .signal import Register, Sig, sig_like
from .system import Channel, System

__all__ = [
    "BOOL",
    "Assignment",
    "BinOp",
    "BitSelect",
    "Cast",
    "Channel",
    "CheckError",
    "Clock",
    "CodegenError",
    "Concat",
    "Condition",
    "Constant",
    "DeadlockError",
    "Expr",
    "FSM",
    "FxOverflowError",
    "ModelError",
    "is_transient",
    "Mux",
    "Port",
    "Process",
    "Ram",
    "Register",
    "ReproError",
    "Rom",
    "SFG",
    "Sig",
    "SimulationError",
    "SliceSelect",
    "State",
    "TransientError",
    "WatchdogTimeout",
    "SynthesisError",
    "System",
    "TimedProcess",
    "Transition",
    "UnOp",
    "UntimedProcess",
    "actor",
    "always",
    "bit",
    "bits",
    "cast",
    "cnd",
    "concat",
    "eq",
    "ge",
    "gt",
    "le",
    "lt",
    "mux",
    "ne",
    "sig_like",
]
