"""Hardware synthesis: the divide-and-conquer flow of the paper's Fig. 8.

Datapath synthesis (a Cathedral-3 substitute) shares word-level operators
across a component's SFG instruction set; controller synthesis (a logic-
synthesis substitute) turns the FSM into an encoded state register plus
select logic; the combined netlist is post-optimized and can be simulated
at gate level and verified against the captured system stimuli.
"""

from .bitops import Word
from .controller import ControllerResult, encode_states, synthesize_controller
from .datapath import ExprSynthesizer, OperatorAllocator
from .equiv import (
    NetlistCounterexample,
    NetlistEquivReport,
    NetlistEquivalenceError,
    build_miter,
    check_netlists,
)
from .flow import (
    ComponentSynthesis,
    SystemSynthesis,
    synthesize_process,
    synthesize_system,
    verify_component,
)
from .gates import AREA, GateKind
from .gatesim import GateSimulator
from .logic import Cube, cover_evaluates, literal_count, minimize, sop_to_gates
from .netlist import Netlist
from .optimize import optimize_netlist
from .report import (
    RAM_MACRO_GATES,
    component_report,
    system_report,
    total_complexity,
)

__all__ = [
    "AREA",
    "ComponentSynthesis",
    "ControllerResult",
    "Cube",
    "ExprSynthesizer",
    "GateKind",
    "GateSimulator",
    "NetlistCounterexample",
    "NetlistEquivReport",
    "NetlistEquivalenceError",
    "Netlist",
    "build_miter",
    "check_netlists",
    "OperatorAllocator",
    "RAM_MACRO_GATES",
    "SystemSynthesis",
    "Word",
    "component_report",
    "cover_evaluates",
    "encode_states",
    "literal_count",
    "minimize",
    "optimize_netlist",
    "sop_to_gates",
    "synthesize_controller",
    "synthesize_process",
    "synthesize_system",
    "system_report",
    "total_complexity",
    "verify_component",
]
