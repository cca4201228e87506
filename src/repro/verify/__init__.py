"""Verification and robustness tooling for the design environment.

The paper's claim (sections 2, 5 and Table 1) is that one environment
carries a design from untimed model to gate netlist while keeping every
refinement step *checkable*.  This package supplies the machinery that
stresses those checks:

* :mod:`repro.verify.faults` — stuck-at and transient fault models on
  :class:`~repro.synth.netlist.Netlist` nets, with structural fault
  collapsing.
* :mod:`repro.verify.campaign` — a fault-injection campaign runner that
  replays a stimulus program against the golden
  :class:`~repro.synth.gatesim.GateSimulator` and reports fault coverage.
* :mod:`repro.verify.lockstep` — run two simulation engines in lockstep
  over the same stimuli and, on mismatch, localize the first divergent
  cycle and signal.
* :mod:`repro.verify.guard` — guard rails: a :class:`Watchdog` with cycle
  and wall-clock budgets that returns partial results instead of raising,
  plus deterministic checkpoint/restore of simulator state.
* :mod:`repro.verify.overflow` — dynamic confirmation of the lint
  interval analysis: random search for a concrete input valuation that
  overflows an SFG's quantize step.
"""

from .campaign import (
    CampaignReport,
    FaultCampaign,
    FaultResult,
    derive_seed,
    random_stimulus,
)
from .faults import (
    CollapseResult,
    StuckAtFault,
    TransientFault,
    collapse_faults,
    enumerate_faults,
)
from .guard import (
    Watchdog,
    WatchdogResult,
    checkpoint,
    restore,
    supports_checkpoint,
)
from .overflow import OverflowWitness, find_overflow_witness
from .lockstep import (
    CompiledAdapter,
    CycleAdapter,
    Divergence,
    EngineAdapter,
    EventAdapter,
    GateAdapter,
    Lockstep,
)

__all__ = [
    "CampaignReport",
    "CollapseResult",
    "CompiledAdapter",
    "CycleAdapter",
    "Divergence",
    "EngineAdapter",
    "EventAdapter",
    "FaultCampaign",
    "FaultResult",
    "GateAdapter",
    "Lockstep",
    "OverflowWitness",
    "StuckAtFault",
    "TransientFault",
    "Watchdog",
    "WatchdogResult",
    "checkpoint",
    "collapse_faults",
    "derive_seed",
    "enumerate_faults",
    "find_overflow_witness",
    "random_stimulus",
    "restore",
    "supports_checkpoint",
]
