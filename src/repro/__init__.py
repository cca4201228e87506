"""repro — a Python reproduction of the IMEC programming environment for
the design of complex high-speed ASICs (Schaumont et al., DAC 1998).

Subpackages
-----------
``repro.core``
    The design-capture DSL: signals, signal flow graphs, FSMs, processes
    and systems.  Their semantic checks run in ``repro.lint``.
``repro.fixpt``
    The fixed-point (finite wordlength) modeling library.
``repro.sim``
    Simulation: data-flow scheduler, the three-phase cycle scheduler,
    compiled-code simulation, and an event-driven HDL-semantics baseline.
``repro.hdl``
    VHDL/Verilog code generation and testbench generation.
``repro.synth``
    The divide-and-conquer synthesis flow: datapath synthesis with
    word-level operator sharing, controller (FSM + logic) synthesis,
    netlist optimization, gate-level simulation, and area reporting.
``repro.dsp``
    Algorithm-level (Matlab-equivalent) reference models for the DECT
    driver design: bursts, multipath channels, equalization, correlation.
``repro.designs``
    The driver designs: the HCOR header-correlator processor and the
    75 Kgate-class DECT base-station transceiver ASIC.
``repro.verify``
    Robustness tooling: fault-injection campaigns with structural fault
    collapsing, lockstep divergence localization between engines, and
    guard rails (watchdog budgets, checkpoint/restore, structured
    deadlock diagnostics).
"""

__version__ = "1.0.0"

from . import core, fixpt

__all__ = ["core", "fixpt", "__version__"]
