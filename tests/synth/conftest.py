"""Synthesized reference designs shared by the synthesis tests.

DECT synthesis takes about a second; its tests share one result.  They
only read the netlists (and fill the memos pickles leave out).
"""

import pytest


@pytest.fixture(scope="session")
def dect_synthesis():
    """The DECT transceiver and ``synthesize_system`` of its system."""
    from repro.designs.dect import build_transceiver
    from repro.synth import synthesize_system

    design = build_transceiver()
    return design, synthesize_system(design.system)


@pytest.fixture(scope="session")
def hcor_system_synthesis():
    """HCOR and ``synthesize_system`` of its system."""
    from repro.designs.hcor import build_hcor
    from repro.synth import synthesize_system

    design = build_hcor()
    return design, synthesize_system(design.system)


@pytest.fixture(scope="session")
def design_netlists(hcor_system_synthesis, dect_synthesis):
    """Every synthesized component netlist of HCOR and the DECT
    transceiver, HCOR first."""
    return [component.netlist
            for _design, synthesis in (hcor_system_synthesis, dect_synthesis)
            for component in synthesis.components]
