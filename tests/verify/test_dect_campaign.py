"""The DECT ALU's whole collapsed fault universe, lane-packed and scalar.

perfbench's DECT campaign runs chunks of the ``alu`` datapath's
collapsed universe at ``lanes=64``, each chunk one replay.  The report
must equal the scalar path's, which steps one fault at a time and reads
every output through ``settled_outputs``: every result, detection cycle
and output, and the rendered text.
"""

from repro.core import Clock
from repro.designs.dect import datapaths
from repro.synth.flow import synthesize_process
from repro.verify import FaultCampaign, random_stimulus


def test_alu_universe_lane_packed_equals_scalar():
    netlist = synthesize_process(datapaths.build_alu(Clock("alu"))).netlist
    stimuli = random_stimulus(netlist, 16, seed=23)
    scalar = FaultCampaign(netlist, stimuli).run()
    batched = FaultCampaign(netlist, stimuli, lanes=64).run()
    assert scalar.collapsed_faults == len(scalar.results) > 4000
    assert scalar.detected() and scalar.undetected()
    assert batched == scalar
    assert batched.report(netlist) == scalar.report(netlist)
