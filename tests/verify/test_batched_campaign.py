"""Lane-mapped fault campaigns must reproduce the scalar campaign.

The batched campaign packs one fault per bit-lane and replays the
stimulus once per 64 faults instead of once per fault.  Its whole value
rests on being *undetectably* faster: the coverage report — every
result, detection cycle and detection site — must be byte-identical to
the scalar run, while spending an order of magnitude fewer word-level
gate evaluations.
"""


import pytest

from repro.verify import (
    FaultCampaign,
    StuckAtFault,
    TransientFault,
    enumerate_faults,
    random_stimulus,
)

from .conftest import build_and_netlist

EXHAUSTIVE = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]


class TestSmallNetlist:
    def test_report_equals_scalar(self):
        nl = build_and_netlist()
        scalar = FaultCampaign(nl, EXHAUSTIVE).run()
        for lanes in (2, 3, 64):
            batched = FaultCampaign(nl, EXHAUSTIVE, lanes=lanes).run()
            assert batched == scalar, f"lanes={lanes}"

    def test_transient_mix_equals_scalar(self):
        nl = build_and_netlist()
        y = nl.outputs["y"][0]
        a = nl.inputs["a"][0]
        faults = [StuckAtFault(y, 1), StuckAtFault(y, 0),
                  TransientFault(y, 2), TransientFault(a, 1),
                  StuckAtFault(a, 0), TransientFault(y, 99)]
        scalar = FaultCampaign(nl, EXHAUSTIVE, faults=faults).run()
        batched = FaultCampaign(nl, EXHAUSTIVE, faults=faults,
                                lanes=4).run()
        assert batched == scalar

    def test_partial_last_chunk(self):
        """A fault count that doesn't fill the last word of lanes."""
        nl = build_and_netlist()
        faults = enumerate_faults(nl)
        assert len(faults) % 5 != 0
        scalar = FaultCampaign(nl, EXHAUSTIVE, faults=faults).run()
        batched = FaultCampaign(nl, EXHAUSTIVE, faults=faults,
                                lanes=5).run()
        assert batched == scalar


class TestHcorCampaign:
    @pytest.fixture(scope="class")
    def stimuli(self, hcor_synthesis):
        return random_stimulus(hcor_synthesis.netlist, 40, seed=1998)

    def test_report_byte_identical(self, hcor_synthesis, stimuli):
        nl = hcor_synthesis.netlist
        scalar_campaign = FaultCampaign(nl, stimuli)
        batched_campaign = FaultCampaign(nl, stimuli, lanes=64)
        scalar = scalar_campaign.run()
        batched = batched_campaign.run()
        assert batched == scalar
        assert batched.report(nl) == scalar.report(nl)
        # The acceptance bar: one golden replay per 64 faults must cut
        # word-level gate evaluations by at least 10x.
        assert scalar_campaign.gate_evals >= 10 * batched_campaign.gate_evals


class TestShardSpans:
    """A shard worker runs many spans on one campaign object."""

    @pytest.mark.parametrize("lanes", [1, 64])
    def test_spans_share_one_golden_run(self, hcor_synthesis, monkeypatch,
                                        lanes):
        import repro.verify.campaign as campaign_module

        nl = hcor_synthesis.netlist
        stimuli = random_stimulus(nl, 12, seed=7)
        whole = FaultCampaign(nl, stimuli, lanes=lanes)
        report = whole.run()
        split = 100 if lanes > 1 else 9
        fresh = FaultCampaign(nl, stimuli, lanes=lanes, shard=(split, 150))
        fresh_report = fresh.run()

        built = []
        simulator, program = (campaign_module.GateSimulator,
                              campaign_module.PinProgram)

        def counted_simulator(netlist, lanes=1):
            built.append(("simulator", lanes))
            return simulator(netlist, lanes=lanes)

        def counted_program(netlist, stimuli):
            built.append(("program", len(stimuli)))
            return program(netlist, stimuli)

        monkeypatch.setattr(campaign_module, "GateSimulator",
                            counted_simulator)
        monkeypatch.setattr(campaign_module, "PinProgram", counted_program)
        campaign = FaultCampaign(nl, stimuli, lanes=lanes)
        first = campaign.run_shard(0, split)
        second = campaign.run_shard(split, campaign.work_size)
        # One golden simulator, one pin program, one fault simulator.
        assert sorted(built) == sorted([("simulator", 1), ("program", 12),
                                        ("simulator", lanes)])
        assert first.results + second.results == report.results
        # Every span counts the golden replay, as a fresh campaign does.
        assert campaign.run_shard(split, 150) == fresh_report
        assert campaign.gate_evals == fresh.gate_evals
