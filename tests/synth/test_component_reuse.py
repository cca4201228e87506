"""``synthesize_system`` optimizes each structurally distinct component once.

A component whose unoptimized netlist repeats an earlier one's gets a
copy of that optimized netlist, which must be exactly what
``synthesize_process`` gives for the component alone: same bytes, own
name and net names, nothing shared with another netlist.
"""

import pickle

import pytest

from repro.core import SFG, Clock, Register, System, TimedProcess
from repro.fixpt import FxFormat
from repro.synth import synthesize_process, synthesize_system


def _counters(*registers):
    """One free-running counter component per ``(name, width)``."""
    clk = Clock()
    system = System("counters")
    for index, (name, width) in enumerate(registers):
        count = Register(name, clk, FxFormat(width, width))
        sfg = SFG(f"up{index}")
        with sfg:
            count <<= count + 1
        process = TimedProcess(f"counter{index}", clk, sfgs=[sfg])
        process.add_output("q", count)
        system.add(process)
        system.connect(process.port("q"), name=f"q{index}")
    return system


def _netlists(synthesis):
    return {c.process.name: c.netlist for c in synthesis.components}


@pytest.mark.parametrize("name", ["io_q", "coefadr", "fir1", "fir2"])
def test_dect_repeats_match_synthesis_alone(dect_synthesis, name):
    design, synthesis = dect_synthesis
    process = next(p for p in design.system.timed_processes()
                   if p.name == name)
    assert pickle.dumps(_netlists(synthesis)[name]) == \
        pickle.dumps(synthesize_process(process).netlist)


def test_dect_repeats_are_copies_of_their_first_occurrence(dect_synthesis):
    _design, synthesis = dect_synthesis
    netlists = _netlists(synthesis)
    assert synthesis.total_gates == 89500
    for repeat, first in (("io_q", "io_i"), ("coefadr", "outadr"),
                          ("fir1", "fir0"), ("fir2", "fir0")):
        copy, original = netlists[repeat], netlists[first]
        assert copy is not original
        assert copy.gate_count() == original.gate_count()
        assert copy.name == repeat
        assert sorted(copy.net_names.values()) != \
            sorted(original.net_names.values())


def test_register_names_stay_with_their_component():
    system = _counters(("alpha", 8), ("beta", 8), ("gamma", 6))
    synthesis = synthesize_system(system)
    netlists = _netlists(synthesis)
    for process in system.timed_processes():
        assert pickle.dumps(netlists[process.name]) == \
            pickle.dumps(synthesize_process(process).netlist)
    first, second = netlists["counter0"], netlists["counter1"]
    labels = [(first.net_label(a), second.net_label(b))
              for a, b in zip(first.outputs["q"], second.outputs["q"])]
    assert labels[0] == ("alpha[0]", "beta[0]")
    assert all(a.startswith("alpha[") and b.startswith("beta[")
               for a, b in labels)


def test_copies_share_no_object():
    """No netlist, gate column, bus or name table is shared — within
    one call between a copy and its original, nor between two calls, so
    every call builds cold."""
    system = _counters(("alpha", 8), ("beta", 8))
    once = _netlists(synthesize_system(system))
    twice = _netlists(synthesize_system(system))
    netlists = [*once.values(), *twice.values()]
    seen = set()
    for netlist in netlists:
        parts = [netlist, netlist.gate_kinds, netlist.gate_inputs,
                 netlist.gate_outputs, netlist.gate_inits,
                 netlist.net_names, netlist.inputs, netlist.outputs,
                 netlist._driver, *netlist.inputs.values(),
                 *netlist.outputs.values()]
        ids = {id(part) for part in parts}
        assert not ids & seen
        seen |= ids
    assert all(pickle.dumps(once[name]) == pickle.dumps(twice[name])
               for name in once)


def test_validate_checks_every_distinct_component(monkeypatch):
    import repro.synth.equiv as equiv

    checked = []
    check_netlists = equiv.check_netlists

    def recording(a, b, **kwargs):
        checked.append(a.name)
        return check_netlists(a, b, **kwargs)

    monkeypatch.setattr(equiv, "check_netlists", recording)
    system = _counters(("alpha", 8), ("beta", 8), ("gamma", 6),
                       ("delta", 6))
    synthesis = synthesize_system(system, validate="sampled")
    assert checked == ["counter0", "counter2"]
    assert [c.process.name for c in synthesis.components] == \
        ["counter0", "counter1", "counter2", "counter3"]


def test_structural_difference_is_no_repeat():
    """Same shape, different logic: an incrementer and a decrementer."""
    clk = Clock()
    system = System("updown")
    for index, step in enumerate((1, -1)):
        count = Register(f"r{index}", clk, FxFormat(8, 8))
        sfg = SFG(f"s{index}")
        with sfg:
            count <<= count + step
        process = TimedProcess(f"p{index}", clk, sfgs=[sfg])
        process.add_output("q", count)
        system.add(process)
        system.connect(process.port("q"), name=f"q{index}")
    synthesis = synthesize_system(system)
    for component in synthesis.components:
        assert pickle.dumps(component.netlist) == \
            pickle.dumps(synthesize_process(component.process).netlist)
