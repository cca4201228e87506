"""Property-based cross-engine equivalence.

The paper's whole verification story rests on the interpreted, compiled
and HDL views computing the same thing.  Here hypothesis generates random
datapaths (structure + stimuli) and asserts that the interpreted cycle
scheduler, the compiled-code simulator, and the event-driven simulator
agree register-for-register — and that the synthesized netlist replays
the same traffic.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SFG,
    Clock,
    Register,
    Sig,
    System,
    TimedProcess,
    eq,
    mux,
)
from repro.fixpt import FxFormat, Overflow, Rounding
from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator, PortLog

pytestmark = pytest.mark.both_steps


@st.composite
def datapath_case(draw):
    """A random small datapath plus a random stimulus sequence."""
    n_regs = draw(st.integers(min_value=1, max_value=4))
    wl = draw(st.integers(min_value=4, max_value=12))
    iwl = draw(st.integers(min_value=2, max_value=wl))
    rounding = draw(st.sampled_from(list(Rounding)))
    overflow = draw(st.sampled_from([Overflow.SATURATE, Overflow.WRAP]))
    fmt = FxFormat(wl, iwl, rounding=rounding, overflow=overflow)
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "sub", "mul", "mux", "shift", "neg"]),
            st.integers(min_value=0, max_value=n_regs - 1),
            st.integers(min_value=0, max_value=n_regs - 1),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=n_regs, max_size=2 * n_regs,
    ))
    lo = fmt.raw_min
    hi = fmt.raw_max
    stimulus = draw(st.lists(st.integers(min_value=lo, max_value=hi),
                             min_size=3, max_size=10))
    return n_regs, fmt, ops, stimulus


def build(n_regs, fmt, ops):
    clk = Clock()
    x = Sig("x", fmt)
    regs = [Register(f"r{i}", clk, fmt, init=i) for i in range(n_regs)]
    sfg = SFG("dp")
    with sfg:
        assigned = set()
        for op, dst, src, amount in ops:
            if dst in assigned:
                continue
            assigned.add(dst)
            a, b = regs[dst], regs[src]
            if op == "add":
                regs[dst] <<= a + b + x
            elif op == "sub":
                regs[dst] <<= a - (b >> 1)
            elif op == "mul":
                regs[dst] <<= (a * x) >> 2
            elif op == "mux":
                regs[dst] <<= mux(eq(x, 0), a, b)
            elif op == "shift":
                regs[dst] <<= (a << (amount % 2)) + (x >> amount)
            else:
                regs[dst] <<= -a
        for i, reg in enumerate(regs):
            if i not in assigned:
                reg <<= reg + x
    sfg.inp(x)
    process = TimedProcess("dp", clk, sfgs=[sfg])
    process.add_input("x", x)
    process.add_output("y", regs[0])
    system = System("rand")
    system.add(process)
    pin = system.connect(None, process.port("x"), name="x")
    system.connect(process.port("y"), name="y")
    return system, pin, regs, process


@given(datapath_case())
@settings(max_examples=25, deadline=None)
def test_interpreted_compiled_event_agree(case):
    n_regs, fmt, ops, stimulus = case
    lsb = float(fmt.lsb)
    values = [raw * lsb for raw in stimulus]

    system_i, pin_i, regs_i, _p = build(n_regs, fmt, ops)
    scheduler = CycleScheduler(system_i)
    for value in values:
        scheduler.step({pin_i: value})
    interpreted = [reg.current.raw for reg in regs_i]

    system_c, _pin, regs_c, _p2 = build(n_regs, fmt, ops)
    simulator = CompiledSimulator(system_c)
    for value in values:
        simulator.step({"x": value})
    snapshot = simulator.snapshot()
    compiled = [snapshot[f"r{i}"].raw for i in range(n_regs)]

    system_e, _pin2, regs_e, _p3 = build(n_regs, fmt, ops)
    event = EventSimulator(system_e)
    for value in values:
        event.step({"x": value})
    evented = [reg.current.raw for reg in regs_e]

    assert interpreted == compiled == evented


@given(datapath_case())
@settings(max_examples=10, deadline=None)
def test_netlist_replays_random_traffic(case):
    from repro.synth import synthesize_process, verify_component

    n_regs, fmt, ops, stimulus = case
    lsb = float(fmt.lsb)
    system, pin, _regs, process = build(n_regs, fmt, ops)
    log = PortLog(process)
    scheduler = CycleScheduler(system)
    scheduler.monitors.append(log)
    for raw in stimulus:
        scheduler.step({pin: raw * lsb})
    synthesis = synthesize_process(process)
    assert verify_component(log, synthesis) == []
