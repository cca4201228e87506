"""Shared fixtures and builders for the test suite."""

import pytest

from repro.core import (
    FSM,
    SFG,
    Clock,
    Register,
    Sig,
    System,
    TimedProcess,
    actor,
    always,
    cnd,
)
from repro.fixpt import FxFormat

W16 = FxFormat(16, 16)
BOOLF = FxFormat(1, 1, signed=False)


# -- both spellings of the compiled step -----------------------------------------


def pytest_collection_modifyitems(items):
    """Follow each test of a ``both_steps`` module with a copy whose id
    ends in ``python-step]``, which runs the Python step.

    The test as collected keeps its id and runs the native step where it
    builds; a parametrized fixture would rename it with a ``[native]``
    id.  The copy shares the test's fixture closure and parameters.
    """
    collected = []
    for item in items:
        collected.append(item)
        if item.get_closest_marker("both_steps") is not None:
            callspec = getattr(item, "callspec", None)
            name = f"{item.name[:-1]}-python-step]" if callspec is not None \
                else f"{item.name}[python-step]"
            collected.append(pytest.Function.from_parent(
                item.parent, name=name, callspec=callspec,
                fixtureinfo=item._fixtureinfo,
                originalname=item.originalname))
    items[:] = collected


@pytest.fixture(autouse=True)
def _compiled_step_spelling(request):
    """A ``python-step]`` copy builds its compiled simulators on the
    Python step, through the private seam ``_python_step``."""
    if not request.node.name.endswith("python-step]"):
        yield
        return
    from repro.sim.compiled import _python_step

    with _python_step():
        yield


def build_counter_system(width_fmt=W16):
    """A minimal timed system: a free-running counter with an output port."""
    clk = Clock()
    count = Register("count", clk, width_fmt)
    sfg = SFG("count_up")
    with sfg:
        count <<= count + 1
    process = TimedProcess("counter", clk, sfgs=[sfg])
    process.add_output("q", count)
    system = System("counter_sys")
    system.add(process)
    out = system.connect(process.port("q"), name="q")
    return system, out, count


def build_hold_system():
    """The Figure-2-style execute/hold controller around a counter.

    The external ``req`` pin is sampled into a register; when the request
    is asserted the counter freezes (a 'nop'), when deasserted it resumes.
    """
    clk = Clock()
    req_pin = Sig("req_pin", BOOLF)
    req = Register("req", clk, BOOLF)
    count = Register("count", clk, W16)

    sample = SFG("sample")
    with sample:
        req <<= req_pin
    sample.inp(req_pin)

    run_s = SFG("run_s")
    with run_s:
        count <<= count + 1
    hold_s = SFG("hold_s")
    with hold_s:
        count <<= count

    fsm = FSM("ctl")
    execute = fsm.initial("execute")
    hold = fsm.state("hold")
    execute << ~cnd(req) << run_s << execute
    execute << cnd(req) << hold_s << hold
    hold << cnd(req) << hold_s << hold
    hold << ~cnd(req) << run_s << execute

    process = TimedProcess("ctl", clk, fsm=fsm, sfgs=[sample])
    process.add_input("req", req_pin)
    process.add_output("cnt", count)
    system = System("hold_sys")
    system.add(process)
    pin = system.connect(None, process.port("req"), name="req")
    out = system.connect(process.port("cnt"), name="cnt")
    return system, pin, out, count, fsm


def build_loop_system():
    """The Figure-6 scenario: two timed components and an untimed block in
    a circular dependency, broken by a register (phase-1 token)."""
    clk = Clock()
    addr = Register("addr", clk, W16)
    d_in = Sig("d_in", W16)
    data_reg = Register("data_reg", clk, W16)
    sfg1 = SFG("c1")
    with sfg1:
        addr <<= addr + 1
        data_reg <<= d_in
    sfg1.inp(d_in)
    c1 = TimedProcess("c1", clk, sfgs=[sfg1])
    c1.add_output("addr", addr)
    c1.add_input("d", d_in)

    a_in = Sig("a_in", W16)
    a_out = Sig("a_out", W16)
    sfg2 = SFG("c2")
    with sfg2:
        a_out <<= a_in + 100
    sfg2.inp(a_in).out(a_out)
    c2 = TimedProcess("c2", clk, sfgs=[sfg2])
    c2.add_input("a", a_in)
    c2.add_output("y", a_out)

    memory = {i: i * 2 for i in range(4096)}
    ram = actor(
        "ram",
        lambda addr: {"q": memory.get(int(addr), 0)},
        inputs={"addr": 1},
        outputs={"q": 1},
    )

    system = System("loop_sys")
    system.add(c1)
    system.add(c2)
    system.add(ram)
    ch_addr = system.connect(c1.port("addr"), c2.port("a"))
    ch_ram = system.connect(c2.port("y"), ram.port("addr"))
    ch_back = system.connect(ram.port("q"), c1.port("d"))
    return system, (ch_addr, ch_ram, ch_back), data_reg
