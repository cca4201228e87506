"""Randomized differential test across the simulation back-ends.

Generates seeded random systems — small SFGs over mixed fixed-point
formats with muxes, shifts, bitwise logic and casts — and runs the
interpreted scheduler, the compiled simulator with IR passes disabled,
and the compiled simulator with the full pass pipeline in lockstep.
All three must agree bit-for-bit on every output, every cycle.
"""

import random

import pytest

from repro.core import (
    SFG,
    Clock,
    Register,
    Sig,
    System,
    TimedProcess,
    cast,
    eq,
    ge,
    gt,
    lt,
    mux,
)
from repro.fixpt import Fx, FxFormat
from repro.verify import CompiledAdapter, CycleAdapter, Lockstep

pytestmark = pytest.mark.both_steps

FORMATS = [
    FxFormat(8, 4),
    FxFormat(10, 6),
    FxFormat(12, 4),
    FxFormat(16, 8),
    FxFormat(6, 3),
]

CYCLES = 120


def _random_expr(rng, leaves, depth):
    """A random fixed-point expression over *leaves*."""
    if depth <= 0 or rng.random() < 0.25:
        leaf = rng.choice(leaves)
        if rng.random() < 0.2:
            return leaf + rng.randrange(-3, 4)
        return leaf
    kind = rng.randrange(9)
    a = _random_expr(rng, leaves, depth - 1)
    b = _random_expr(rng, leaves, depth - 1)
    if kind == 0:
        return a + b
    if kind == 1:
        return a - b
    if kind == 2:
        return a * b
    if kind == 3:
        return a << rng.randrange(1, 3)
    if kind == 4:
        return a >> rng.randrange(1, 3)
    if kind == 5:
        cmp = rng.choice([gt, lt, ge, eq])
        return mux(cmp(a, b), a, b)
    if kind == 6:
        return -a
    if kind == 7:
        return cast(a + b, rng.choice(FORMATS))
    return abs(a)


def build_random_system(seed):
    """One timed process: 3 registers, 1 input pin, random update SFG."""
    rng = random.Random(seed)
    clk = Clock(f"clk{seed}")
    pin_fmt = rng.choice(FORMATS)
    pin = Sig("stim", pin_fmt)
    regs = [
        Register(f"r{i}", clk, rng.choice(FORMATS), init=Fx(0, FORMATS[0]))
        for i in range(3)
    ]
    leaves = regs + [pin]

    sfg = SFG("update")
    with sfg:
        for reg in regs:
            reg <<= _random_expr(rng, leaves, depth=3)
    sfg.inp(pin)

    process = TimedProcess(f"rand{seed}", clk, sfgs=[sfg])
    process.add_input("stim", pin)
    for i, reg in enumerate(regs):
        process.add_output(f"q{i}", reg)

    system = System(f"rand_sys{seed}")
    system.add(process)
    system.connect(None, process.port("stim"), name="stim")
    for i in range(3):
        system.connect(process.port(f"q{i}"), name=f"q{i}")
    return system, pin_fmt


def _stimulus(seed, fmt):
    rng = random.Random(seed + 10_000)
    span = float(2 ** (fmt.iwl - (1 if fmt.signed else 0)))
    return [
        {"stim": Fx(rng.uniform(-span * 0.9, span * 0.9), fmt)}
        for _ in range(CYCLES)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_three_engines_agree(seed):
    stim = _stimulus(seed, build_random_system(seed)[1])

    def interpreted():
        return CycleAdapter(build_random_system(seed)[0])

    def compiled_raw():
        return CompiledAdapter(build_random_system(seed)[0],
                               name="compiled_raw", passes=())

    def compiled_opt():
        return CompiledAdapter(build_random_system(seed)[0],
                               name="compiled_opt")

    div = Lockstep(interpreted, compiled_raw, stim).run()
    assert div is None, f"seed {seed}: interpreted vs raw-compiled: {div}"
    div = Lockstep(interpreted, compiled_opt, stim).run()
    assert div is None, f"seed {seed}: interpreted vs optimized: {div}"
    div = Lockstep(compiled_raw, compiled_opt, stim).run()
    assert div is None, f"seed {seed}: passes changed behaviour: {div}"


def test_passes_reduce_op_count_somewhere():
    """Across the seeds, the pipeline must shrink at least one program."""
    from repro.sim import CompiledSimulator

    shrunk = False
    for seed in range(12):
        system, _ = build_random_system(seed)
        sim = CompiledSimulator(system)
        assert sim.ir_op_count <= sim.ir_op_count_raw
        if sim.ir_op_count < sim.ir_op_count_raw:
            shrunk = True
    assert shrunk
