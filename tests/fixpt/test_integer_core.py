"""Regression guards for the exact-integer fixed-point core.

* Simulating HCOR never builds a :class:`~fractions.Fraction`: the
  interpreted, event-driven and compiled engines step on integer
  arithmetic alone.
* Once both FSM states have run, stepping HCOR builds no
  :class:`FxFormat`: every derived format, including those of ``int``
  operands, is remembered, so a cycle's cost does not depend on which
  formats it happens to meet first.
* A pickled :class:`FxFormat` carries only its five fields, so it loads
  into a process with a different ``PYTHONHASHSEED`` (enum hashes follow
  the seed) and still equals, hashes like and keys dicts like a freshly
  built format — as copies and ``dataclasses.replace`` results do.
"""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.designs.hcor import build_hcor
from repro.dsp import build_burst, nrz, random_payloads
from repro.sim import CompiledSimulator, CycleScheduler, EventSimulator

pytestmark = pytest.mark.both_steps

SRC = str(Path(__file__).resolve().parents[2] / "src")
CYCLES = 100


@pytest.fixture(scope="module")
def stream():
    """100 soft symbols: line noise, then a burst whose sync word locks."""
    rng = np.random.default_rng(5)
    burst = build_burst(*random_payloads(rng))
    noise = (rng.integers(-1, 2, size=20) / 8).tolist()
    return (noise + list(nrz(burst.bits)))[:CYCLES]


def _cycle_engine():
    design = build_hcor()
    engine = CycleScheduler(design.system)
    sync = design.sync_found

    def step(value):
        engine.step({design.soft_in: value})
        return int(sync.value) if sync.valid else None
    return step


def _event_engine():
    design = build_hcor()
    engine = EventSimulator(design.system)
    sig = design.sync_found.producer.sig
    box = [None]
    engine.monitors.append(lambda sim: box.__setitem__(0, sim.value(sig)))

    def step(value):
        engine.step({"soft": value})
        return int(box[0])
    return step


def _compiled_engine():
    design = build_hcor()
    engine = CompiledSimulator(design.system, watch=[design.sync_found])

    def step(value):
        engine.step({"soft": value})
        return int(engine.outputs["sync"])
    return step


def _no_fraction(cls, *args, **kwargs):
    raise AssertionError("Fraction built on a simulation hot path")


@pytest.mark.parametrize("build", [_cycle_engine, _event_engine,
                                   _compiled_engine],
                         ids=["interpreted", "event_rt", "compiled"])
def test_hcor_steps_without_fractions(build, stream, monkeypatch):
    step = build()
    step(stream[0])  # first step: initial settling, generated-code warm-up
    monkeypatch.setattr(Fraction, "__new__", _no_fraction)
    pulses = [step(value) for value in stream[1:]]
    monkeypatch.undo()
    # The burst's sync word was found, so both FSM states were exercised.
    assert pulses.count(1) == 1


def _no_format(self):
    raise AssertionError("FxFormat built on a warmed-up simulation hot path")


@pytest.mark.parametrize("build", [_cycle_engine, _event_engine,
                                   _compiled_engine],
                         ids=["interpreted", "event_rt", "compiled"])
def test_hcor_steady_state_builds_no_formats(build, stream, monkeypatch):
    from repro.fixpt import FxFormat

    step = build()
    for value in stream:  # search, lock and track: every format pair met
        step(value)
    monkeypatch.setattr(FxFormat, "__post_init__", _no_format)
    for value in stream:
        step(value)
    monkeypatch.undo()


LOADER = """
import copy, dataclasses, json, pickle, sys
from repro.fixpt import FxFormat, Overflow, Rounding
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = FxFormat(12, 3, False, Rounding.ROUND, Overflow.WRAP)
copied = copy.deepcopy(loaded)
replaced = dataclasses.replace(loaded, wl=13)
checks = {
    "equal": loaded == fresh,
    "hash": hash(loaded) == hash(fresh),
    "dict_key": {fresh: "hit"}.get(loaded) == "hit",
    "range": (loaded.raw_min, loaded.raw_max) == (fresh.raw_min, fresh.raw_max),
    "derived": loaded.union(fresh) == fresh.union(fresh),
    "copy_equal": copied == fresh and hash(copied) == hash(fresh),
    "copy_dict_key": {copied: "hit"}.get(fresh) == "hit",
    "replace": replaced == FxFormat(13, 3, False, Rounding.ROUND, Overflow.WRAP)
               and hash(replaced) == hash(FxFormat(13, 3, False,
                                                   Rounding.ROUND, Overflow.WRAP)),
}
print(json.dumps(checks))
"""

DUMPER = """
import pickle
from repro.fixpt import Fx, FxFormat, Overflow, Rounding
fmt = FxFormat(12, 3, False, Rounding.ROUND, Overflow.WRAP)
x = Fx(1.5, fmt)
x + x, x - x, x * x, -x, x << 2, x >> 2  # fill the derived-format memo
hash(fmt)
print(pickle.dumps(fmt).hex())
"""


def _python(code, seed, stdin=""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_format_pickle_loads_under_another_hash_seed():
    dumped = _python(DUMPER, seed=1)
    checks = json.loads(_python(LOADER, seed=2, stdin=dumped))
    assert checks == {name: True for name in checks}


def test_derived_formats_stay_out_of_the_pickle():
    from repro.fixpt import Fx, FxFormat

    fmt = FxFormat(9, 4)
    x = Fx(raw=3, fmt=fmt)
    x + x, x * x, -x, x >> 1
    assert pickle.dumps(fmt) == pickle.dumps(FxFormat(9, 4))
