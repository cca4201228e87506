"""Building, caching and falling back from the native gate kernel and
netlist optimizer.

Both build through :mod:`repro.sim.cbuild`, the build path they share
with the compiled simulator's native step.

Each test builds into a cache directory of its own.  A build that cannot
finish — no compiler, a compile error, a compiler that outlives the
timeout — falls back to the Python kernel once, with one warning that
names the reason, leaves no file behind, and simulates the same values.
The optimizer falls back alone, to the Python optimizer and the same
netlists, and a kernel that fails leaves the optimizer native.
"""

import os
import pickle
import shutil
import sys
import time
import warnings

import pytest

from repro.sim import cbuild
from repro.synth import GateSimulator, native, optimize, optimize_netlist
from repro.synth.gatesim import _NativeGateSimulator

from .test_gate_kernel import random_netlist
from .test_netlist_digest import DECT_DIGESTS, HCOR_DIGESTS, _digests

needs_compiler = pytest.mark.skipif(
    shutil.which(cbuild._COMPILER) is None, reason="no C compiler")


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty kernel cache for this test (the kernel this process has
    loaded stays loaded until the test unloads it)."""
    root = tmp_path / "cache"
    monkeypatch.setattr(cbuild, "_cache_dir", lambda: root)
    monkeypatch.setattr(native, "failure", None)
    return root


def _files(root):
    return set(root.iterdir()) if root.exists() else set()


def _run(netlist):
    sim = GateSimulator(netlist)
    values = []
    for cycle in range(12):
        sim.step({name: cycle * 5 + 1 for name in netlist.inputs})
        values.append(list(sim.values))
    return type(sim), values


def _falls_back(netlist, reason):
    """A fresh simulator warns once with *reason*, runs the Python
    kernel and computes what the native kernel computed."""
    with pytest.warns(RuntimeWarning, match=reason):
        kernel, values = _run(netlist)
    assert kernel is GateSimulator
    assert native.failure is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(netlist) == (GateSimulator, values)
    return values


def _fake_compiler(tmp_path, body):
    path = tmp_path / "fake-cc"
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)
    return str(path)


@needs_compiler
def test_cold_build_is_cached_and_atomic(cache, monkeypatch):
    netlist = random_netlist(3)
    monkeypatch.setattr(native, "_library", None)
    kernel, values = _run(netlist)
    assert kernel is _NativeGateSimulator
    # One library and nothing else: the scratch directory is gone.
    entries = list(cache.iterdir())
    assert len(entries) == 1 and entries[0].suffix == ".so"
    # A second process loads it without compiling.
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(cbuild, "_compile", None)  # calling it fails
    assert _run(netlist) == (_NativeGateSimulator, values)


def test_cache_key_covers_source_compiler_and_platform(cache, monkeypatch):
    path = cbuild.cache_path(b"source", b"cc 1.0")
    assert path.parent == cache
    assert cbuild.cache_path(b"source", b"cc 1.0") == path
    assert cbuild.cache_path(b"source 2", b"cc 1.0") != path
    assert cbuild.cache_path(b"source", b"cc 1.1") != path
    assert cbuild.cache_path(b"source", b"cc 1.0",
                             cbuild._EXTENSION_FLAGS) != path
    monkeypatch.setattr(sys, "platform", "other")
    assert cbuild.cache_path(b"source", b"cc 1.0") != path
    for flags in (cbuild.KERNEL_FLAGS, cbuild._EXTENSION_FLAGS):
        assert not any("native" in flag for flag in flags)


@needs_compiler
def test_missing_compiler_falls_back(cache, monkeypatch):
    netlist = random_netlist(4)
    _kernel, values = _run(netlist)
    before = _files(cache)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(cbuild, "_COMPILER", "no-such-compiler-here")
    assert _falls_back(netlist, "no C compiler") == values
    assert _files(cache) == before


@needs_compiler
def test_compile_error_falls_back(cache, monkeypatch, tmp_path):
    netlist = random_netlist(5)
    _kernel, values = _run(netlist)
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C;\n")
    before = _files(cache)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "SOURCE", broken)
    assert _falls_back(netlist, "exited with status") == values
    assert _files(cache) == before


@needs_compiler
def test_compile_timeout_bounds_the_build(cache, monkeypatch, tmp_path):
    netlist = random_netlist(6)
    _kernel, values = _run(netlist)
    pid_file = tmp_path / "pid"
    compiler = _fake_compiler(tmp_path, f"echo $$ > {pid_file}\nexec sleep 60")
    before = _files(cache)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(cbuild, "_COMPILER", compiler)
    monkeypatch.setattr(cbuild, "_TIMEOUT", 0.5)
    start = time.perf_counter()
    assert _falls_back(netlist, r"took over 0\.5 s") == values
    assert time.perf_counter() - start < 20
    assert _files(cache) == before
    # The compiler was killed, not left running.
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


@pytest.fixture
def broken(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text("this is not C;\n")
    return path


@needs_compiler
def test_broken_optimizer_falls_back_alone(cache, monkeypatch, broken):
    from repro.designs.dect import build_transceiver
    from repro.designs.hcor import build_hcor
    from repro.synth import synthesize_system

    monkeypatch.setattr(native, "_optimizer", None)
    monkeypatch.setattr(native, "optimizer_failure", None)
    monkeypatch.setattr(native, "OPTIMIZER_SOURCE", broken)
    with pytest.warns(RuntimeWarning) as record:
        hcor = synthesize_system(build_hcor().system)
    assert [str(w.message) for w in record] == [
        f"native netlist optimizer unavailable, netlists are optimized in "
        f"Python: {native.optimizer_failure}"]
    assert "exited with status" in native.optimizer_failure
    # Once per process: the next 20 optimizations warn no more.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dect = synthesize_system(build_transceiver().system)
        assert _digests(hcor) == HCOR_DIGESTS
        assert list(_digests(dect).items()) == list(DECT_DIGESTS.items())
        # The gate kernel still runs native.
        assert type(GateSimulator(hcor.components[0].netlist)) \
            is _NativeGateSimulator
    assert native.failure is None


@needs_compiler
def test_broken_kernel_leaves_the_optimizer_native(cache, monkeypatch,
                                                   broken):
    netlist = random_netlist(7)
    with optimize._python_optimizer():
        reference = optimize_netlist(netlist)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "SOURCE", broken)
    monkeypatch.setattr(native, "_optimizer", None)
    monkeypatch.setattr(native, "optimizer_failure", None)
    with pytest.warns(RuntimeWarning, match="exited with status"):
        assert type(GateSimulator(netlist)) is GateSimulator
    monkeypatch.setattr(optimize, "_one_pass", None)  # calling it fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimized = optimize_netlist(netlist)
    assert native.optimizer_failure is None
    assert pickle.dumps(optimized) == pickle.dumps(reference)
