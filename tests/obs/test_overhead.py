"""The probe-overhead regression: instrumentation off must cost nothing.

Three mechanisms keep disabled instrumentation (near) free, each pinned
here:

* the cycle scheduler attaches *no monitor* when the capture has nothing
  to do, so the per-cycle loop is untouched;
* the compiled simulator emits *no instrumentation code* into its
  generated source unless the capture asks for it;
* a fully-disabled capture allocates no per-cycle memory inside the obs
  layer (checked with tracemalloc, filtered to ``src/repro/obs``).
"""

import tracemalloc

import pytest

from repro.obs import Capture
from repro.sim import CompiledSimulator, CycleScheduler

from tests.conftest import build_hold_system

pytestmark = pytest.mark.both_steps


def disabled_capture():
    return Capture(activity=False, fsm=False, events=False, profile=False)


class TestCycleScheduler:
    def test_no_monitor_attached_when_disabled(self):
        system, *_ = build_hold_system()
        bare = CycleScheduler(system)
        system2, *_ = build_hold_system()
        off = CycleScheduler(system2, obs=disabled_capture())
        assert len(off.monitors) == len(bare.monitors)

    def test_monitor_attached_when_enabled(self):
        system, *_ = build_hold_system()
        on = CycleScheduler(system, obs=Capture())
        system2, *_ = build_hold_system()
        bare = CycleScheduler(system2)
        assert len(on.monitors) == len(bare.monitors) + 1

    def test_profiling_off_means_no_clock_reads(self):
        system, *_ = build_hold_system()
        scheduler = CycleScheduler(system, obs=disabled_capture())
        assert scheduler._prof is None


class TestCompiledCodegen:
    def test_bare_source_contains_no_obs_text(self):
        system, *_ = build_hold_system()
        simulator = CompiledSimulator(system)
        assert "_obs" not in simulator.source

    def test_disabled_capture_source_contains_no_obs_text(self):
        system, *_ = build_hold_system()
        simulator = CompiledSimulator(system, obs=disabled_capture())
        assert "_obs" not in simulator.source

    def test_enabled_capture_emits_the_hook(self):
        system, *_ = build_hold_system()
        simulator = CompiledSimulator(system, obs=Capture())
        assert "_obs_end_cycle" in simulator.source
        # Profiling stays out unless asked for separately.
        assert "_obs_block" not in simulator.source

    def test_profile_emits_block_brackets(self):
        system, *_ = build_hold_system()
        simulator = CompiledSimulator(system, obs=Capture(profile=True))
        assert "_obs_block" in simulator.source
        assert "_obs_perf" in simulator.source


class TestAllocationRegression:
    def _obs_bytes_during(self, scheduler, pin, cycles=50):
        """Bytes allocated inside src/repro/obs over *cycles* steps."""
        snapshot_filter = tracemalloc.Filter(True, "*repro*obs*")
        tracemalloc.start(10)
        try:
            for _ in range(cycles):
                scheduler.step({pin: 0})
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces([snapshot_filter]).statistics("filename")
        return sum(s.size for s in stats)

    def test_disabled_capture_allocates_nothing_per_cycle(self):
        system, pin, *_ = build_hold_system()
        scheduler = CycleScheduler(system, obs=disabled_capture())
        scheduler.step({pin: 0})  # warm-up outside the measurement
        assert self._obs_bytes_during(scheduler, pin) == 0

    def test_enabled_capture_does_allocate(self):
        # Sanity check that the measurement would catch a regression:
        # with events + markers on, the obs layer visibly allocates.
        system, pin, *_ = build_hold_system()
        scheduler = CycleScheduler(
            system, obs=Capture(cycle_markers=1))
        scheduler.step({pin: 0})
        assert self._obs_bytes_during(scheduler, pin) > 0
