"""Journaled runs and crash recovery: resume re-executes only the rest."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.runner import (
    ChaosPlan,
    RetryPolicy,
    RunnerError,
    ShardedRunner,
    load_journal,
)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01)


class TestJournaledRun:
    def test_run_writes_a_replayable_journal(self, and2_job, and2_serial,
                                             shared_cache, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        outcome = ShardedRunner(and2_job, cache=shared_cache, workers=2,
                                shard_size=1, retry=FAST_RETRY,
                                journal_path=journal).run()
        assert outcome.report == and2_serial
        state = load_journal(journal)
        assert state.run_complete
        assert len(state.done) == outcome.stats.shards
        assert state.meta["work_size"] == and2_serial.collapsed_faults
        assert state.meta["job"] == and2_job.to_json()

    def test_fresh_run_refuses_an_existing_journal(self, and2_job,
                                                   shared_cache, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        ShardedRunner(and2_job, cache=shared_cache, workers=1,
                      journal_path=journal, retry=FAST_RETRY).run()
        with pytest.raises(RunnerError, match="resume"):
            ShardedRunner(and2_job, cache=shared_cache, workers=1,
                          journal_path=journal, retry=FAST_RETRY).run()

    def test_resume_replays_done_and_runs_the_rest(
            self, and2_job, and2_serial, shared_cache, tmp_path):
        # Build a complete journal, then rewrite it with only a prefix
        # of the shard_done records — the shape a parent crash leaves.
        full = str(tmp_path / "full.jsonl")
        ShardedRunner(and2_job, cache=shared_cache, workers=2,
                      shard_size=1, journal_path=full,
                      retry=FAST_RETRY).run()
        records = [json.loads(line) for line in open(full)]
        meta = records[0]
        done = [r for r in records if r["kind"] == "shard_done"]
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w") as handle:
            for record in [meta] + done[:2]:
                handle.write(json.dumps(record) + "\n")

        outcome = ShardedRunner.resume(partial, cache=shared_cache,
                                       workers=2, retry=FAST_RETRY).run()
        assert outcome.stats.reused == 2
        assert outcome.stats.completed == outcome.stats.shards - 2
        assert outcome.report == and2_serial
        assert outcome.report.report() == and2_serial.report()
        assert load_journal(partial).run_complete

    def test_resume_of_a_complete_journal_runs_nothing(
            self, and2_job, and2_serial, shared_cache, tmp_path):
        journal = str(tmp_path / "done.jsonl")
        ShardedRunner(and2_job, cache=shared_cache, workers=2,
                      shard_size=1, journal_path=journal,
                      retry=FAST_RETRY).run()
        outcome = ShardedRunner.resume(journal, cache=shared_cache,
                                       workers=2).run()
        assert outcome.stats.completed == 0
        assert outcome.stats.workers_spawned == 0  # nothing to do
        assert outcome.stats.reused == outcome.stats.shards
        assert outcome.report == and2_serial

    def test_resume_rejects_a_changed_design(self, and2_job, shared_cache,
                                             tmp_path):
        journal = str(tmp_path / "run.jsonl")
        ShardedRunner(and2_job, cache=shared_cache, workers=1,
                      journal_path=journal, retry=FAST_RETRY).run()
        records = [json.loads(line) for line in open(journal)]
        records[0]["work_size"] += 1  # journal from "another" design
        with open(journal, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        with pytest.raises(RunnerError, match="work size"):
            ShardedRunner.resume(journal, cache=shared_cache,
                                 workers=1).run()

    def test_abandoned_shards_get_a_fresh_budget_on_resume(
            self, and2_job, and2_serial, shared_cache, tmp_path):
        journal = str(tmp_path / "degraded.jsonl")
        first = ShardedRunner(and2_job, cache=shared_cache, workers=2,
                              shard_size=1, journal_path=journal,
                              retry=RetryPolicy(max_attempts=1,
                                                backoff_base=0.01),
                              chaos=ChaosPlan(raise_shard=0)).run()
        assert not first.report.complete
        # The rerun injects nothing: the abandoned shard must execute.
        second = ShardedRunner.resume(journal, cache=shared_cache,
                                      workers=2, retry=FAST_RETRY).run()
        assert second.report.complete
        assert second.report == and2_serial


class TestParentCrash:
    def test_killed_parent_resumes_from_the_journal(
            self, and2_job, and2_serial, shared_cache, tmp_path):
        """kill the parent mid-run (os._exit via chaos), then resume."""
        journal = str(tmp_path / "crash.jsonl")
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        env = dict(os.environ)
        env["REPRO_CHAOS"] = json.dumps({"parent_exit_after": 2})
        env["PYTHONPATH"] = (os.path.abspath(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.runner", "run",
             "--design", "and2", "--cycles", "6", "--seed", "7",
             "--lanes", "4", "--shard-size", "1", "--workers", "2",
             "--journal", journal, "--cache-dir", shared_cache.root],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr[-2000:]

        state = load_journal(journal)
        assert len(state.done) == 2  # exactly the journaled completions
        assert not state.run_complete

        outcome = ShardedRunner.resume(journal, cache=shared_cache,
                                       workers=2, retry=FAST_RETRY).run()
        assert outcome.stats.reused == 2
        assert outcome.stats.completed == outcome.stats.shards - 2
        assert outcome.report == and2_serial
        assert outcome.report.report() == and2_serial.report()
        assert load_journal(journal).run_complete

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="forks a worker")
    def test_worker_orphaned_during_init_exits(self, and2_job):
        """A worker whose parent dies while it initializes exits soon
        after.  It holds its own pipe's parent end and the parent's
        stdout open, so only the parent's pid tells it the parent is
        gone, and whoever captures that stdout waits for it."""
        script = textwrap.dedent("""\
            import json, multiprocessing, os, sys, time
            from repro.runner.worker import worker_main

            def slow_worker(conn, job):
                time.sleep(1.0)  # the parent exits meanwhile
                worker_main(conn, "w0", job, None, None)

            ctx = multiprocessing.get_context("fork")
            _parent_end, child_end = ctx.Pipe()
            worker = ctx.Process(target=slow_worker,
                                 args=(child_end, json.loads(sys.argv[1])))
            worker.start()
            print(worker.pid, flush=True)
            os._exit(3)
            """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.abspath(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(and2_job.to_json())],
            env=env, stdout=subprocess.PIPE, text=True)
        worker_pid = int(proc.stdout.readline())
        try:
            # Returns once the worker, too, has closed the stdout pipe.
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.kill(worker_pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the orphaned worker outlived its parent by 30 s")
        assert proc.returncode == 3
