"""Worker process entry point: execute shards until told to stop.

A worker is deliberately dumb: it rebuilds the job from its JSON spec
(netlist via the artifact cache, fault collapse once at start-up), then
loops on its pipe executing ``("run", shard, start, stop, attempt,
deadline)`` commands.  All policy — retries, backoff, reassignment —
lives in the parent; the worker's only contract is that every command
gets exactly one reply, ``("done", ...)`` or ``("error", ...)``, unless
the process dies, which the parent detects by liveness.

Observability rides the same pipe.  When the job spec carries a
``span_context``, the worker opens a
:class:`~repro.obs.spans.SpanTracer` *continued from* the parent's
trace: each shard runs inside its own span (marked ``failed`` on
error), and closed spans ship back in the reply's trailing ``extra``
dict alongside the shard's telemetry fragment — a fresh
:class:`~repro.obs.Capture` per attempt, so the fragment is a pure
function of the shard's contents and the merged campaign telemetry is
byte-identical whatever the retry history.  Throttled ``("progress",
shard, done, total)`` messages stream mid-shard completion counts for
the parent to journal (``python -m repro.obs tail`` renders them).

Per-shard deadlines run through a :class:`~repro.verify.guard.Watchdog`
threaded into the campaign; a budget-truncated shard is converted into
a retryable :class:`~repro.core.errors.WatchdogTimeout` (shards are
all-or-nothing — see :func:`repro.runner.jobs.require_complete`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Callable, Optional

from ..obs.capture import Capture
from ..obs.spans import SpanTracer
from ..verify.guard import Watchdog
from .cache import ArtifactCache
from .chaos import ChaosPlan
from .errors import describe_error
from .jobs import (
    CampaignJob,
    SweepJob,
    job_from_json,
    require_complete,
    result_to_json,
)

#: Minimum seconds between two progress messages for one shard.
PROGRESS_INTERVAL = 0.2

#: Per-shard framing kinds excluded from the telemetry fragment: their
#: counts scale with the shard plan (one per ``run_shard`` call), not
#: with the campaign's content, and would break the byte-identity of
#: the merged telemetry across worker counts.
FRAMING_KINDS = ("campaign_start", "campaign_end")


def _shard_capture() -> Capture:
    """The per-attempt telemetry fragment collector.

    Activity/FSM stay off — a fault campaign drives the gate engine
    directly — but the event stream is on, so per-fault events become
    deterministic event-kind counts in the merged campaign view.
    """
    return Capture(activity=False, fsm=False, events=True, profile=False)


def _fragment(capture: Capture) -> dict:
    """The shard's telemetry fragment: ``as_dict`` minus shard framing."""
    fragment = capture.as_dict()
    events = fragment.get("events") or {}
    fragment["events"] = {kind: count for kind, count in events.items()
                          if kind not in FRAMING_KINDS}
    return fragment


def _run_campaign_shard(campaign, start: int, stop: int,
                        deadline: Optional[float], capture: Capture,
                        progress: Optional[Callable[[int, int], None]]):
    watchdog = None
    if deadline is not None:
        watchdog = Watchdog(max_seconds=deadline, check_every=4)
    campaign.watchdog = watchdog
    campaign.obs = capture
    campaign.progress = progress
    try:
        report = campaign.run_shard(start, stop)
    finally:
        campaign.obs = None
        campaign.progress = None
    require_complete(report, deadline, watchdog)
    detected = report.detected()
    metrics = capture.metrics
    metrics.counter("campaign/representatives").inc(len(report.results))
    metrics.counter("campaign/detected").inc(len(detected))
    metrics.counter("campaign/detected_weight").inc(
        sum(r.class_size for r in detected))
    return [result_to_json(r) for r in report.results]


def _run_sweep_shard(job: SweepJob, netlist, start: int, stop: int,
                     deadline: Optional[float], capture: Capture,
                     progress: Optional[Callable[[int, int], None]]):
    watchdog = Watchdog(max_seconds=deadline).start() \
        if deadline is not None else None
    results = []
    total = stop - start
    for index in range(start, stop):
        if watchdog is not None and watchdog.expired():
            from ..core.errors import WatchdogTimeout
            raise WatchdogTimeout(
                f"sweep shard exceeded its deadline ({deadline}s) after "
                f"{index - start} of {stop - start} items",
                budget="wall_clock", seconds=watchdog.elapsed(),
            )
        results.append(job.run_item(netlist, index))
        capture.event("sweep_item", item=index,
                      digest=results[-1]["digest"])
        if progress is not None:
            progress(index - start + 1, total)
    capture.metrics.counter("sweep/items").inc(len(results))
    return results


def _progress_sender(conn, shard_id: int,
                     clock: Callable[[], float] = time.monotonic
                     ) -> Callable[[int, int], None]:
    """A throttled ``fn(done, total)`` streaming progress to the parent.

    Send failures are swallowed — if the parent is gone the main loop
    notices on the reply send; progress must never fail a shard.
    """
    last = [0.0]

    def send(done: int, total: int) -> None:
        now = clock()
        if done < total and now - last[0] < PROGRESS_INTERVAL:
            return
        last[0] = now
        try:
            conn.send(("progress", shard_id, done, total))
        except (BrokenPipeError, EOFError, OSError):
            pass

    return send


def worker_main(conn, worker_id: str, job_json: dict,
                cache_dir: Optional[str], chaos_json: Optional[dict]) -> None:
    """Process target: initialize once, then serve shard commands."""
    chaos = ChaosPlan.from_json(chaos_json)
    tracer = SpanTracer(enabled=bool(job_json.get("span_context")),
                        parent=job_json.get("span_context"))
    try:
        with tracer.span("worker_init", worker=worker_id):
            job = job_from_json(job_json)
            cache = ArtifactCache(cache_dir) if cache_dir else None
            netlist = job.build_netlist(cache)
            campaign = None
            if isinstance(job, CampaignJob):
                campaign = job.make_campaign(netlist)
    except BaseException as exc:  # init failures are fatal, but reported
        try:
            conn.send(("init_error", worker_id, describe_error(exc)))
        except (BrokenPipeError, EOFError, OSError):
            pass
        return
    conn.send(("ready", worker_id))
    # The pid of the runner that started this worker, not ``getppid()``
    # now: a parent that died during the initialization above has
    # already handed this process to another.
    parent_pid = multiprocessing.parent_process().pid
    while True:
        try:
            # Sibling workers hold forked copies of each other's pipe
            # ends, so EOF alone cannot signal parent death: poll, and
            # exit when reparented (orphaned by a parent crash).  An
            # orphan that lingered would also hold the parent's
            # stdout/stderr open, wedging any harness capturing them.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone; nothing left to serve
        if message[0] == "stop":
            return
        _, shard_id, start, stop, attempt, deadline = message
        capture = _shard_capture()
        progress = _progress_sender(conn, shard_id)
        try:
            with tracer.span(f"shard {shard_id}", worker=worker_id,
                             shard=shard_id, attempt=attempt,
                             items=stop - start):
                chaos.before_shard(shard_id, attempt)
                if campaign is not None:
                    payload = _run_campaign_shard(
                        campaign, start, stop, deadline, capture, progress)
                else:
                    payload = _run_sweep_shard(
                        job, netlist, start, stop, deadline, capture,
                        progress)
            reply = ("done", shard_id, payload,
                     {"spans": tracer.drain(),
                      "telemetry": _fragment(capture)})
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            # The failed shard span still ships: the parent's trace
            # shows the attempt even though its telemetry is discarded.
            reply = ("error", shard_id, describe_error(exc),
                     {"spans": tracer.drain()})
        try:
            conn.send(reply)
        except (BrokenPipeError, EOFError, OSError):
            return
