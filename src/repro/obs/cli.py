"""``python -m repro.obs`` — reports, live tails and capture diffs.

Usage::

    python -m repro.obs report CAPTURE [--json] [--top N]
    python -m repro.obs tail   CAPTURE [--interval S] [--once] [--json]
    python -m repro.obs diff   OLD NEW [--threshold PCT] [--json]

``CAPTURE`` is a directory written by :meth:`repro.obs.Capture.save`
(or by the sharded runner's ``--capture``), or a bare JSONL event
stream.

``tail`` follows a *running* campaign's journal — per-shard state,
fault throughput, ETA — and exits when the run ends.  ``diff``
compares two captures' scalar metrics and exits 1 when any change
exceeds the threshold (a regression gate for CI).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .report import (
    diff_captures,
    load_capture,
    render_diff,
    render_json,
    render_text,
)
from .tail import follow, render_tail


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        data = load_capture(args.capture)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(render_json(data, top=args.top))
        else:
            print(render_text(data, top=args.top))
        sys.stdout.flush()
    except BrokenPipeError:
        # Reader (head, less) closed the pipe: not an error.
        sys.stderr.close()
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    try:
        state = follow(args.capture, interval=args.interval,
                       once=args.once, timeout=args.timeout)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    if args.json:
        print(json.dumps(state.snapshot(), indent=2, default=str))
    if state.finished and state.complete is False:
        return 2  # run ended but shards were abandoned
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        old = load_capture(args.old)
        new = load_capture(args.new)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diff = diff_captures(old, new, threshold=args.threshold / 100.0)
    if args.json:
        print(json.dumps(diff, indent=2, default=str))
    else:
        print(render_diff(diff))
    return 1 if diff["flagged"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports, live campaign tails and "
                    "capture diffs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="render the report of a captured run")
    report.add_argument("capture",
                        help="capture directory (Capture.save / runner "
                             "--capture) or a bare JSONL event stream")
    report.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows in the toggle / hot-block tables")
    report.set_defaults(func=_cmd_report)

    tail = commands.add_parser(
        "tail", help="follow a running campaign's journal live")
    tail.add_argument("capture",
                      help="runner capture directory (containing "
                           "journal.jsonl) or the journal file itself")
    tail.add_argument("--interval", type=float, default=0.5, metavar="S",
                      help="refresh period in seconds (default 0.5)")
    tail.add_argument("--once", action="store_true",
                      help="render one snapshot and exit")
    tail.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="stop following after S seconds")
    tail.add_argument("--json", action="store_true",
                      help="print the final snapshot as JSON")
    tail.set_defaults(func=_cmd_tail)

    diff = commands.add_parser(
        "diff", help="compare two captures' metrics (regression gate)")
    diff.add_argument("old", help="baseline capture directory")
    diff.add_argument("new", help="candidate capture directory")
    diff.add_argument("--threshold", type=float, default=0.0, metavar="PCT",
                      help="flag relative changes beyond PCT percent "
                           "(default 0 — any change flags)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff as JSON instead of a table")
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)
