"""``python -m repro.traces`` — inspect and maintain a trace store.

Subcommands::

    ls     [--store ROOT]                         list stored traces
    show   KEY [--store ROOT] [--bin-seconds S] [--sched]
                                                  one trace's timelines (or,
                                                  with --sched, its scheduler
                                                  lifecycle/fairness view)
    export KEY [--store ROOT] [--format prv|jsonl] [--out DIR]
    gc     [--store ROOT] [filters] [--delete]    collect artifacts

``export`` re-emits one stored cell on demand — a ``.prv``-style trace
(through the same renderer as the live
:class:`~repro.results.sinks.ParaverTraceSink`, so the bytes match a
per-run sink export) with its ``.pcf``/``.row`` companion files so the
real Paraver UI can open it, or the JSONL record stream (the header, then
the step, mask-change and scheduler records, one sorted-key JSON object per
line), rendered from the artifact's binary step columns.  File names use the
content key alone, so re-exports overwrite instead of accumulating.
``show --head N`` and windowed queries route through the artifact's segment
table, inflating only the slices they touch.
``gc`` is a dry run unless ``--delete`` is given; unreadable or old-format
artifacts are always candidates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.tables import render_table
from repro.results.sinks import jsonl_text, pcf_text, prv_text, row_text
from repro.store import add_gc_arguments, run_gc
from repro.traces.query import TraceReader
from repro.traces.store import DEFAULT_TRACE_ROOT, TraceEntry, TraceStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traces",
        description="Inspect a content-addressed campaign trace store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=str(DEFAULT_TRACE_ROOT),
                       help=f"trace store root (default {DEFAULT_TRACE_ROOT})")

    ls = sub.add_parser("ls", help="list stored traces")
    add_store(ls)
    ls.add_argument("--limit", type=int, default=None, metavar="N",
                    help="print at most N rows")
    ls.add_argument("--prefix", default=None,
                    help="only list keys starting with this hex prefix")

    show = sub.add_parser("show", help="show one trace's timelines")
    show.add_argument("key", help="content key (an unambiguous prefix is enough)")
    add_store(show)
    show.add_argument("--bin-seconds", type=float, default=100.0,
                      help="timeline bin width in seconds (default 100)")
    show.add_argument("--head", type=int, default=None, metavar="N",
                      help="print the first N step records instead of the "
                           "timelines (inflates only the leading segments)")
    show.add_argument("--sched", action="store_true",
                      help="print the scheduler timeline instead: job "
                           "lifecycle table, fairness summary and queue "
                           "depth (inflates only the sched member)")

    export = sub.add_parser("export", help="re-emit one stored trace")
    export.add_argument("key", help="content key (an unambiguous prefix is enough)")
    add_store(export)
    export.add_argument("--format", choices=("prv", "jsonl"), default="prv",
                        help="output format (default prv)")
    export.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default current directory)")

    gc = sub.add_parser("gc", help="collect artifacts (dry run without --delete)")
    add_store(gc)
    add_gc_arguments(gc, "traces")
    return parser


def render_trace_table(
    store: TraceStore, limit: int | None = None, prefix: str | None = None
) -> str:
    """One row per stored trace, in key order.

    Served from the store's index summaries — no header (let alone body)
    inflation per artifact, so ``ls`` is O(changed) on a warm store.
    """
    summaries = store.summaries(prefix=prefix, limit=limit)
    if not summaries:
        return f"(trace store {store.root} is empty)"
    rows = [
        (
            item.key[:12],
            item.summary["scenario"],
            item.summary["workload"],
            str(item.summary["nsteps"]),
            str(item.summary["nmask_changes"]),
            f"{item.summary['end_time']:.3f}",
            f"{item.size / 1024:.1f}",
        )
        for item in summaries
    ]
    return render_table(
        ["Key", "Scenario", "Workload", "Steps", "Mask chg", "End (s)", "KiB"],
        rows,
    )


def render_trace_head(entry: TraceEntry, count: int) -> str:
    """The first ``count`` step records in canonical order — inflating only
    the leading segments of the artifact."""
    steps = entry.head_steps(count)
    if not steps:
        return "(no step records)"
    table = render_table(
        ["Job", "Rank", "Node", "Start (s)", "Dur (s)", "Thr", "IPC", "Phase"],
        [
            (
                step.job,
                str(step.rank),
                step.node,
                f"{step.start:.3f}",
                f"{step.duration:.3f}",
                str(step.nthreads),
                f"{step.ipc:.3f}",
                step.phase,
            )
            for step in steps
        ],
    )
    return (
        table
        + f"\n({len(steps)} of {entry.header.get('nsteps', '?')} step record(s); "
        f"{entry.segments_inflated} of {len(entry.segments)} segment(s) inflated)"
    )


def render_trace_sched(entry: TraceEntry) -> str:
    """The scheduler timeline of one trace: lifecycle table, fairness
    summary and queue-depth series — served entirely from the artifact's
    ``sched`` member (zero simulation, no step segment inflates)."""
    timeline = entry.sched
    if not len(timeline):
        return "(no scheduler records in this artifact)"
    lines = [
        render_table(
            ["Job", "Submit (s)", "Start (s)", "End (s)", "Wait (s)",
             "Nodes", "Granted", "Co-alloc", "Slowdown"],
            [
                (
                    row.job,
                    f"{row.submit_time:.3f}",
                    f"{row.start_time:.3f}" if row.start_time is not None else "-",
                    f"{row.end_time:.3f}" if row.end_time is not None else "-",
                    f"{row.wait_time:.3f}" if row.wait_time is not None else "-",
                    str(row.requested_nodes),
                    str(row.granted_nodes),
                    "yes" if row.co_allocated else "no",
                    f"{row.bounded_slowdown:.2f}"
                    if row.bounded_slowdown is not None
                    else "-",
                )
                for row in timeline.job_lifecycle()
            ],
        ),
        "",
    ]
    fairness = timeline.fairness_summary()
    lines.append(
        f"fairness  wait p50/p95/max {fairness.p50_wait:.3f}/"
        f"{fairness.p95_wait:.3f}/{fairness.max_wait:.3f} s | "
        f"slowdown p50/p95/max {fairness.p50_slowdown:.2f}/"
        f"{fairness.p95_slowdown:.2f}/{fairness.max_slowdown:.2f}"
    )
    depths = [depth for _, depth in timeline.queue_depth_series()]
    lines.append(
        f"queue     {len(depths)} sample(s), max depth {max(depths)}"
        if depths
        else "queue     (no samples)"
    )
    end_time = float(entry.header.get("end_time", 0.0))
    lines.append(
        f"cluster   {len(timeline.node_names())} node(s), allocation "
        f"utilization {timeline.utilization(end_time):.3f} over "
        f"{end_time:.3f} s"
    )
    return "\n".join(lines)


def render_trace(entry: TraceEntry, bin_seconds: float) -> str:
    """Header summary plus the per-job width timeline of one trace."""
    reader = TraceReader(entry)
    lines = [
        f"key       {entry.key}",
        f"run       {entry.header['run_id']}",
        f"scenario  {entry.header['scenario']}",
        f"workload  {entry.header['workload']}",
        f"end time  {entry.header['end_time']:.3f} s",
        "",
    ]
    intervals = reader.job_intervals()
    if not intervals:
        lines.append("(no step records)")
        return "\n".join(lines)
    lines.append(
        render_table(
            ["Job", "First step (s)", "Last end (s)", "Mask chg"],
            [
                (
                    job,
                    f"{lo:.3f}",
                    f"{hi:.3f}",
                    str(len(reader.mask_change_sequence(job))),
                )
                for job, (lo, hi) in intervals.items()
            ],
        )
    )
    lines.append("")
    lines.append(reader.render_job_widths(bin_seconds=bin_seconds))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    store = TraceStore(args.store)
    if args.command == "ls":
        print(f"trace store {store.root}: {len(store)} trace(s)")
        print(render_trace_table(store, limit=args.limit, prefix=args.prefix))
        return 0
    if args.command in ("show", "export"):
        try:
            entry = store.load(args.key)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        if args.command == "show":
            if args.sched:
                print(render_trace_sched(entry))
            elif args.head is not None:
                print(render_trace_head(entry, args.head))
            else:
                print(render_trace(entry, args.bin_seconds))
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{entry.header['scenario']}-{entry.key[:12]}"
        if args.format == "prv":
            # Emit the Paraver triple: the .prv record stream plus the .pcf
            # event/value dictionary and .row axis labels the real Paraver
            # UI needs to open it.
            path = out / f"{stem}.prv"
            path.write_text(prv_text(entry.tracer))
            (out / f"{stem}.pcf").write_text(pcf_text(entry.tracer))
            (out / f"{stem}.row").write_text(row_text(entry.tracer))
        else:
            path = out / f"{stem}.jsonl"
            path.write_text(
                jsonl_text(entry.header, entry.tracer, entry.sched_records())
            )
        print(f"exported {entry.key[:12]} -> {path}")
        return 0
    if args.command == "gc":
        return run_gc(store, args, "trace(s)")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
