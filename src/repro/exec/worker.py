"""``python -m repro.exec.worker`` — self-contained cell execution.

One entry point, two modes, zero non-stdlib protocol dependencies — this is
what an :class:`~repro.exec.ssh.SSHExecutor` launches on a remote host and
what a Slurm array task runs on a compute node:

**Stream mode** (default, the SSH transport): JSONL requests on stdin, one
JSONL response per line on stdout, flushed per line so the driver can await
each result::

    {"op": "config", "store": "...", "trace_store": "..."}
    {"op": "run", "index": 3, "run": {<canonical spec contents>}}
    {"op": "shutdown"}

``config`` names the store tiers (both optional) once; every ``run``
request then executes one cell through
:func:`~repro.campaign.runner.run_cell`, the campaign's one cell body
(writing the configured store tiers locally — on a shared filesystem that
*is* the campaign's cache), and responds
``{"ok": true, "index": ..., "row": {...}}`` with the metrics row in the
store's exact serialisation, so the driver reconstructs a byte-identical
:class:`~repro.campaign.runner.RunMetrics` (it already holds the spec).  A cell that
raises responds ``{"ok": false, "index": ..., "error": "..."}`` and the
worker keeps serving — cell failures are transient, protocol failures (a
line that is not a JSON request, a non-integer ``index``, an unknown op)
are fatal: ``{"ok": false, "error": ...}`` and exit status 2.

**Batch mode** (Slurm array tasks): ``--cells FILE --index I [--offset K]``
executes line ``K + I`` of a cells file (one ``{"index", "run"}`` JSON
object per line, written by
:class:`~repro.exec.slurm.SlurmArrayExecutor.prepare`), writes the store
tiers, journals ``done``/``failed`` into ``--manifest``, and exits non-zero
on failure so Slurm's ``afterok`` dependency holds the summarize job back.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from repro.exec.base import WorkerContext

__all__ = ["main", "serve_stream", "run_batch_cell"]


def _context(store_root, trace_root) -> WorkerContext:
    """The worker's cell context: the store tiers it was configured with."""
    store = trace_store = None
    if store_root:
        from repro.results.store import ResultStore

        store = ResultStore(store_root)
    if trace_root:
        from repro.traces.store import TraceStore

        trace_store = TraceStore(trace_root)
    return WorkerContext(store=store, trace_store=trace_store)


def _execute_cell(payload: dict, index: int, context: WorkerContext):
    """Run one cell from its canonical spec contents; returns ``(run, row)``."""
    from repro.campaign.runner import run_cell
    from repro.campaign.spec import spec_from_contents

    run = spec_from_contents(payload, index=index)
    return run, run_cell(run, context)[0]


def serve_stream(stdin: TextIO, stdout: TextIO) -> int:
    """The stream-mode request loop (stdin/stdout injectable for tests)."""
    from repro.results.store import metrics_to_payload

    context = WorkerContext()

    def respond(payload: dict) -> None:
        stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        stdout.flush()

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            op = request["op"]
            index = int(request.get("index", 0))
        except (ValueError, KeyError, TypeError):
            respond({"ok": False, "error": f"malformed request line: {line[:200]!r}"})
            return 2
        if op == "config":
            try:
                context = _context(request.get("store"), request.get("trace_store"))
            except Exception as exc:
                respond({"ok": False, "op": "config", "error": f"{type(exc).__name__}: {exc}"})
                return 2
            respond({"ok": True, "op": "config"})
        elif op == "run":
            try:
                _run, row = _execute_cell(request["run"], index, context)
            except Exception as exc:  # cell failure: report, keep serving
                respond(
                    {
                        "ok": False,
                        "index": index,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            else:
                respond({"ok": True, "index": index, "row": metrics_to_payload(row)})
        elif op == "shutdown":
            respond({"ok": True, "op": "shutdown"})
            return 0
        else:
            respond({"ok": False, "error": f"unknown op {op!r}"})
            return 2
    return 0


def run_batch_cell(args: argparse.Namespace) -> int:
    """Batch mode: execute one line of a cells file (a Slurm array task)."""
    from repro.exec.manifest import DONE, FAILED, CampaignManifest

    with open(args.cells, encoding="utf-8") as stream:
        cells = [json.loads(line) for line in stream if line.strip()]
    position = args.offset + args.index
    if not 0 <= position < len(cells):
        print(
            f"cell position {position} (offset {args.offset} + index "
            f"{args.index}) is outside the {len(cells)}-cell file",
            file=sys.stderr,
        )
        return 2
    cell = cells[position]
    context = _context(args.store, args.trace_store)
    manifest = CampaignManifest(args.manifest) if args.manifest else None
    index = int(cell.get("index", position))
    try:
        run, row = _execute_cell(cell["run"], index, context)
    except Exception as exc:
        if manifest is not None:
            manifest.record(
                cell.get("key", f"cell-{position}"),
                FAILED,
                index=index,
                executor=f"slurm[{position}]",
                error=f"{type(exc).__name__}: {exc}",
            )
        print(f"cell {index:04d} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if manifest is not None:
        manifest.record(run.key, DONE, index=index, executor=f"slurm[{position}]")
    print(
        json.dumps(
            {"ok": True, "index": index, "key": run.key, "run_id": run.run_id},
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker",
        description=(
            "Self-contained campaign-cell worker: JSONL stream protocol on "
            "stdin/stdout (default), or one cell of a cells file in batch "
            "mode (--cells)."
        ),
    )
    parser.add_argument("--cells", default=None, metavar="FILE",
                        help="batch mode: JSONL cells file written by the "
                             "Slurm executor")
    parser.add_argument("--index", type=int, default=0, metavar="I",
                        help="batch mode: array task index within the chunk")
    parser.add_argument("--offset", type=int, default=0, metavar="K",
                        help="batch mode: chunk offset into the cells file")
    parser.add_argument("--store", default=None, metavar="ROOT",
                        help="batch mode: metrics-tier store root to write")
    parser.add_argument("--trace-store", default=None, metavar="ROOT",
                        help="batch mode: trace-tier store root to write")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="batch mode: campaign manifest to journal "
                             "done/failed into")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cells is not None:
        return run_batch_cell(args)
    return serve_stream(sys.stdin, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
