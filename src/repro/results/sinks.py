"""Per-run trace sinks: Paraver-style ``.prv`` and JSONL exports.

The paper's evaluation is *read* through Paraver: traces captured with Extrae
are rendered as timelines (Figures 3, 5, 13).  ``run_campaign`` historically
discarded the tracers its runs produced; a :class:`TraceSink` receives the
full :class:`~repro.workload.runner.ScenarioResult` of every run it executes
and persists the trace.

Two sinks are provided:

* :class:`ParaverTraceSink` — a ``.prv``-style export in the spirit of the
  Paraver trace format: a ``#Paraver`` header (with the run's horizon from
  :class:`~repro.metrics.paraver.ParaverView`), ``1:`` state records (one per
  step per thread) and ``2:`` event records (thread-count changes from DROM
  mask updates, per-step IPC and phase).  Times are integer microseconds.
* :class:`JsonlTraceSink` — one JSON object per record, trivially loadable
  from any analysis environment; :func:`read_jsonl_trace` round-trips it back
  into a :class:`~repro.metrics.tracing.Tracer`.

Both sinks derive their file names from the run's **content key alone** (the
grid ``index`` is deliberately excluded — the same cell reached from two
campaigns is the same simulation and must map to one file), so re-exports of
the same cell overwrite instead of accumulating, and concurrent pool workers
never collide (distinct runs have distinct keys).  The index survives only as
a field of the JSONL run header.  Sinks are plain picklable dataclasses: the
campaign runner ships them into its worker pool and each worker writes its
own runs' files.

The persistent sibling of these one-shot exports is
:class:`repro.traces.store.TraceStore` — the compressed content-addressed
trace tier; ``python -m repro.traces export`` re-emits either format from a
stored cell on demand.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

from repro.campaign.spec import RunSpec
from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import MaskChangeRecord, StepRecord, Tracer
from repro.workload.runner import ScenarioResult

#: Event types of the ``.prv``-style export (the 9 200 000 range is unused by
#: the standard Extrae event tables).
EV_THREAD_COUNT = 9200001  #: team size after a DROM mask change
EV_STEP_IPC_MILLI = 9200002  #: step IPC × 1000 (``.prv`` values are integers)
EV_STEP_PHASE = 9200003  #: 1-based index into the run's phase-name table

#: Paraver state identifiers (state record field 7).
STATE_RUNNING = 1


@runtime_checkable
class TraceSink(Protocol):
    """Receives the full result of each executed campaign run."""

    def write(self, run: RunSpec, result: ScenarioResult) -> Path:
        """Persist the run's trace; returns the written file's path."""
        ...


def run_stem(run: RunSpec) -> str:
    """Deterministic per-run file stem: scenario plus content key.

    The grid ``index`` is excluded on purpose: it names a *position* in one
    campaign, not a simulation, and embedding it used to write duplicate
    files for the same cell reached from two campaigns — contradicting the
    content-addressing contract.  The scenario prefix is redundant with the
    key but keeps directories human-scannable.
    """
    return f"{run.scenario}-{run.key[:12]}"


def _us(t: float) -> int:
    return int(round(t * 1_000_000))


def prv_text(tracer: Tracer) -> str:
    """The ``.prv``-style rendering of a tracer (header + sorted records).

    A module-level function so the trace tier (``python -m repro.traces
    export``) re-emits stored cells through exactly the same code path as the
    live :class:`ParaverTraceSink` — the two outputs are byte-identical.
    """
    view = ParaverView(tracer) if len(tracer) else None
    ftime = _us(view.horizon()) if view is not None else 0

    jobs = tracer.jobs()
    appl = {job: i + 1 for i, job in enumerate(jobs)}
    nodes = sorted({step.node for step in tracer})
    cpu = {node: i + 1 for i, node in enumerate(nodes)}
    # Where each rank runs, for records that don't carry a node themselves
    # (mask changes); ranks never migrate nodes within a run.
    rank_cpu = {(step.job, step.rank): cpu[step.node] for step in tracer}
    phases = sorted({step.phase for step in tracer})
    phase_id = {name: i + 1 for i, name in enumerate(phases)}

    # Application list: one app per job, one task per rank, with the
    # maximum team size the rank ever ran with.
    appl_list = []
    for job in jobs:
        ranks = sorted({step.rank for step in tracer.steps(job)})
        threads = [
            max(step.nthreads for step in tracer.steps(job, rank)) for rank in ranks
        ]
        appl_list.append(
            f"{len(ranks)}({','.join(f'{t}:{r + 1}' for r, t in zip(ranks, threads))})"
        )
    header = (
        "#Paraver (01/01/2000 at 00:00)"
        f":{ftime}_us:{max(len(nodes), 1)}({','.join('1' for _ in nodes) or '1'})"
        f":{len(jobs)}:{':'.join(appl_list)}"
    )

    # (time, sort class, recording sequence, line): same-time records keep
    # their recording order, so re-exports are deterministic.
    records: list[tuple[int, int, int, str]] = []
    for step in tracer:
        for thread in range(step.nthreads):
            records.append(
                (
                    _us(step.start),
                    0,
                    len(records),
                    f"{STATE_RUNNING}:{cpu[step.node]}:{appl[step.job]}"
                    f":{step.rank + 1}:{thread + 1}"
                    f":{_us(step.start)}:{_us(step.end)}:{STATE_RUNNING}",
                )
            )
        records.append(
            (
                _us(step.start),
                1,
                len(records),
                f"2:{cpu[step.node]}:{appl[step.job]}:{step.rank + 1}:1"
                f":{_us(step.start)}"
                f":{EV_STEP_IPC_MILLI}:{int(round(step.ipc * 1000))}"
                f":{EV_STEP_PHASE}:{phase_id[step.phase]}",
            )
        )
    for change in tracer.mask_changes():
        job_appl = appl.get(change.job)
        if job_appl is None:
            continue  # job produced no steps; nothing to anchor the event to
        records.append(
            (
                _us(change.time),
                2,
                len(records),
                f"2:{rank_cpu.get((change.job, change.rank), 1)}"
                f":{job_appl}:{change.rank + 1}:1:{_us(change.time)}"
                f":{EV_THREAD_COUNT}:{change.new_threads}",
            )
        )
    records.sort(key=lambda r: (r[0], r[1], r[2]))

    lines = [header]
    # Phase-name table as comments, so the .prv stays self-describing
    # without a separate .pcf file.
    for name in phases:
        lines.append(f"# phase {phase_id[name]} {name}")
    lines.extend(line for _t, _c, _s, line in records)
    return "\n".join(lines) + "\n"


def pcf_text(tracer: Tracer) -> str:
    """The ``.pcf`` configuration companion of :func:`prv_text`.

    Declares the state and event-type dictionaries Paraver needs to label
    the trace; the phase VALUES table uses the same sorted-name numbering
    as the ``.prv`` event records, so the two files always agree.
    """
    phases = sorted({step.phase for step in tracer})
    lines = [
        "DEFAULT_OPTIONS",
        "",
        "LEVEL               THREAD",
        "UNITS               MICROSEC",
        "",
        "STATES",
        "0    NOT CREATED",
        "1    RUNNING",
        "",
        "EVENT_TYPE",
        f"0    {EV_THREAD_COUNT}    Thread count",
        "",
        "EVENT_TYPE",
        f"0    {EV_STEP_IPC_MILLI}    Step IPC (milli)",
        "",
        "EVENT_TYPE",
        f"0    {EV_STEP_PHASE}    Step phase",
    ]
    if phases:
        lines.append("VALUES")
        for i, name in enumerate(phases):
            lines.append(f"{i + 1}    {name}")
    return "\n".join(lines) + "\n"


def row_text(tracer: Tracer) -> str:
    """The ``.row`` axis-label companion of :func:`prv_text`.

    Names the CPU, node and thread rows with the same numbering (sorted
    nodes, job application order, rank+1 tasks) the ``.prv`` records use.
    """
    jobs = tracer.jobs()
    nodes = sorted({step.node for step in tracer})
    threads: list[str] = []
    for job in jobs:
        for rank in sorted({step.rank for step in tracer.steps(job)}):
            width = max(step.nthreads for step in tracer.steps(job, rank))
            threads.extend(
                f"{job}.{rank + 1}.{thread + 1}" for thread in range(width)
            )
    lines = [f"LEVEL CPU SIZE {max(len(nodes), 1)}"]
    lines.extend(nodes or ["node0"])
    lines.append("")
    lines.append(f"LEVEL NODE SIZE {max(len(nodes), 1)}")
    lines.extend(nodes or ["node0"])
    lines.append("")
    lines.append(f"LEVEL THREAD SIZE {max(len(threads), 1)}")
    lines.extend(threads or ["none.1.1"])
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParaverTraceSink:
    """Writes one ``.prv``-style trace file per run under ``root``, with
    its ``.pcf``/``.row`` companions so the real Paraver UI can open it.

    The ``.prv`` bytes themselves are unchanged by the companions — stored
    re-exports through :func:`prv_text` stay byte-identical to the sink's.
    """

    root: str | os.PathLike

    def write(self, run: RunSpec, result: ScenarioResult) -> Path:
        root = Path(self.root)
        root.mkdir(parents=True, exist_ok=True)
        stem = run_stem(run)
        path = root / f"{stem}.prv"
        path.write_text(prv_text(result.tracer))
        (root / f"{stem}.pcf").write_text(pcf_text(result.tracer))
        (root / f"{stem}.row").write_text(row_text(result.tracer))
        return path


def read_prv(path: str | os.PathLike) -> tuple[str, list[str], list[str]]:
    """Split a ``.prv``-style file into (header, state lines, event lines)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#Paraver"):
        raise ValueError(f"{path} is not a .prv-style trace")
    states = [line for line in lines[1:] if line.startswith("1:")]
    events = [line for line in lines[1:] if line.startswith("2:")]
    return lines[0], states, events


def jsonl_text(header: dict, tracer: Tracer, sched_records: Iterable[dict] = ()) -> str:
    """A JSONL trace: ``header``, then the tracer's step records in canonical
    order, its mask-change records and ``sched_records``, one sorted-key JSON
    object per line — the format of :class:`JsonlTraceSink` files and of
    ``python -m repro.traces export --format jsonl``."""
    records = chain(
        [header],
        (step.to_record() for step in tracer),
        (change.to_record() for change in tracer.mask_changes()),
        sched_records,
    )
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


@dataclass(frozen=True)
class JsonlTraceSink:
    """Writes one JSONL trace file per run under ``root``."""

    root: str | os.PathLike

    def write(self, run: RunSpec, result: ScenarioResult) -> Path:
        # The grid index lives only in this header field, never in the file
        # name — the same cell reached from two campaigns overwrites one file.
        header = {
            "record": "run",
            "key": run.key,
            "run_id": run.cell_id,
            "index": run.index,
            "scenario": run.scenario,
            "workload": result.workload.name,
            "end_time": result.end_time,
        }
        root = Path(self.root)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{run_stem(run)}.jsonl"
        path.write_text(jsonl_text(header, result.tracer))
        return path


def read_jsonl_trace(path: str | os.PathLike) -> tuple[dict, Tracer]:
    """Round-trip a :class:`JsonlTraceSink` file back into a tracer.

    Returns the run-header object and a :class:`Tracer` holding the step and
    mask-change records in file order.
    """
    header: dict | None = None
    tracer = Tracer()
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        kind = record.get("record")
        if kind == "run":
            header = {k: v for k, v in record.items() if k != "record"}
        elif kind == "step":
            tracer.record_step(StepRecord.from_record(record))
        elif kind == "mask_change":
            tracer.record_mask_change(MaskChangeRecord.from_record(record))
        else:
            raise ValueError(f"unknown record type {kind!r} in {path}")
    if header is None:
        raise ValueError(f"{path} has no run header record")
    return header, tracer
