"""Extrae-like execution tracing.

The paper obtains application metrics "by tracing the use cases using Extrae
and visualizing traces with Paraver".  The tracer below records one
:class:`StepRecord` per rank per execution step (the malleability-point
granularity of the simulation) plus mask-change events; Figure 5's per-thread
utilisation view, Figure 13's timelines and the counter log all derive from
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.sim.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.metrics.counters import CounterLog


class StepRecord(NamedTuple):
    """One execution step of one rank.

    A ``NamedTuple`` rather than a dataclass: the runner constructs one of
    these per rank per step on the simulation hot path, and tuple
    construction is several times cheaper than a frozen dataclass ``__init__``
    while keeping the record immutable, hashable and field-comparable.
    """

    job: str
    rank: int
    node: str
    start: float
    duration: float
    phase: str
    nthreads: int
    #: Per-thread busy fraction during the step (length == nthreads).
    thread_utilisation: tuple[float, ...]
    ipc: float
    work_units: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_record(self) -> dict:
        """JSON-able representation (the JSONL sink / export schema).

        Floats serialise via ``repr`` (shortest-round-trip exact), so a step
        survives the JSON round trip with exact float equality.
        """
        return {
            "record": "step",
            "job": self.job,
            "rank": self.rank,
            "node": self.node,
            "start": self.start,
            "duration": self.duration,
            "phase": self.phase,
            "nthreads": self.nthreads,
            "thread_utilisation": list(self.thread_utilisation),
            "ipc": self.ipc,
            "work_units": self.work_units,
        }

    @classmethod
    def from_record(cls, record: dict) -> "StepRecord":
        payload = {k: v for k, v in record.items() if k != "record"}
        payload["thread_utilisation"] = tuple(payload["thread_utilisation"])
        return cls(**payload)


class MaskChangeRecord(NamedTuple):
    """A DROM mask change observed by a rank."""

    job: str
    rank: int
    time: float
    old_threads: int
    new_threads: int

    def to_record(self) -> dict:
        """JSON-able representation (the JSONL sink / trace-store schema)."""
        return {
            "record": "mask_change",
            "job": self.job,
            "rank": self.rank,
            "time": self.time,
            "old_threads": self.old_threads,
            "new_threads": self.new_threads,
        }

    @classmethod
    def from_record(cls, record: dict) -> "MaskChangeRecord":
        return cls(**{k: v for k, v in record.items() if k != "record"})


#: Canonical presentation order of step records: by start instant, then job
#: label, then rank.  Recording order is an artifact of event interleaving —
#: a job that batches k steps appends them at its wake, a single-stepping job
#: appends one record per wake — so every view (queries, figure renderings,
#: sink and store serialisations) reads through this order instead, making
#: batched and unbatched executions of the same scenario indistinguishable.
def _step_order(step: StepRecord) -> tuple[float, str, int]:
    return (step.start, step.job, step.rank)


class Tracer:
    """Collects step and mask-change records for a whole scenario run."""

    def __init__(self, cycles_per_us: float = 2600.0) -> None:
        self._steps: list[StepRecord] = []
        #: Lazily sorted canonical view of ``_steps`` (None = dirty).
        self._ordered_steps: list[StepRecord] | None = []
        self._mask_changes: list[MaskChangeRecord] = []
        self._cycles_per_us = cycles_per_us
        self.events = EventLog()

    @property
    def cycles_per_us(self) -> float:
        """Nominal cycles/µs the counter log scales by — persisted with the
        trace so a replayed tracer derives identical counter samples."""
        return self._cycles_per_us

    # -- recording -------------------------------------------------------------

    def record_step(self, record: StepRecord) -> None:
        self._steps.append(record)
        self._ordered_steps = None

    def record_steps(self, records: Iterable[StepRecord]) -> None:
        """Append a whole batch of step records in one call.

        The batched runner hands over one list per (job, batch); the
        canonical order presented by the queries is unaffected by how the
        records were chunked.
        """
        self._steps.extend(records)
        self._ordered_steps = None

    def record_mask_change(self, record: MaskChangeRecord) -> None:
        self._mask_changes.append(record)

    # -- queries ------------------------------------------------------------------

    def _ordered(self) -> list[StepRecord]:
        if self._ordered_steps is None:
            self._ordered_steps = sorted(self._steps, key=_step_order)
        return self._ordered_steps

    def steps(self, job: str | None = None, rank: int | None = None) -> list[StepRecord]:
        out = self._ordered()
        if job is not None:
            out = [s for s in out if s.job == job]
        if rank is not None:
            out = [s for s in out if s.rank == rank]
        return list(out)

    def mask_changes(self, job: str | None = None) -> list[MaskChangeRecord]:
        if job is None:
            return list(self._mask_changes)
        return [m for m in self._mask_changes if m.job == job]

    def jobs(self) -> list[str]:
        seen: list[str] = []
        for step in self._ordered():
            if step.job not in seen:
                seen.append(step.job)
        return seen

    def span(self, job: str) -> tuple[float, float]:
        """First start and last end of a job's steps."""
        steps = self.steps(job)
        if not steps:
            raise ValueError(f"no steps recorded for job {job!r}")
        return min(s.start for s in steps), max(s.end for s in steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self._ordered())

    # -- derived views ----------------------------------------------------------------

    def thread_utilisation(self, job: str, rank: int) -> dict[int, float]:
        """Time-weighted busy fraction per thread over the rank's whole run.

        This is the quantity Figure 5 visualises: after shrinking, the threads
        that pick up the orphaned chunks stay at 1.0 while the others show
        idle gaps.
        """
        steps = self.steps(job, rank)
        if not steps:
            raise ValueError(f"no steps recorded for job {job!r} rank {rank}")
        busy: dict[int, float] = {}
        total: dict[int, float] = {}
        for step in steps:
            for thread, util in enumerate(step.thread_utilisation):
                busy[thread] = busy.get(thread, 0.0) + util * step.duration
                total[thread] = total.get(thread, 0.0) + step.duration
        return {t: busy[t] / total[t] for t in sorted(busy)}

    def counter_log(self) -> CounterLog:
        """Expand step records into per-thread counter samples (Figures 13/14)."""
        from repro.metrics.counters import CounterLog, CounterSample

        log = CounterLog()
        for step in self._ordered():
            for thread, util in enumerate(step.thread_utilisation):
                log.record(
                    CounterSample(
                        job=step.job,
                        rank=step.rank,
                        thread=thread,
                        start=step.start,
                        duration=step.duration,
                        ipc=step.ipc * util,
                        cycles_per_us=self._cycles_per_us * util,
                    )
                )
        return log

    def merge(self, other: "Tracer") -> None:
        """Absorb another tracer's records (used when scenarios are composed)."""
        self._steps.extend(other._steps)
        self._ordered_steps = None
        self._mask_changes.extend(other._mask_changes)
