"""Scheduler & cluster observability: the event-driven cluster probe.

The campaign layer (:mod:`repro.obs.telemetry`) watches the *platform* and
the tracer watches *ranks*; between them the simulated cluster itself was a
black box — nothing recorded what the controller did between ``submit`` and
``complete``.  This module adds that layer:

* :class:`ClusterProbe` — an **event-driven** observer the
  :class:`~repro.slurm.slurmctld.Slurmctld` notifies at every lifecycle
  edge (submit, placement/launch — including shrunk or widened grants —
  completion, cancellation).  Never polled: the probe's cost is O(events),
  so the batched fast path's step loop is untouched and the
  ``bench_perf_core`` speedup gate is unaffected by probes being on by
  default.
* :class:`SchedTimeline` — the three deterministic series one run yields:
  queue depth over time, per-node busy-CPU/allocation over time, and the
  per-job lifecycle table (submit → start → end).  Byte-deterministic: the
  series are pure functions of the simulation's event sequence, so batched
  and unbatched executions of the same cell produce identical timelines.
* :class:`FairnessSummary` — the ROADMAP item-4 starvation metrics (p50/
  p95/max wait, bounded-slowdown percentiles), answerable warm from a
  stored timeline with zero simulation.

Records follow the tracer's ``NamedTuple`` + ``to_record``/``from_record``
codec convention (floats survive their JSON round trip exactly via
``repr``), so the trace store persists a timeline as one more gzip member
of the artifact (format v5) alongside the step and mask members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.slurm.jobs import Job
    from repro.slurm.slurmctld import NodeState

__all__ = [
    "ClusterProbe",
    "FairnessSummary",
    "JobLifecycleRecord",
    "NodeSample",
    "QueueSample",
    "SLOWDOWN_BOUND",
    "SchedTimeline",
]

#: Floor on the run time in the bounded-slowdown denominator, in simulated
#: seconds — the standard guard that keeps very short jobs from dominating
#: the percentile (Feitelson's bounded slowdown).
SLOWDOWN_BOUND = 10.0


class QueueSample(NamedTuple):
    """Queue state after one scheduler event (event-driven, never polled)."""

    time: float
    #: Jobs waiting for a placement.
    depth: int
    #: Jobs currently running.
    running: int

    def to_record(self) -> dict:
        return {
            "record": "sched_queue",
            "time": self.time,
            "depth": self.depth,
            "running": self.running,
        }

    @classmethod
    def from_record(cls, record: dict) -> "QueueSample":
        return cls(**{k: v for k, v in record.items() if k != "record"})


class NodeSample(NamedTuple):
    """One node's controller-side allocation after an event touched it."""

    time: float
    node: str
    #: CPUs allocated to running jobs on the node at this instant.
    busy_cpus: int
    #: Jobs holding an allocation on the node.
    njobs: int
    #: The node's capacity (constant per node; kept on every sample so a
    #: utilisation query never needs the cluster topology).
    ncpus: int

    def to_record(self) -> dict:
        return {
            "record": "sched_node",
            "time": self.time,
            "node": self.node,
            "busy_cpus": self.busy_cpus,
            "njobs": self.njobs,
            "ncpus": self.ncpus,
        }

    @classmethod
    def from_record(cls, record: dict) -> "NodeSample":
        return cls(**{k: v for k, v in record.items() if k != "record"})


class JobLifecycleRecord(NamedTuple):
    """One job's submit → start → end row of the lifecycle table."""

    job: str
    submit_time: float
    start_time: Optional[float]
    end_time: Optional[float]
    #: Nodes the spec asked for.
    requested_nodes: int
    #: Nodes actually granted (0 while pending; differs from the request
    #: when a malleable job started shrunk or widened).
    granted_nodes: int
    #: True when the job was co-allocated beside running malleable jobs
    #: (the DROM placement arm).
    co_allocated: bool

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait (start - submit), or ``None`` while pending."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> Optional[float]:
        """Submit-to-end response time, or ``None`` until finished."""
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    @property
    def bounded_slowdown(self) -> Optional[float]:
        """``max(1, turnaround / max(run_time, SLOWDOWN_BOUND))``."""
        if self.start_time is None or self.end_time is None:
            return None
        run_time = self.end_time - self.start_time
        return max(1.0, self.turnaround / max(run_time, SLOWDOWN_BOUND))

    def to_record(self) -> dict:
        return {
            "record": "sched_job",
            "job": self.job,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "requested_nodes": self.requested_nodes,
            "granted_nodes": self.granted_nodes,
            "co_allocated": self.co_allocated,
        }

    @classmethod
    def from_record(cls, record: dict) -> "JobLifecycleRecord":
        return cls(**{k: v for k, v in record.items() if k != "record"})


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty) — the
    same convention as the telemetry summary's cell wall-clock block."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


@dataclass(frozen=True)
class FairnessSummary:
    """Wait and bounded-slowdown distribution of one run (or campaign).

    The starvation metrics ROADMAP item 4 gates on: a scheduler that lets a
    stream of small jobs starve a wide one shows it here as ``max_wait``
    growing with the stream length while the percentiles stay flat.
    """

    njobs: int
    #: Jobs that actually started (waits are computed over these).
    started: int
    mean_wait: float
    p50_wait: float
    p95_wait: float
    max_wait: float
    p50_slowdown: float
    p95_slowdown: float
    max_slowdown: float


def fairness_from_rows(rows: Iterable[JobLifecycleRecord]) -> FairnessSummary:
    """Aggregate lifecycle rows into a :class:`FairnessSummary` — shared by
    per-run timelines and campaign-level roll-ups over many runs' rows."""
    rows = list(rows)
    waits = sorted(r.wait_time for r in rows if r.wait_time is not None)
    slowdowns = sorted(
        r.bounded_slowdown for r in rows if r.bounded_slowdown is not None
    )
    return FairnessSummary(
        njobs=len(rows),
        started=len(waits),
        mean_wait=(sum(waits) / len(waits)) if waits else 0.0,
        p50_wait=_percentile(waits, 0.50),
        p95_wait=_percentile(waits, 0.95),
        max_wait=waits[-1] if waits else 0.0,
        p50_slowdown=_percentile(slowdowns, 0.50),
        p95_slowdown=_percentile(slowdowns, 0.95),
        max_slowdown=slowdowns[-1] if slowdowns else 0.0,
    )


@dataclass(frozen=True)
class SchedTimeline:
    """The scheduler-level observable record of one run.

    Three deterministic series (canonical order is event order for the
    samples — each is appended at a strictly non-decreasing simulated
    instant — and ``(submit, job)`` for the lifecycle table), plus the
    derived queries every consumer shares: the trace store persists the
    records, :class:`~repro.traces.query.TraceReader` re-derives the same
    answers warm, and the campaign summary aggregates the same rows.
    """

    queue: tuple[QueueSample, ...] = ()
    nodes: tuple[NodeSample, ...] = ()
    jobs: tuple[JobLifecycleRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.queue) + len(self.nodes) + len(self.jobs)

    # -- queries -----------------------------------------------------------------

    def queue_depth_series(self) -> list[tuple[float, int]]:
        """(time, pending depth) at every scheduler event."""
        return [(s.time, s.depth) for s in self.queue]

    def running_series(self) -> list[tuple[float, int]]:
        """(time, running jobs) at every scheduler event."""
        return [(s.time, s.running) for s in self.queue]

    def node_names(self) -> list[str]:
        seen: list[str] = []
        for sample in self.nodes:
            if sample.node not in seen:
                seen.append(sample.node)
        return seen

    def utilization_series(self, node: str | None = None) -> list[NodeSample]:
        """Per-node allocation samples, optionally restricted to one node."""
        if node is None:
            return list(self.nodes)
        return [s for s in self.nodes if s.node == node]

    def job_lifecycle(self) -> list[JobLifecycleRecord]:
        return list(self.jobs)

    def fairness_summary(self) -> FairnessSummary:
        return fairness_from_rows(self.jobs)

    def busy_cpu_seconds(self, end_time: float) -> float:
        """Allocated CPU-seconds integrated over the run (step function
        between samples, held to ``end_time`` after the last one)."""
        total = 0.0
        for node in self.node_names():
            samples = self.utilization_series(node)
            for sample, nxt in zip(samples, samples[1:]):
                total += sample.busy_cpus * max(0.0, nxt.time - sample.time)
            last = samples[-1]
            total += last.busy_cpus * max(0.0, end_time - last.time)
        return total

    def capacity_cpu_seconds(self, end_time: float) -> float:
        """Total CPU-seconds the sampled nodes offered over the run."""
        total = 0.0
        for node in self.node_names():
            first = self.utilization_series(node)[0]
            total += first.ncpus * max(0.0, end_time - first.time)
        return total

    def utilization(self, end_time: float) -> float:
        """Allocated / offered CPU-seconds over ``[0, end_time]``."""
        capacity = self.capacity_cpu_seconds(end_time)
        return self.busy_cpu_seconds(end_time) / capacity if capacity > 0 else 0.0

    # -- codec -------------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """The flat record stream the trace store's ``sched`` member holds:
        queue samples, then node samples, then lifecycle rows."""
        return (
            [s.to_record() for s in self.queue]
            + [s.to_record() for s in self.nodes]
            + [row.to_record() for row in self.jobs]
        )

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "SchedTimeline":
        queue: list[QueueSample] = []
        nodes: list[NodeSample] = []
        jobs: list[JobLifecycleRecord] = []
        for record in records:
            kind = record.get("record")
            if kind == "sched_queue":
                queue.append(QueueSample.from_record(record))
            elif kind == "sched_node":
                nodes.append(NodeSample.from_record(record))
            elif kind == "sched_job":
                jobs.append(JobLifecycleRecord.from_record(record))
            else:
                raise ValueError(f"unknown sched record type {kind!r}")
        return cls(queue=tuple(queue), nodes=tuple(nodes), jobs=tuple(jobs))


class ClusterProbe:
    """Event-driven scheduler observer, notified by the controller.

    The controller calls one hook per lifecycle edge; the probe maintains
    its own pending/running counters (the controller's live queue is
    mid-mutation during a scheduling pass, so reading ``len(queue)`` there
    would observe skipped-but-not-yet-requeued jobs as gone).  All state is
    O(jobs + events); nothing runs per simulation step.
    """

    def __init__(self) -> None:
        self._queue_samples: list[QueueSample] = []
        self._node_samples: list[NodeSample] = []
        #: job_id -> Job, in submit order (the lifecycle table's rows).
        self._jobs: dict[int, "Job"] = {}
        #: job_id -> (granted node count, co_allocated) captured at launch.
        self._grants: dict[int, tuple[int, bool]] = {}
        self._pending = 0
        self._running = 0

    # -- controller hooks ---------------------------------------------------------

    def _sample_queue(self, time: float) -> None:
        self._queue_samples.append(
            QueueSample(time=time, depth=self._pending, running=self._running)
        )

    def _sample_nodes(self, time: float, nodes: Iterable["NodeState"]) -> None:
        for state in nodes:
            self._node_samples.append(
                NodeSample(
                    time=time,
                    node=state.name,
                    busy_cpus=state.allocated_cpus,
                    njobs=len(state.running),
                    ncpus=state.ncpus,
                )
            )

    def job_submitted(self, job: "Job", time: float) -> None:
        self._jobs[job.job_id] = job
        self._pending += 1
        self._sample_queue(time)

    def job_started(
        self,
        job: "Job",
        time: float,
        nodes: Iterable["NodeState"],
        co_allocated: bool,
    ) -> None:
        """A placement decision committed: the job launches on ``nodes``
        (their states already reflect the new allocation — a shrunk or
        widened grant shows as the actual node count)."""
        self._pending -= 1
        self._running += 1
        self._grants[job.job_id] = (len(job.allocated_nodes), co_allocated)
        self._sample_queue(time)
        self._sample_nodes(time, nodes)

    def job_completed(
        self, job: "Job", time: float, nodes: Iterable["NodeState"]
    ) -> None:
        """The job released its allocation; ``nodes`` are the states it
        occupied, already updated (so the samples show the freed CPUs)."""
        self._running -= 1
        self._sample_queue(time)
        self._sample_nodes(time, nodes)

    def job_cancelled(self, job: "Job", time: float, was_pending: bool) -> None:
        if was_pending:
            self._pending -= 1
        self._sample_queue(time)

    # -- result ---------------------------------------------------------------------

    def timeline(self) -> SchedTimeline:
        """Freeze the observed run into its :class:`SchedTimeline`."""
        rows = []
        for job in self._jobs.values():
            granted, co_allocated = self._grants.get(job.job_id, (0, False))
            rows.append(
                JobLifecycleRecord(
                    job=job.spec.name,
                    submit_time=job.submit_time,
                    start_time=job.start_time,
                    end_time=job.end_time,
                    requested_nodes=job.spec.nodes,
                    granted_nodes=granted,
                    co_allocated=co_allocated,
                )
            )
        rows.sort(key=lambda r: (r.submit_time, r.job))
        return SchedTimeline(
            queue=tuple(self._queue_samples),
            nodes=tuple(self._node_samples),
            jobs=tuple(rows),
        )
