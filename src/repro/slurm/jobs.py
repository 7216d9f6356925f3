"""Job descriptions and lifecycle state.

A *job* is what a user submits: a request for a number of nodes, a number of
tasks (MPI ranks) and CPUs per task, plus the application to run.  The states
and timestamps tracked here are what the paper's system metrics are computed
from: response time = (start - submit) + run time, total workload run time =
last job end - first job submission.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from functools import cached_property
from typing import Any, Optional


@dataclass(frozen=True)
class ResourceRequest:
    """Per-job resource ask, as slurmctld sees it.

    This is the single home of the request invariants (positive counts,
    ntasks divisibility, bound ordering): :class:`JobSpec` validates by
    building its :attr:`JobSpec.request`, and the workload layer attaches
    instances directly to its jobs.

    Parameters
    ----------
    nodes:
        Number of nodes the job requests.
    ntasks:
        Total MPI ranks, distributed block-wise over the granted nodes; must
        be divisible by ``nodes``.
    cpus_per_task:
        CPUs (threads) requested per rank.
    min_nodes / max_nodes:
        Optional malleability bounds.  A malleable job with ``min_nodes <
        nodes`` accepts a shrunk placement on fewer nodes when the full
        request does not fit; one with ``max_nodes > nodes`` may be granted
        extra free nodes (spreading its ranks wider so DROM can expand their
        masks further).  ``None`` pins the bound to ``nodes``.  The bounds
        are honoured only for malleable jobs — rigid jobs are always placed
        at exactly ``nodes``.
    """

    nodes: int
    ntasks: int
    cpus_per_task: int
    min_nodes: Optional[int] = None
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError("a job must request at least one node")
        if self.ntasks <= 0:
            raise ValueError("a job must have at least one task")
        if self.cpus_per_task <= 0:
            raise ValueError("cpus_per_task must be positive")
        if self.ntasks % self.nodes != 0:
            raise ValueError(
                "ntasks must be divisible by nodes (block distribution of ranks)"
            )
        if self.min_nodes is not None and not 1 <= self.min_nodes <= self.nodes:
            raise ValueError("min_nodes must be in [1, nodes]")
        if self.max_nodes is not None and self.max_nodes < self.nodes:
            raise ValueError("max_nodes must be >= nodes")

    @classmethod
    def for_app(
        cls,
        app,
        nodes: int,
        min_nodes: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> "ResourceRequest":
        """The request an app configuration implies on ``nodes`` nodes.

        ``nodes`` is deliberately required: the paper's two-node default is a
        workload-layer concept (``repro.workload.configs.EVALUATION_NODES``),
        and importing it here would point the substrate back up the stack —
        :meth:`WorkloadJob.resource_request` owns the defaulting.
        """
        return cls(
            nodes=nodes,
            ntasks=app.config.mpi_ranks,
            cpus_per_task=app.config.threads_per_rank,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
        )

    @property
    def tasks_per_node(self) -> int:
        return self.ntasks // self.nodes

    @property
    def cpus_per_node(self) -> int:
        """CPUs the job requests on each node."""
        return self.tasks_per_node * self.cpus_per_task

    @property
    def effective_min_nodes(self) -> int:
        return self.min_nodes if self.min_nodes is not None else self.nodes

    @property
    def effective_max_nodes(self) -> int:
        return self.max_nodes if self.max_nodes is not None else self.nodes

    def tasks_on(self, nnodes: int) -> int:
        """Tasks per node when the job runs on ``nnodes`` nodes."""
        if nnodes <= 0 or self.ntasks % nnodes != 0:
            raise ValueError(
                f"{self.ntasks} tasks cannot be distributed evenly "
                f"over {nnodes} node(s)"
            )
        return self.ntasks // nnodes

    def cpus_per_node_on(self, nnodes: int) -> int:
        """CPUs requested on each node when running on ``nnodes`` nodes."""
        return self.tasks_on(nnodes) * self.cpus_per_task

    def placement_candidates(self, expand: bool = True) -> list[int]:
        """Node counts the job accepts, preferred (widest) first.

        Only counts that divide ``ntasks`` evenly are usable (block
        distribution).  ``expand=False`` caps the list at the requested
        ``nodes`` — used for shared (co-allocated) placement, where grabbing
        extra nodes would be antisocial.
        """
        top = self.effective_max_nodes if expand else self.nodes
        return [
            n
            for n in range(top, self.effective_min_nodes - 1, -1)
            if self.ntasks % n == 0
        ]

    def effective_config(self, config):
        """The app configuration this request actually runs: the model builds
        one rank plan per requested task, so a request that deviates from the
        Table-1 shape re-partitions the same total work over its own ranks."""
        if (
            config.mpi_ranks == self.ntasks
            and config.threads_per_rank == self.cpus_per_task
        ):
            return config
        from repro.apps.base import AppConfig

        return AppConfig(
            label=config.label,
            mpi_ranks=self.ntasks,
            threads_per_rank=self.cpus_per_task,
        )


class JobState(Enum):
    """SLURM-like job lifecycle."""

    PENDING = auto()
    CONFIGURING = auto()
    RUNNING = auto()
    COMPLETED = auto()
    CANCELLED = auto()
    FAILED = auto()

    def is_terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.CANCELLED, JobState.FAILED)


@dataclass(frozen=True)
class JobSpec:
    """Static description of a submitted job.

    Parameters
    ----------
    name:
        Human-readable job name (e.g. ``"NEST Conf. 1"``).
    nodes:
        Number of nodes requested.
    ntasks:
        Total number of tasks (MPI ranks); they are distributed round-robin
        over the allocated nodes.
    cpus_per_task:
        CPUs requested per task (the OpenMP/OmpSs threads per rank).
    application:
        Opaque handle describing what the tasks execute — the workload runner
        stores an application-model factory here.  The SLURM layer never looks
        inside it.
    malleable:
        Whether the job registers with DLB and accepts DROM mask changes.
        Non-malleable jobs are placed only on CPUs nobody else uses.
    priority:
        Larger values are scheduled first among pending jobs (use case 2's
        high-priority job).
    min_nodes / max_nodes:
        Optional malleability bounds on the node count.  ``min_nodes <
        nodes`` lets the controller start the job shrunk onto fewer nodes
        when the full request does not fit; ``max_nodes > nodes`` lets it
        grant extra free nodes.  ``None`` pins the bound to ``nodes``
        (rigid placement, the stock-SLURM default).  The bounds are only
        honoured for malleable jobs — a non-malleable job is always placed
        at exactly ``nodes``.
    """

    name: str
    nodes: int
    ntasks: int
    cpus_per_task: int
    application: Any = None
    malleable: bool = True
    priority: int = 0
    min_nodes: Optional[int] = None
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        # Building the request runs the shared invariants (positive counts,
        # ntasks divisibility, bound ordering) — a spec is valid iff its
        # request is.
        self.request

    @cached_property
    def request(self) -> ResourceRequest:
        """This spec's resource ask — the single source of the sizing
        invariants and node-count arithmetic, shared with the workload layer.
        Cached: the scheduler consults it on every placement attempt, and the
        spec is frozen (``cached_property`` writes to ``__dict__`` directly,
        bypassing the frozen ``__setattr__``)."""
        return ResourceRequest(
            nodes=self.nodes,
            ntasks=self.ntasks,
            cpus_per_task=self.cpus_per_task,
            min_nodes=self.min_nodes,
            max_nodes=self.max_nodes,
        )

    @property
    def tasks_per_node(self) -> int:
        return self.request.tasks_per_node

    @property
    def cpus_per_node(self) -> int:
        """CPUs the job requests on each node."""
        return self.request.cpus_per_node

    def tasks_on(self, nnodes: int) -> int:
        """Tasks per node when the job runs on ``nnodes`` nodes."""
        return self.request.tasks_on(nnodes)

    def cpus_per_node_on(self, nnodes: int) -> int:
        """CPUs requested on each node when running on ``nnodes`` nodes."""
        return self.request.cpus_per_node_on(nnodes)

    def placement_candidates(self, expand: bool = True) -> list[int]:
        """Node counts the controller may place this job on, widest first:
        the malleability bounds for malleable jobs, exactly ``nodes`` for
        rigid ones (see :meth:`ResourceRequest.placement_candidates`)."""
        if not self.malleable:
            return [self.nodes]
        return self.request.placement_candidates(expand=expand)


@dataclass
class Job:
    """A submitted job with its lifecycle bookkeeping.  Its ``job_id`` comes
    from the controller it is submitted to, which counts from 1 in every run."""

    spec: JobSpec
    job_id: int
    state: JobState = JobState.PENDING
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Node names allocated to the job (set by the controller).
    allocated_nodes: tuple[str, ...] = ()
    #: Why the job is still pending (for inspection, mirrors squeue's REASON).
    pending_reason: str = ""

    # -- timestamps / metrics --------------------------------------------------

    @property
    def wait_time(self) -> float:
        """Time spent in the queue (start - submit)."""
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> float:
        """Execution time (end - start)."""
        if self.start_time is None or self.end_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.end_time - self.start_time

    @property
    def response_time(self) -> float:
        """Wait time plus run time — the paper's per-job metric."""
        if self.end_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.end_time - self.submit_time

    # -- state transitions ----------------------------------------------------------

    def mark_submitted(self, time: float) -> None:
        self.submit_time = time
        self.state = JobState.PENDING

    def mark_started(self, time: float, nodes: tuple[str, ...]) -> None:
        if self.state is not JobState.PENDING and self.state is not JobState.CONFIGURING:
            raise ValueError(f"job {self.job_id} cannot start from state {self.state.name}")
        self.start_time = time
        self.allocated_nodes = nodes
        self.state = JobState.RUNNING
        self.pending_reason = ""

    def mark_completed(self, time: float) -> None:
        if self.state is not JobState.RUNNING:
            raise ValueError(f"job {self.job_id} cannot complete from state {self.state.name}")
        self.end_time = time
        self.state = JobState.COMPLETED

    def mark_cancelled(self, time: float) -> None:
        self.end_time = time
        self.state = JobState.CANCELLED

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, name={self.spec.name!r}, state={self.state.name}, "
            f"submit={self.submit_time}, start={self.start_time}, end={self.end_time})"
        )
