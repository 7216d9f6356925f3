"""Application model base: configurations, work plans and rank state.

An :class:`ApplicationModel` couples a :class:`PerformanceProfile` with a
work volume and an iteration structure.  The workload runner instantiates one
:class:`RankWorkPlan` per MPI rank; each entry of the plan is one *step* — a
quantum of work ending at a malleability point (an MPI call, an OMPT
parallel-begin, or a manual ``DLB_PollDROM``), exactly the points at which the
real integrations let DROM change the thread team.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.perfmodel import PerformanceProfile, PhaseProfile
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology


@dataclass(frozen=True)
class AppConfig:
    """One MPI×OpenMP configuration of an application (a Table 1 entry)."""

    label: str
    mpi_ranks: int
    threads_per_rank: int

    def __post_init__(self) -> None:
        if self.mpi_ranks <= 0 or self.threads_per_rank <= 0:
            raise ValueError("ranks and threads must be positive")

    @property
    def total_cpus(self) -> int:
        return self.mpi_ranks * self.threads_per_rank

    def __str__(self) -> str:
        return f"{self.label} ({self.mpi_ranks} x {self.threads_per_rank})"


@dataclass(frozen=True)
class WorkStep:
    """One quantum of work of one rank, ending at a malleability point."""

    phase: PhaseProfile
    work_units: float


@dataclass
class RankWorkPlan:
    """Mutable per-rank execution state: remaining steps plus bookkeeping."""

    rank: int
    steps: list[WorkStep]
    #: Thread-team size the application initialised with (fixes the static
    #: data partition; never changes even when the mask shrinks/expands).
    initial_threads: int
    next_step: int = 0
    completed_work: float = 0.0

    @property
    def finished(self) -> bool:
        return self.next_step >= len(self.steps)

    @property
    def remaining_steps(self) -> int:
        return len(self.steps) - self.next_step

    def current_step(self) -> WorkStep:
        if self.finished:
            raise IndexError(f"rank {self.rank} has no remaining steps")
        return self.steps[self.next_step]

    def advance(self) -> WorkStep:
        step = self.current_step()
        self.next_step += 1
        self.completed_work += step.work_units
        return step

    def advance_many(self, count: int) -> None:
        """Advance ``count`` steps in one call (the batched fast path).

        ``completed_work`` accumulates step by step, in the same order as
        ``count`` individual :meth:`advance` calls — float addition is not
        associative, so summing first would drift from the single-step path.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.next_step + count > len(self.steps):
            raise IndexError(
                f"rank {self.rank} has {self.remaining_steps} steps left, "
                f"cannot advance {count}"
            )
        completed = self.completed_work
        for step in self.steps[self.next_step : self.next_step + count]:
            completed += step.work_units
        self.completed_work = completed
        self.next_step += count


@dataclass(frozen=True)
class ApplicationModel:
    """A runnable application: performance profile + work volume + structure.

    Parameters
    ----------
    profile:
        The analytic performance model.
    total_work:
        Work of the whole application in nominal CPU-seconds, summed over all
        ranks (i.e. ``total_work / total_cpus`` seconds on perfectly scaling
        hardware).
    iterations:
        Number of main-loop iterations (= malleability points per rank).
        Earlier phases get a proportional number of steps, at least one.
    malleable:
        Whether the application polls DROM and adapts (the paper's patched
        NEST/CoreNeuron and the DLB-enabled Pils/STREAM are malleable; the
        ablation benchmarks also build non-malleable variants).
    """

    profile: PerformanceProfile
    total_work: float
    iterations: int = 200
    malleable: bool = True

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise ValueError("total_work must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")

    @property
    def name(self) -> str:
        return self.profile.name

    # -- plan construction ----------------------------------------------------------

    def steps_for_phase(self, phase: PhaseProfile) -> int:
        return max(1, round(self.iterations * phase.work_fraction))

    def build_rank_plan(self, rank: int, config: AppConfig) -> RankWorkPlan:
        """Build the per-rank step list for one configuration."""
        work_per_rank = self.total_work / config.mpi_ranks
        steps: list[WorkStep] = []
        for phase in self.profile.phases:
            nsteps = self.steps_for_phase(phase)
            phase_work = work_per_rank * phase.work_fraction
            per_step = phase_work / nsteps
            # Every step of a phase is identical, and WorkStep is immutable:
            # share one instance across the phase instead of building nsteps
            # of them (plans are rebuilt per run, so this is hot), which also
            # lets the segment scans below detect uniform runs by identity.
            steps.extend([WorkStep(phase=phase, work_units=per_step)] * nsteps)
        return RankWorkPlan(
            rank=rank, steps=steps, initial_threads=config.threads_per_rank
        )

    def build_plans(self, config: AppConfig) -> list[RankWorkPlan]:
        return [self.build_rank_plan(rank, config) for rank in range(config.mpi_ranks)]

    # -- timing ------------------------------------------------------------------------

    def step_time(
        self,
        plan: RankWorkPlan,
        mask: CpuSet,
        topology: NodeTopology,
        total_ranks: int,
        interference: float = 1.0,
    ) -> float:
        """Wall-clock duration of the rank's next step with the given mask."""
        step = plan.current_step()
        return self.profile.iteration_time(
            phase=step.phase,
            work_units=step.work_units,
            mask=mask,
            topology=topology,
            initial_threads=plan.initial_threads,
            total_ranks=total_ranks,
            interference=interference,
        )

    def step_times(
        self,
        plan: RankWorkPlan,
        count: int,
        mask: CpuSet,
        topology: NodeTopology,
        total_ranks: int,
        interference: float = 1.0,
    ) -> list[float]:
        """Durations of the plan's next ``count`` steps under a fixed mask.

        Vectorized over uniform segments: one :meth:`PerformanceProfile
        .iteration_time` evaluation per (phase, work-units) run instead of one
        per step, replicated across the run — each returned float is exactly
        what a per-step :meth:`step_time` call would have produced.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > plan.remaining_steps:
            raise IndexError(
                f"rank {plan.rank} has {plan.remaining_steps} steps left, "
                f"cannot price {count}"
            )
        steps = plan.steps
        out: list[float] = []
        i = plan.next_step
        end = i + count
        while i < end:
            head = steps[i]
            j = i + 1
            while j < end and (
                steps[j] is head
                or (steps[j].phase is head.phase and steps[j].work_units == head.work_units)
            ):
                j += 1
            duration = self.profile.iteration_time(
                phase=head.phase,
                work_units=head.work_units,
                mask=mask,
                topology=topology,
                initial_threads=plan.initial_threads,
                total_ranks=total_ranks,
                interference=interference,
            )
            out.extend([duration] * (j - i))
            i = j
        return out

    def step_ipc(
        self, plan: RankWorkPlan, mask: CpuSet, topology: NodeTopology
    ) -> float:
        """Average per-thread IPC during the rank's next step."""
        step = plan.current_step()
        return self.step_ipc_for_phase(
            step.phase, mask, topology, plan.initial_threads
        )

    def step_ipc_for_phase(
        self,
        phase: PhaseProfile,
        mask: CpuSet,
        topology: NodeTopology,
        initial_threads: int,
    ) -> float:
        """IPC of any step of ``phase`` under ``mask`` (phase-constant, so a
        batch prices it once per phase instead of once per step)."""
        return self.profile.ipc(
            phase=phase,
            mask=mask,
            topology=topology,
            initial_threads=initial_threads,
        )

    # -- reference timings ------------------------------------------------------------------

    def standalone_runtime(self, config: AppConfig, topology: NodeTopology) -> float:
        """Estimated runtime when the application owns its full request.

        Computed by walking the plan of rank 0 with its nominal mask (ranks
        are balanced, so rank 0 is representative).  Used for calibration and
        by the benchmarks to report per-application reference times.
        """
        plan = self.build_rank_plan(0, config)
        # Nominal mask: the first threads_per_rank CPUs of the node, i.e. the
        # placement the task/affinity plugin gives an uncontended rank.
        mask = CpuSet.from_range(0, min(config.threads_per_rank, topology.ncpus))
        total = 0.0
        while not plan.finished:
            total += self.step_time(plan, mask, topology, total_ranks=config.mpi_ranks)
            plan.advance()
        return total
