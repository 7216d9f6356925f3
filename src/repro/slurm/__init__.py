"""Simulated SLURM with the DROM-enabled task/affinity plugin (Section 5).

The controller (:class:`Slurmctld`) keeps the job queue and picks nodes; the
per-node daemon (:class:`Slurmd`) owns the DLB shared memory and the
task/affinity plugin that computes and applies CPU masks; the step daemon
(:class:`Slurmstepd`) applies masks through ``DROM_PreInit`` and finalises
tasks through ``DROM_PostFinalize``; :class:`Srun` fans a job's launch out to
its allocated nodes.
"""

from repro.slurm.jobs import Job, JobSpec, JobState
from repro.slurm.launcher import JobLaunch, Srun
from repro.slurm.policies import (
    FirstFit,
    LeastAllocatedFirst,
    LowestUtilisationFirst,
    NodeSelectionPolicy,
)
from repro.slurm.queue import JobQueue
from repro.slurm.slurmctld import NodeState, SchedulingDecision, Slurmctld
from repro.slurm.slurmd import Slurmd, StepRecord
from repro.slurm.slurmstepd import Slurmstepd, TaskLaunch
from repro.slurm.task_affinity import LaunchPlan, TaskAffinityPlugin, TaskPlacement

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "JobQueue",
    "Slurmctld",
    "NodeState",
    "SchedulingDecision",
    "Slurmd",
    "StepRecord",
    "Slurmstepd",
    "TaskLaunch",
    "Srun",
    "JobLaunch",
    "TaskAffinityPlugin",
    "TaskPlacement",
    "LaunchPlan",
    "NodeSelectionPolicy",
    "FirstFit",
    "LeastAllocatedFirst",
    "LowestUtilisationFirst",
]
