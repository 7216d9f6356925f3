"""slurmd — the per-node daemon.

slurmd owns the node-local pieces: the DLB shared memory segment, an attached
DROM administrator, and the DROM-enabled task/affinity plugin.  When srun asks
it to launch a job step it runs the plugin's ``launch_request`` (computing the
masks of new *and* running tasks), forks a :class:`Slurmstepd` for the step,
and later drives ``post_term`` / ``release_resources`` when tasks and jobs
finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.drom import DromAdmin, attach_admin
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.distribution import DistributionPolicy
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology
from repro.slurm.jobs import Job
from repro.slurm.slurmstepd import Slurmstepd, TaskLaunch
from repro.slurm.task_affinity import LaunchPlan, TaskAffinityPlugin


@dataclass
class StepRecord:
    """A job step hosted by this node."""

    job_id: int
    stepd: Slurmstepd
    plan: LaunchPlan
    launches: list[TaskLaunch]


class Slurmd:
    """Node daemon: one instance per compute node.

    Parameters
    ----------
    topology:
        The node managed by this daemon.
    drom_enabled:
        Whether the DROM integration is active (False reproduces the stock
        SLURM Serial baseline).
    policy:
        Mask-distribution policy for co-allocated jobs.
    """

    def __init__(
        self,
        topology: NodeTopology,
        drom_enabled: bool = True,
        policy: DistributionPolicy | None = None,
    ) -> None:
        self.topology = topology
        self.name = topology.name
        self.shmem = NodeSharedMemory(topology)
        self.admin: DromAdmin = attach_admin(self.shmem)
        self.plugin = TaskAffinityPlugin(
            topology, self.admin, policy=policy, drom_enabled=drom_enabled
        )
        self.drom_enabled = drom_enabled
        self._steps: dict[int, StepRecord] = {}

    # -- job step launch -----------------------------------------------------------

    def launch_job_step(
        self,
        job: Job,
        first_global_rank: int,
        ntasks: int | None = None,
        base_environ: dict[str, str] | None = None,
        *,
        pids: Iterator[int],
    ) -> StepRecord:
        """Launch the local tasks of ``job`` on this node (Figure 2 flow).

        ``ntasks`` is the task count of this node's step; it defaults to the
        spec's nominal ``tasks_per_node`` but srun passes the count implied by
        the actual allocation (shrunk/widened jobs place more/fewer tasks per
        node than requested).  ``pids`` is the run's pid source (owned by
        :class:`~repro.slurm.launcher.Srun`), one pid per launched task.
        """
        if job.job_id in self._steps:
            raise ValueError(f"job {job.job_id} already has a step on node {self.name}")
        plan = self.plugin.launch_request(
            job_id=job.job_id,
            ntasks=ntasks if ntasks is not None else job.spec.tasks_per_node,
            cpus_per_task=job.spec.cpus_per_task,
            malleable=job.spec.malleable,
        )
        stepd = Slurmstepd(job.job_id, self.name, self.plugin, pids, base_environ)
        launches = stepd.launch_tasks(
            [placement.mask for placement in plan.new_tasks],
            first_global_rank=first_global_rank,
        )
        record = StepRecord(job_id=job.job_id, stepd=stepd, plan=plan, launches=launches)
        self._steps[job.job_id] = record
        return record

    def step(self, job_id: int) -> StepRecord:
        return self._steps[job_id]

    def has_step(self, job_id: int) -> bool:
        return job_id in self._steps

    def running_job_ids(self) -> list[int]:
        return list(self._steps.keys())

    # -- job completion ---------------------------------------------------------------

    def job_step_completed(self, job_id: int) -> dict[int, CpuSet]:
        """Handle the end of a job's step on this node.

        Runs ``post_term`` for every task and then ``release_resources``,
        which may expand the masks of the remaining jobs.  Returns the new
        per-pid masks of expanded tasks (empty when nothing expands).
        """
        record = self._steps.get(job_id)
        if record is None:
            return {}
        record.stepd.step_terminated()
        del self._steps[job_id]
        return self.plugin.release_resources(job_id)

    # -- node state ----------------------------------------------------------------------

    def used_cpus(self) -> int:
        return self.plugin.used_mask().count()

    def free_cpus(self) -> int:
        return self.plugin.free_mask().count()

    def running_tasks(self) -> int:
        return sum(len(record.launches) for record in self._steps.values())
