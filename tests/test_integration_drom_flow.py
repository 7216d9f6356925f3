"""End-to-end integration test of the full Figure-2 flow at the API level.

This walks the exact sequence of the paper's SLURM integration — job 1
running, job 2 submitted, launch_request, pre_launch/DROM_PreInit, the
running job polling and shrinking, post_term/DROM_PostFinalize and
release_resources — using the public APIs the way a resource-manager
developer would.
"""

from __future__ import annotations

import pytest

from repro.core import DlbError, DromFlags, NodeSharedMemory, attach_admin
from repro.cpuset import CpuSet, NodeTopology
from repro.runtime import ApplicationProcess, MpiCommunicator, ProcessSpec, ThreadModel
from repro.slurm import Slurmd, Srun, JobSpec, Job


class TestManualAdministratorFlow:
    """A user-written administrator process (no SLURM involved)."""

    def test_shrink_expand_cycle(self, mn3_node):
        shmem = NodeSharedMemory(mn3_node)

        # A hybrid application registers through DLB with the full node.
        app = ApplicationProcess(
            ProcessSpec(
                pid=4242,
                node=mn3_node.name,
                mpi_rank=0,
                thread_model=ThreadModel.OPENMP,
                initial_mask=mn3_node.full_mask(),
            ),
            shmem,
        )
        app.start()
        assert app.num_threads == 16

        # The administrator attaches and inspects the node.
        admin = attach_admin(shmem)
        assert admin.get_pid_list() == [4242]
        code, mask = admin.get_process_mask(4242)
        assert code is DlbError.DLB_SUCCESS and mask.count() == 16

        # Shrink the application to one socket.
        assert admin.set_process_mask(
            4242, CpuSet.from_range(0, 8), DromFlags.STEAL
        ) is DlbError.DLB_NOTED
        # The change is adopted at the next malleability point.
        assert app.num_threads == 16
        app.poll_malleability()
        assert app.num_threads == 8
        assert app.openmp.pinning() == {i: i for i in range(8)}

        # Expand back to the full node.
        admin.set_process_mask(4242, mn3_node.full_mask(), DromFlags.STEAL)
        app.enter_parallel_region()
        assert app.num_threads == 16

        app.finish()
        assert admin.get_pid_list() == []
        admin.detach()


class TestSlurmFigure2Flow:
    """The full slurmd/slurmstepd launch procedure of Figure 2."""

    def test_two_jobs_sharing_two_nodes(self, mn3_cluster):
        slurmds = {n.name: Slurmd(n, drom_enabled=True) for n in mn3_cluster.nodes}
        srun = Srun(slurmds)

        # Job 1 (the "simulation") already runs on both nodes with all CPUs.
        job1 = Job(spec=JobSpec(name="job1", nodes=2, ntasks=2, cpus_per_task=16), job_id=1)
        job1.mark_submitted(0.0)
        job1.mark_started(0.0, ("mn3-0", "mn3-1"))
        launch1 = srun.launch(job1)

        apps1 = []
        comm1 = MpiCommunicator(size=2, job_id=job1.job_id)
        for task in launch1.tasks():
            app = ApplicationProcess(
                ProcessSpec(
                    pid=task.pid,
                    node=task.node,
                    mpi_rank=task.global_rank,
                    thread_model=ThreadModel.OPENMP,
                    initial_mask=task.mask,
                ),
                slurmds[task.node].shmem,
                comm=comm1,
                environ=task.environ,
            )
            app.start()
            apps1.append(app)
        assert all(app.num_threads == 16 for app in apps1)

        # Job 2 arrives; srun launches it on the same nodes (steps 1-2.1).
        job2 = Job(spec=JobSpec(name="job2", nodes=2, ntasks=2, cpus_per_task=16), job_id=2)
        job2.mark_submitted(10.0)
        job2.mark_started(10.0, ("mn3-0", "mn3-1"))
        launch2 = srun.launch(job2)

        # New tasks got half of each node, on their own socket.
        for task in launch2.tasks():
            assert task.mask.count() == 8

        # Step 3: job 1's tasks poll DROM at their next MPI call and shrink.
        for rank_index, app in enumerate(apps1):
            comm1.rank(rank_index).barrier()
        assert all(app.num_threads == 8 for app in apps1)

        # No CPU is used by two tasks at once on either node.
        for slurmd in slurmds.values():
            assert slurmd.shmem.oversubscribed_cpus().is_empty()

        # Steps 4-5: job 2 completes; its CPUs return to job 1, which expands.
        srun.terminate(job2)
        for app in apps1:
            app.poll_malleability()
        assert all(app.num_threads == 16 for app in apps1)

        # Cleanup of job 1 leaves the nodes empty.
        for app in apps1:
            app.finish()
        srun.terminate(job1)
        for slurmd in slurmds.values():
            assert len(slurmd.shmem) == 0
            assert slurmd.free_cpus() == 16
