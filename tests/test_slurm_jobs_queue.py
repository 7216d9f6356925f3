"""Tests of job specs, job lifecycle and the pending-job queue."""

from __future__ import annotations

import pytest

from repro.cpuset.topology import ClusterTopology
from repro.slurm.jobs import Job, JobSpec, JobState
from repro.slurm.queue import JobQueue
from repro.slurm.slurmctld import Slurmctld


def spec(name="job", nodes=2, ntasks=2, cpt=16, priority=0, malleable=True):
    return JobSpec(
        name=name, nodes=nodes, ntasks=ntasks, cpus_per_task=cpt,
        priority=priority, malleable=malleable,
    )


class TestJobSpec:
    def test_derived_quantities(self):
        s = spec(nodes=2, ntasks=4, cpt=8)
        assert s.tasks_per_node == 2
        assert s.cpus_per_node == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(nodes=0)
        with pytest.raises(ValueError):
            spec(ntasks=0)
        with pytest.raises(ValueError):
            spec(cpt=0)
        with pytest.raises(ValueError):
            spec(nodes=2, ntasks=3)  # not divisible


class TestJobLifecycle:
    def test_timestamps_and_metrics(self):
        job = Job(spec=spec(), job_id=1)
        job.mark_submitted(10.0)
        job.mark_started(25.0, ("n0", "n1"))
        job.mark_completed(125.0)
        assert job.state is JobState.COMPLETED
        assert job.wait_time == 15.0
        assert job.run_time == 100.0
        assert job.response_time == 115.0
        assert job.allocated_nodes == ("n0", "n1")

    def test_metrics_before_completion_raise(self):
        job = Job(spec=spec(), job_id=1)
        job.mark_submitted(0.0)
        with pytest.raises(ValueError):
            _ = job.wait_time
        with pytest.raises(ValueError):
            _ = job.response_time
        job.mark_started(1.0, ("n0",))
        with pytest.raises(ValueError):
            _ = job.run_time

    def test_invalid_transitions(self):
        job = Job(spec=spec(), job_id=1)
        job.mark_submitted(0.0)
        with pytest.raises(ValueError):
            job.mark_completed(5.0)
        job.mark_started(1.0, ("n0",))
        with pytest.raises(ValueError):
            job.mark_started(2.0, ("n0",))

    def test_cancelled_is_terminal(self):
        job = Job(spec=spec(), job_id=1)
        job.mark_submitted(0.0)
        job.mark_cancelled(3.0)
        assert job.state.is_terminal()

    def test_ids_are_unique_per_controller(self):
        # The controller numbers its own jobs from 1: ids are unique within
        # a run, and a second run in the same process reuses the same ids.
        def submit_three():
            ctld = Slurmctld(ClusterTopology.marenostrum3(2))
            return [ctld.submit(spec(name=f"j{i}"), 0.0).job_id for i in range(3)]

        assert submit_three() == submit_three() == [1, 2, 3]

    def test_repr_mentions_name_and_state(self):
        job = Job(spec=spec(name="NEST"), job_id=1)
        assert "NEST" in repr(job)
        assert "PENDING" in repr(job)


class TestJobQueue:
    def make_pending(self, job_id=1, **kwargs):
        job = Job(spec=spec(**kwargs), job_id=job_id)
        job.mark_submitted(0.0)
        return job

    def test_fifo_within_same_priority(self):
        queue = JobQueue()
        first, second = self.make_pending(name="a"), self.make_pending(name="b", job_id=2)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_priority_order(self):
        queue = JobQueue()
        low = self.make_pending(name="low", priority=0)
        high = self.make_pending(name="high", priority=10, job_id=2)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high

    def test_peek_does_not_remove(self):
        queue = JobQueue()
        job = self.make_pending()
        queue.push(job)
        assert queue.peek() is job
        assert len(queue) == 1

    def test_peek_empty(self):
        assert JobQueue().peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            JobQueue().pop()

    def test_only_pending_jobs_accepted(self):
        queue = JobQueue()
        job = self.make_pending()
        job.mark_started(1.0, ("n0",))
        with pytest.raises(ValueError):
            queue.push(job)

    def test_remove_specific_job(self):
        queue = JobQueue()
        a, b = self.make_pending(name="a"), self.make_pending(name="b", job_id=2)
        queue.push(a)
        queue.push(b)
        removed = queue.remove(a.job_id)
        assert removed is a
        assert queue.remove(999) is None
        assert [j.spec.name for j in queue] == ["b"]

    def test_iteration_in_scheduling_order(self):
        queue = JobQueue()
        low = self.make_pending(name="low", priority=1)
        high = self.make_pending(name="high", priority=5, job_id=2)
        queue.push(low)
        queue.push(high)
        assert [j.spec.name for j in queue.jobs()] == ["high", "low"]
        assert bool(queue)
