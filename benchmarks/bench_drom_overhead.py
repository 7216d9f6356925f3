"""DROM mechanism overhead — running with DROM enabled but unused.

Section 6 of the paper compares the baseline SLURM and the DROM-enabled SLURM
on exclusive nodes and finds no visible overhead.  This benchmark reproduces
that check (a single NEST job run under both schedulers must take the same
simulated time) and additionally measures the real-world cost of the DROM
primitives themselves (attach, set mask, poll) so the "negligible overhead"
claim is backed by numbers.
"""

from __future__ import annotations

import pytest

from repro.core import DromFlags, NodeSharedMemory, attach_admin
from repro.core.dlb import DlbProcess
from repro.cpuset import CpuSet, NodeTopology
from repro.workload import configs
from repro.workload.runner import ScenarioRunner
from repro.workload.workloads import Workload, WorkloadJob


def run_both(workload: Workload) -> dict:
    """Serial and DROM results of a workload no declarative reference names."""
    runners = (ScenarioRunner(False), ScenarioRunner(True))
    return {runner.scenario: runner.run(workload) for runner in runners}


def test_drom_enabled_scheduler_adds_no_overhead(benchmark, report):
    workload = Workload(
        name="solo NEST Conf. 1",
        jobs=(WorkloadJob(app=configs.nest("Conf. 1"), submit_time=0.0),),
    )
    results = benchmark(run_both, workload)
    serial = results["serial"].metrics.total_run_time
    drom = results["drom"].metrics.total_run_time
    report(
        "drom_overhead_scheduler",
        f"single NEST job, baseline SLURM: {serial:.1f} s\n"
        f"single NEST job, DROM SLURM:     {drom:.1f} s\n"
        f"difference: {abs(serial - drom):.3f} s",
    )
    assert drom == pytest.approx(serial, rel=1e-9)


def test_drom_primitive_cost(benchmark):
    """Micro-benchmark of one shrink/poll/expand cycle through the API."""
    node = NodeTopology.marenostrum3()
    shmem = NodeSharedMemory(node)
    proc = DlbProcess(pid=1, shmem=shmem, mask=node.full_mask(), environ={})
    proc.init()
    admin = attach_admin(shmem)
    half = CpuSet.from_range(0, 8)
    full = node.full_mask()

    def cycle():
        admin.set_process_mask(1, half, DromFlags.STEAL)
        proc.poll_drom()
        admin.set_process_mask(1, full, DromFlags.STEAL)
        proc.poll_drom()

    benchmark(cycle)
