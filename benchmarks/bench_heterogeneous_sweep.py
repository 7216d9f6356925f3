"""Heterogeneous sweep — mixed-size workloads over backfill × node policies.

The paper's evaluation keeps every job at the full two-node partition; this
benchmark exercises the per-job :class:`~repro.workload.workloads.ResourceRequest`
plumbing at campaign scale: heavy-tailed job sizes (1–4 nodes) with bursty
arrivals on an 8-node partition, swept over the controller's backfill and
node-selection axes.  Determinism is asserted the same way as the uniform
sweep: the pooled execution must reproduce the in-process one byte for byte,
and a warm store re-run must simulate nothing.
"""

from __future__ import annotations

import os

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    SchedulerRef,
    SyntheticWorkloadRef,
    run_campaign,
)
from repro.results.store import ResultStore
from repro.workload.generator import BURSTY, WorkloadSpec, heavy_tailed_size_mix
from repro.workload.runner import DROM, SERIAL

#: Mixed-size family: most jobs are 1-node, a few span the whole 8-node
#: partition, arriving in bursts of four — the contention pattern backfill
#: and victim selection exist for.
HETERO_WORKLOADS = WorkloadSpec(
    njobs=8,
    arrival=BURSTY,
    burst_size=4,
    mean_interarrival=60.0,
    size_mix=heavy_tailed_size_mix(8),
    work_scale=0.05,
    iterations=16,
    name="hetero",
)


def build_spec() -> CampaignSpec:
    return CampaignSpec(
        name="heterogeneous-sweep",
        workloads=tuple(
            SyntheticWorkloadRef(spec=HETERO_WORKLOADS, seed=seed)
            for seed in range(3)
        ),
        scenarios=(SERIAL, DROM),
        clusters=(ClusterRef(nnodes=8, kind="uniform"),),
        schedulers=tuple(
            SchedulerRef(backfill=backfill, node_policy=node_policy)
            for backfill in (False, True)
            for node_policy in (None, "least-allocated")
        ),
    )


def test_heterogeneous_sweep(benchmark, report):
    spec = build_spec()
    workers = min(4, os.cpu_count() or 1)
    pooled = benchmark(run_campaign, spec, workers=workers)
    serial = run_campaign(spec, workers=1)
    assert spec.nruns == 24
    # Determinism: heterogeneous requests don't break the pool contract.
    assert pooled.rows == serial.rows
    assert pooled.to_table() == serial.to_table()

    # Backfill must never leave jobs waiting longer on average: with
    # heavy-tailed sizes a wide job regularly blocks the queue while small
    # jobs could run on the leftover nodes.
    def mean_wait(backfill: bool) -> float:
        waits = [
            value
            for row in pooled.rows
            if row.run.scheduler.backfill is backfill
            for _job, value in row.wait_times
        ]
        return sum(waits) / len(waits)

    fcfs_wait, backfill_wait = mean_wait(False), mean_wait(True)
    assert backfill_wait < fcfs_wait

    text = (
        f"{spec.nruns} runs on {workers} workers "
        f"(identical to the 1-worker execution):\n"
        f"  mean job wait, FCFS:     {fcfs_wait:8.1f} s\n"
        f"  mean job wait, backfill: {backfill_wait:8.1f} s\n\n"
        + pooled.to_table()
    )
    report("heterogeneous_sweep", text)


def test_heterogeneous_sweep_store_roundtrip(tmp_path, report):
    """Warm-store re-run of the mixed-size grid must simulate nothing."""
    spec = build_spec()
    store = ResultStore(tmp_path / "store")
    cold = run_campaign(spec, workers=1, store=store)
    warm = run_campaign(spec, workers=1, store=store)
    assert cold.executed == spec.nruns and cold.cache_hits == 0
    assert warm.executed == 0 and warm.cache_hits == spec.nruns
    assert warm.rows == cold.rows
    report(
        "heterogeneous_sweep_store",
        f"{spec.nruns}-run heterogeneous grid: warm re-run simulated "
        f"{warm.executed}, served {warm.cache_hits} from cache, "
        f"aggregates byte-identical: {warm.rows == cold.rows}",
    )
