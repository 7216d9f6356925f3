"""Campaign sweep — a parallel many-scenario study beyond the paper's setup.

The paper evaluates DROM with a handful of hand-written two-job workloads on
two MN3 nodes.  This benchmark exercises the campaign subsystem at the scale
the ROADMAP asks for: 20 runs (5 seeded synthetic workloads × Serial/DROM ×
two cluster shapes, including a 4-node MN3 partition and a 6-node generic
one), executed through a ``multiprocessing`` worker pool, with a determinism
check that the pooled execution reproduces the serial one byte for byte —
and a warm/cold round trip through the content-addressed result store: the
second sweep must simulate nothing and aggregate byte-identically.
"""

from __future__ import annotations

import os

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    SyntheticWorkloadRef,
    run_campaign,
)
from repro.obs.telemetry import Telemetry
from repro.results.store import ResultStore
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

#: Generator family: 3-job workloads with Poisson arrivals, scaled down so a
#: 20-run sweep stays benchmark-sized.
SWEEP_WORKLOADS = WorkloadSpec(
    njobs=3,
    mean_interarrival=90.0,
    work_scale=0.05,
    iterations=20,
    name="sweep",
)


def build_spec() -> CampaignSpec:
    return CampaignSpec(
        name="campaign-sweep",
        workloads=tuple(
            SyntheticWorkloadRef(spec=SWEEP_WORKLOADS, seed=seed) for seed in range(5)
        ),
        scenarios=(SERIAL, DROM),
        clusters=(
            ClusterRef(nnodes=4, kind="mn3"),
            ClusterRef(nnodes=6, kind="uniform"),
        ),
    )


def test_campaign_sweep(benchmark, report):
    spec = build_spec()
    workers = min(4, os.cpu_count() or 1)
    # Only the pooled sweep is timed; the serial baseline runs once, outside
    # the timed region, purely for the determinism check below.
    pooled = benchmark(run_campaign, spec, workers=workers)
    serial = run_campaign(spec, workers=1)
    assert spec.nruns >= 20
    assert max(c.nnodes for c in spec.clusters) >= 4
    # Determinism: the pooled execution reproduces the in-process one exactly.
    assert pooled.rows == serial.rows
    assert pooled.to_table() == serial.to_table()

    text = (
        f"{spec.nruns} runs on {workers} workers "
        f"(identical to the 1-worker execution):\n\n" + pooled.to_table()
    )
    report("campaign_sweep", text)


def test_campaign_sweep_store_roundtrip(tmp_path, report):
    """Cold vs warm sweep through the result store (ROADMAP: result caching).

    The cold run simulates the whole 20-run grid and populates the store; the
    warm re-run must perform **zero** simulations and still aggregate
    byte-identical metrics.  Reported: the warm/cold wall-clock ratio.
    """
    spec = build_spec()
    store = ResultStore(tmp_path / "store")

    # Both sweeps are timed on the shared telemetry clock/schema: the
    # campaign root span's duration *is* the wall-clock (no private
    # perf_counter bookkeeping).
    cold_obs, warm_obs = Telemetry(), Telemetry()
    cold = run_campaign(spec, workers=1, store=store, telemetry=cold_obs)
    warm = run_campaign(spec, workers=1, store=store, telemetry=warm_obs)
    cold_s = cold_obs.roots[0].duration
    warm_s = warm_obs.roots[0].duration

    assert cold.executed == spec.nruns and cold.cache_hits == 0
    assert warm.executed == 0 and warm.cache_hits == spec.nruns
    # The per-tier breakdown agrees with the aggregate accounting.
    assert warm.metrics_hits == spec.nruns and warm.backfilled == 0
    assert len(store) == spec.nruns
    # Byte-identical aggregation from cache.
    assert warm.rows == cold.rows
    assert warm.to_table() == cold.to_table()

    ratio = warm_s / cold_s if cold_s > 0 else float("nan")
    text = (
        f"{spec.nruns}-run grid, content-addressed store at a fresh root:\n"
        f"  cold sweep (all simulated): {cold_s:8.3f} s\n"
        f"  warm sweep (all cached):    {warm_s:8.3f} s\n"
        f"  warm/cold wall-clock ratio: {ratio:8.4f} "
        f"({1 / ratio:.0f}x speed-up)\n"
        f"  warm run simulations: {warm.executed} (cache hits: {warm.cache_hits})\n"
        f"  warm run {warm.tier_summary()}\n"
        f"  aggregated tables byte-identical: "
        f"{warm.to_table() == cold.to_table()}"
    )
    report("campaign_sweep_store", text)


def test_campaign_shard_merge_roundtrip(tmp_path, report):
    """Distributed execution path (ROADMAP: campaign sharding).

    ``CampaignSpec.shard(n)`` deals the workload axis into balanced shard
    campaigns; each shard runs against its own store (as it would on its own
    host), the shard stores are merged, and a fully-warm run of the *full*
    campaign must simulate nothing and reproduce the single-host execution
    byte for byte.
    """
    spec = build_spec()
    shards = spec.shard(2)
    assert len(shards) == 2
    assert sum(s.nruns for s in shards) == spec.nruns
    # Balanced: the 5 workloads split 3/2.
    assert {len(s.workloads) for s in shards} == {2, 3}

    shard_stores = []
    for i, shard in enumerate(shards):
        store = ResultStore(tmp_path / f"shard-{i}")
        run_campaign(shard, workers=1, store=store)
        shard_stores.append(store)

    merged = ResultStore(tmp_path / "merged")
    copied = sum(merged.merge(store) for store in shard_stores)
    assert copied == spec.nruns == len(merged)

    warm = run_campaign(spec, workers=1, store=merged)
    direct = run_campaign(spec, workers=1)
    assert warm.executed == 0 and warm.cache_hits == spec.nruns
    assert warm.rows == direct.rows
    assert warm.to_table() == direct.to_table()

    text = (
        f"{spec.nruns}-run grid dealt over {len(shards)} shard campaigns "
        f"({' + '.join(str(s.nruns) for s in shards)} runs), merged "
        f"{copied} cells, full-campaign warm run simulated {warm.executed} "
        f"and matched the single-host execution byte for byte."
    )
    report("campaign_shard_merge", text)
