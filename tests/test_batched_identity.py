"""Byte-identity of the batched fast path against the single-step reference.

The tentpole guarantee of the fast-core refactor: ``ScenarioRunner`` with
``batching=True`` (the default) must produce *byte-identical* results to the
``batching=False`` reference loop — the same ``RunMetrics`` rows, the same
stored JSON in the metrics tier, and the same gzip artifact bytes in the
trace tier, across every scenario family.  ``benchmarks/bench_perf_core.py``
gates releases on the same property at sweep scale; this is the tier-1
subset: pinned families, the tie cases of the settle rule, and a generated
differential test over the synthetic scenario space.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.runner import execute_run, summarise_run
from repro.campaign.spec import (
    NODE_POLICY_NAMES,
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
)
from repro.cpuset.topology import ClusterTopology
from repro.results.store import ResultStore
from repro.runtime.process import ThreadModel
from repro.traces.store import TraceStore
from repro.workload import configs
from repro.workload.generator import (
    BURSTY,
    POISSON,
    UNIFORM,
    WorkloadSpec,
    heavy_tailed_size_mix,
)
from repro.workload.runner import DROM, SERIAL, ScenarioRunner
from repro.workload.workloads import Workload, WorkloadJob


def assert_byte_identical(run, reference, batched, root):
    """Rows, metrics-tier bytes and trace-tier bytes of two results agree."""
    # Compact campaign rows compare exactly (all floats bit-for-bit).
    row_ref = summarise_run(run, reference)
    row_fast = summarise_run(run, batched)
    assert row_ref == row_fast

    # Metrics tier: identical stored JSON bytes under the same content key.
    path_ref = ResultStore(root / "metrics-ref").put(row_ref)
    path_fast = ResultStore(root / "metrics-fast").put(row_fast)
    assert path_ref.name == path_fast.name
    assert path_ref.read_bytes() == path_fast.read_bytes()

    # Trace tier: identical gzip artifact bytes under the same content key.
    trace_ref = TraceStore(root / "traces-ref").put(run, reference)
    trace_fast = TraceStore(root / "traces-fast").put(run, batched)
    assert trace_ref.name == trace_fast.name
    assert trace_ref.read_bytes() == trace_fast.read_bytes()


#: One representative cell per scenario family (each expands to a Serial and
#: a DROM run): the paper's in-situ pair, a heterogeneous resource request,
#: the high-priority use case, co-run interference, a non-malleable ablation,
#: a multi-job synthetic draw, co-runner changes under interference and a
#: node policy that reads the statistics.
FAMILIES = {
    "insitu": dict(workload=InSituWorkloadRef()),
    "heterogeneous": dict(workload=InSituWorkloadRef(analytics_nodes=1)),
    "high-priority": dict(workload=HighPriorityWorkloadRef()),
    "interference": dict(workload=InSituWorkloadRef(), interference_factor=1.3),
    "non-malleable": dict(
        workload=InSituWorkloadRef(simulator_kwargs=(("malleable", False),))
    ),
    "synthetic": dict(
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(njobs=4, iterations=400, work_scale=0.1), seed=7
        )
    ),
    # Interference between jobs that share a node without a mask write:
    # a co-runner change alone must cut the running batches.
    "co-runners": dict(
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(
                njobs=4, mean_interarrival=30.0, work_scale=0.04, iterations=16
            ),
            seed=0,
        ),
        interference_factor=1.3,
    ),
    # The lowest-utilisation node policy reads the statistics modules in
    # the middle of running batches (an emit-only settle): heavy-tailed
    # sizes on 8 nodes, backfill on.
    "stats-read": dict(
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(
                njobs=8,
                arrival=BURSTY,
                burst_size=4,
                mean_interarrival=60.0,
                size_mix=heavy_tailed_size_mix(8),
                work_scale=0.05,
                iterations=16,
                name="hetero",
            ),
            seed=2,
        ),
        cluster=ClusterRef(nnodes=8, kind="uniform"),
        scheduler=SchedulerRef(backfill=True, node_policy="lowest-utilisation"),
    ),
}

CASES = [
    pytest.param(
        RunSpec(index=0, scenario=scenario, **kwargs),
        id=f"{family}-{scenario}",
    )
    for family, kwargs in FAMILIES.items()
    for scenario in (SERIAL, DROM)
]


@pytest.mark.parametrize("run", CASES)
def test_batched_run_is_byte_identical_to_reference(run, tmp_path):
    reference = execute_run(run, trace=True, batching=False)
    batched = execute_run(run, trace=True, batching=True)
    assert_byte_identical(run, reference, batched, tmp_path)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(RunSpec(index=0, scenario=DROM, workload=InSituWorkloadRef()), id="drom")
    ],
)
def test_batched_tracer_views_match_reference(run):
    """Derived tracer views (not just serialised bytes) agree too."""
    reference = execute_run(run, trace=True, batching=False)
    batched = execute_run(run, trace=True, batching=True)
    assert batched.tracer.steps() == reference.tracer.steps()
    assert batched.tracer.mask_changes() == reference.tracer.mask_changes()
    assert batched.tracer.jobs() == reference.tracer.jobs()
    for job in reference.tracer.jobs():
        assert batched.tracer.span(job) == reference.tracer.span(job)
    assert batched.end_time == reference.end_time


# -- ties: a step boundary at the very instant of a mask write ---------------

TIE_APPS = {
    "pils-conf1": (configs.pils, "Conf. 1", ThreadModel.OMPSS),
    "pils-conf2": (configs.pils, "Conf. 2", ThreadModel.OMPSS),
    "pils-conf3": (configs.pils, "Conf. 3", ThreadModel.OMPSS),
    "stream-conf1": (configs.stream, "Conf. 1", ThreadModel.OPENMP),
}


def tie_workload(app: str, long_first: bool) -> Workload:
    """Two jobs of one app on one node, equal step lengths, one half as long.

    Both jobs start at t=0 with the same per-step work, so the short job
    completes exactly on one of the long job's step boundaries, and the
    masks its completion writes land at that instant.  Whether the long
    job's step ending there is recorded under the old mask depends on the
    two executors' launch order, which the submit order fixes.
    """
    factory, config, thread_model = TIE_APPS[app]
    work = factory(config).model.total_work
    long_job = WorkloadJob(
        app=factory(config, iterations=16, total_work=work),
        thread_model=thread_model,
        name="long",
    )
    short_job = WorkloadJob(
        app=factory(config, iterations=8, total_work=work / 2),
        thread_model=thread_model,
        name="short",
    )
    jobs = (long_job, short_job) if long_first else (short_job, long_job)
    return Workload(name=f"tie {app}", jobs=jobs, nodes=1)


@pytest.mark.parametrize("long_first", [True, False], ids=["long-first", "short-first"])
@pytest.mark.parametrize("app", sorted(TIE_APPS))
def test_tie_at_a_mask_write_matches_reference(app, long_first, tmp_path):
    workload = tie_workload(app, long_first)
    cluster = ClusterTopology.marenostrum3(1)
    reference = ScenarioRunner(True, cluster=cluster, batching=False).run(workload)
    batched = ScenarioRunner(True, cluster=cluster).run(workload)
    # The stores key an artifact by its run spec; a hand-built workload has
    # none, so both results are filed under one stand-in spec.
    run = RunSpec(index=0, scenario=DROM, workload=InSituWorkloadRef())
    assert_byte_identical(run, reference, batched, tmp_path)
    assert batched.tracer.mask_changes() == reference.tracer.mask_changes()
    assert batched.end_time == reference.end_time


# -- generated differential test --------------------------------------------------
# A shrunk counterexample found here becomes one more pinned family above.


@st.composite
def run_specs(draw):
    """Random cells of the synthetic scenario space."""
    kind = draw(st.sampled_from(["mn3", "uniform"]))
    nnodes = draw(st.integers(2, 8))
    spec = WorkloadSpec(
        njobs=draw(st.integers(1, 8)),
        arrival=draw(st.sampled_from([POISSON, UNIFORM, BURSTY])),
        burst_size=draw(st.integers(1, 4)),
        mean_interarrival=draw(st.sampled_from([0.0, 5.0, 30.0, 120.0])),
        size_mix=heavy_tailed_size_mix(nnodes) if draw(st.booleans()) else (),
        iterations=draw(st.integers(1, 40)),
        work_scale=draw(st.sampled_from([0.01, 0.04, 0.1])),
    )
    return RunSpec(
        index=0,
        scenario=draw(st.sampled_from([SERIAL, DROM])),
        workload=SyntheticWorkloadRef(spec=spec, seed=draw(st.integers(0, 10_000))),
        cluster=ClusterRef(nnodes=nnodes, kind=kind),
        interference_factor=draw(st.sampled_from([None, 1.3])),
        scheduler=SchedulerRef(
            backfill=draw(st.booleans()),
            node_policy=draw(st.sampled_from([None, *NODE_POLICY_NAMES])),
        ),
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run=run_specs())
def test_generated_cells_are_byte_identical_to_reference(run, tmp_path_factory):
    reference = execute_run(run, trace=True, batching=False)
    batched = execute_run(run, trace=True, batching=True)
    assert_byte_identical(run, reference, batched, tmp_path_factory.mktemp("cell"))


def test_statistics_reads_match_reference(monkeypatch):
    """Every statistics read sees exactly the reference loop's records.

    Batches record lazily, so a read must first record every step that
    passed before it.  And a node summary sums its per-pid records in
    creation order, where three floats summed in another order may round
    differently: a job's first records must be created in the order of the
    jobs' first step wakes, the order the reference loop creates them.
    """
    from repro.core.stats import StatsModule

    reads = []
    summarise = StatsModule.node_summary

    def node_summary(self):
        summary = summarise(self)
        records = [self.process_stats(pid) for pid in self.pids()]
        sums = [(r.pid, r.useful_time, r.cpu_seconds_owned) for r in records]
        reads.append((summary.node, sums))
        return summary

    monkeypatch.setattr(StatsModule, "node_summary", node_summary)
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(
                njobs=5,
                arrival=BURSTY,
                burst_size=1,
                mean_interarrival=5.0,
                size_mix=heavy_tailed_size_mix(2),
                work_scale=0.04,
                iterations=14,
            ),
            seed=2983,
        ),
        cluster=ClusterRef(nnodes=3, kind="uniform"),
        scheduler=SchedulerRef(node_policy="lowest-utilisation"),
    )
    execute_run(run, batching=False)
    reference, reads[:] = list(reads), []
    execute_run(run, batching=True)
    assert any(len(records) >= 3 for _node, records in reference)
    assert reads == reference
