"""Campaign execution: expand, run (serially or in a worker pool), aggregate.

The run layer has three entry points:

* :func:`execute_run` is a **pure function** of a :class:`RunSpec` — it
  rebuilds the workload, cluster and policy from their declarative references
  and runs one fresh :class:`~repro.workload.runner.ScenarioRunner` on a fresh
  discrete-event engine.  No state leaks between runs.
* :func:`run_campaign` is the only driver.  It scans the store tiers, runs
  every miss through :func:`run_cell` — in-process (``workers=1``), on a
  ``multiprocessing`` pool or on executors — and aggregates the compact
  per-run metrics in **run-index order**.  Because each run is pure and the
  aggregation order is fixed, a fixed-seed campaign produces byte-identical
  aggregated metrics no matter how many workers executed it.  A resume is
  ``run_campaign(CampaignManifest(path).replay(), store=..., manifest=path)``.
* :func:`run_scenario_pair` is a 2-cell campaign (Serial and DROM of one
  workload) that returns the full :class:`ScenarioResult` objects (or replays of
  them) the figure reproductions read their tracers from.

:func:`run_cell` is the one cell body — execute, summarise, sinks, metrics
tier, trace tier — whichever process hosts the cell: the serial path, a
local pool worker or ``python -m repro.exec.worker``.

Observability rides the same seam: every cell is measured on a *fresh clock*
from the telemetry's clock factory and records a detached
``cell -> {build, simulate, summarise, store_write, trace_write}`` span tree
(:mod:`repro.obs.telemetry`).  Pooled workers ship their trees back through
the pool next to the metrics row, and the parent stitches all cells under
the ``campaign`` span in run-index order — so serial and pooled campaigns
produce structurally identical telemetry (byte-identical with a
deterministic fake clock factory).  Telemetry is observational only: rows,
content keys and stored artifacts are byte-identical with it on or off.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, TextIO

from repro.campaign.spec import CampaignSpec, RunSpec, WorkloadRef
from repro.exec.base import WorkerContext
from repro.obs.log import get_logger
from repro.obs.progress import ProgressLine
from repro.obs.telemetry import DISABLED, Span, Telemetry
from repro.workload.runner import DROM, SERIAL, ScenarioResult, ScenarioRunner

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.exec.manifest import ManifestState
    from repro.results.sinks import TraceSink
    from repro.results.store import ResultStore
    from repro.traces.query import ScenarioReplay
    from repro.traces.store import TraceStore

_log = get_logger("campaign")


def execute_run(
    run: RunSpec,
    trace: bool = False,
    batching: bool = True,
    telemetry: Telemetry | None = None,
) -> ScenarioResult:
    """Execute one campaign run and return the full scenario result.

    ``batching=False`` runs the single-step reference loop instead of the
    batched fast path; results are byte-identical either way (the
    ``bench_perf_core`` harness gates on it), so the flag is deliberately
    *not* part of :class:`RunSpec` or the content hash.

    ``telemetry`` records ``build`` and ``simulate`` spans under the current
    span; the ``simulate`` span carries the run's engine/step/batch counters.
    """
    obs = telemetry if telemetry is not None else DISABLED
    with obs.span("build"):
        workload = run.workload.build()
        interference = None
        if run.interference_factor is not None:
            factor = run.interference_factor

            def interference(job: str, node: str, co_runners: list[str]) -> float:
                return factor if co_runners else 1.0

        runner = ScenarioRunner(
            drom_enabled=run.scenario == DROM,
            cluster=run.cluster.build(),
            policy=run.policy.build() if run.policy is not None else None,
            interference=interference,
            backfill=run.scheduler.backfill,
            node_policy=run.scheduler.node_policy,
            batching=batching,
        )
    with obs.span("simulate") as span:
        result = runner.run(workload, trace=trace)
        span.count("events", result.events_executed)
        span.count("steps", result.steps_advanced)
        span.count("batches", result.batches_executed)
        _annotate_sched(span, result)
    return result


def _annotate_sched(span: Span, result: ScenarioResult) -> None:
    """Attach the run's scheduler-level observables to its ``simulate`` span.

    Everything here is a pure function of the (deterministic) simulation
    outcome — never of wall clock — so serial and pooled campaigns record
    identical values.  The queue-depth series rides as a span attribute
    (excluded from Chrome-trace ``args``; exported as a counter track).
    """
    timeline = result.sched
    # The disabled telemetry hands out a shared null span whose ``attrs``
    # dict is class-level; never write into it.
    if not len(timeline) or not isinstance(span, Span):
        return
    fairness = timeline.fairness_summary()
    span.count("sched_jobs", fairness.njobs)
    span.count("sched_started", fairness.started)
    span.count("sched_wait_seconds", fairness.mean_wait * fairness.started)
    span.count("sched_busy_cpu_seconds", timeline.busy_cpu_seconds(result.end_time))
    span.count(
        "sched_capacity_cpu_seconds", timeline.capacity_cpu_seconds(result.end_time)
    )
    span.attrs["sched_max_wait"] = fairness.max_wait
    span.attrs["sched_queue_series"] = [
        list(point) for point in timeline.queue_depth_series()
    ]


@dataclass(frozen=True)
class RunMetrics:
    """Compact, picklable summary of one run (what the pool ships back)."""

    run: RunSpec
    workload_name: str
    total_run_time: float
    average_response_time: float
    makespan_end: float
    #: Per-job (label, value) pairs, in job order — tuples keep the record
    #: hashable and deterministic to serialise.
    response_times: tuple[tuple[str, float], ...]
    wait_times: tuple[tuple[str, float], ...]
    run_times: tuple[tuple[str, float], ...]
    job_utilisation: tuple[tuple[str, float], ...]

    @property
    def run_id(self) -> str:
        return self.run.run_id

    @property
    def scenario(self) -> str:
        return self.run.scenario

    def response_time(self, job: str) -> float:
        return dict(self.response_times)[job]


def summarise_run(run: RunSpec, result: ScenarioResult) -> RunMetrics:
    """Compact a full scenario result into its campaign row."""
    metrics = result.metrics
    labels = [j.name for j in metrics.jobs]
    return RunMetrics(
        run=run,
        workload_name=result.workload.name,
        total_run_time=metrics.total_run_time,
        average_response_time=metrics.average_response_time,
        makespan_end=metrics.makespan_end,
        response_times=tuple((l, metrics.job(l).response_time) for l in labels),
        wait_times=tuple((l, metrics.job(l).wait_time) for l in labels),
        run_times=tuple((l, metrics.job(l).run_time) for l in labels),
        job_utilisation=tuple((l, result.job_utilisation(l)) for l in labels),
    )


def run_cell(
    run: RunSpec, context: WorkerContext
) -> tuple[RunMetrics, Span | None]:
    """Execute, summarise and persist one campaign cell.

    This is the one cell body, called wherever a cell runs: the serial
    campaign path, local pool workers (module-level so it pickles) and both
    modes of ``python -m repro.exec.worker``.  Tracing is enabled only when
    ``context``'s sinks or trace tier want the full trace; the metrics tier
    and then the trace tier are written last (both are keyed per run, so
    concurrent workers never collide — and same-cell collisions write
    atomically).

    Returns the metrics row plus the cell's detached span tree (``None``
    when telemetry is off).  The tree is measured on a **fresh clock** from
    ``context.clock_factory`` — the same code path whether this call runs
    in-process or inside a pool worker, which is what makes serial and
    pooled telemetry identical under a deterministic fake factory.
    """
    factory = context.clock_factory
    obs = Telemetry(clock_factory=factory) if factory is not None else DISABLED
    with obs.span("cell", index=run.index, run_id=run.run_id, cached=False) as cell:
        result = execute_run(
            run,
            trace=bool(context.sinks) or context.trace_store is not None,
            telemetry=obs,
        )
        with obs.span("summarise"):
            row = summarise_run(run, result)
        for sink in context.sinks:
            sink.write(run, result)
        if context.store is not None:
            with obs.span("store_write") as span:
                path = context.store.put(row)
                span.count("bytes", path.stat().st_size)
        if context.trace_store is not None:
            with obs.span("trace_write") as span:
                path = context.trace_store.put(run, result)
                span.count("bytes", path.stat().st_size)
        cell.count("events", result.events_executed)
    return row, (obs.roots[0] if obs.enabled else None)


@dataclass(frozen=True)
class CampaignResult:
    """All rows of a finished campaign, in run-index order."""

    name: str
    rows: tuple[RunMetrics, ...]
    #: How many rows were served from the store tiers instead of simulated
    #: (with a trace tier configured, a row counts only when *both* tiers hit).
    cache_hits: int = 0
    #: How many rows were actually simulated (``len(rows) - cache_hits``).
    executed: int = 0
    #: Metrics-tier hits during the cache scan — includes rows that still
    #: re-simulated because the trace tier missed (see :attr:`backfilled`).
    metrics_hits: int = 0
    #: Trace-tier hits during the cache scan (0 when no trace tier was given).
    trace_hits: int = 0
    #: Metrics-tier hits that re-simulated to backfill a missing trace
    #: artifact (metrics hit, trace miss).
    backfilled: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def by_scenario(self) -> dict[str, list[RunMetrics]]:
        out: dict[str, list[RunMetrics]] = {}
        for row in self.rows:
            out.setdefault(row.scenario, []).append(row)
        return out

    def scenario_pairs(self) -> list[dict[str, RunMetrics]]:
        """Group rows by grid cell (the consecutive scenario block).

        Returns one ``{scenario: row}`` dict per cell, in grid order — the
        shape the Serial-vs-DROM comparisons consume.  Grouping follows the
        expansion order (scenarios are innermost, so each cell is one
        consecutive block of rows), which keeps repeated workload references
        in the grid as distinct cells.
        """
        cells: list[dict[str, RunMetrics]] = []
        current: dict[str, RunMetrics] = {}
        for row in self.rows:
            if row.scenario in current:
                cells.append(current)
                current = {}
            current[row.scenario] = row
        if current:
            cells.append(current)
        return cells

    def tier_summary(self) -> str:
        """One line of per-tier cache accounting (metrics vs trace tier)."""
        total = len(self.rows)
        parts = [
            f"metrics tier {self.metrics_hits} hit / "
            f"{total - self.metrics_hits} miss",
            f"trace tier {self.trace_hits} hit / {total - self.trace_hits} miss",
        ]
        return (
            "tiers: " + " | ".join(parts)
            + f" | {self.backfilled} backfill re-simulation(s)"
        )

    def to_table(self, tiers: bool = False) -> str:
        """Render the aggregated metrics as one comparable fixed-width table.

        ``tiers=True`` appends the per-tier cache accounting footer
        (:meth:`tier_summary`); the default rendering stays a pure function
        of the rows, so warm and cold campaigns tabulate byte-identically.
        """
        from repro.experiments.tables import render_table

        rows = [
            (
                f"{m.run.index:04d}",
                m.scenario,
                m.workload_name,
                m.run.cluster.label,
                m.run.policy.name if m.run.policy is not None else "default",
                m.run.scheduler.label,
                f"{m.total_run_time:.3f}",
                f"{m.average_response_time:.3f}",
                f"{m.makespan_end:.3f}",
            )
            for m in self.rows
        ]
        table = render_table(
            [
                "Run",
                "Scenario",
                "Workload",
                "Cluster",
                "Policy",
                "Scheduler",
                "Total run time (s)",
                "Avg response (s)",
                "Makespan end (s)",
            ],
            rows,
        )
        if tiers:
            table += "\n" + self.tier_summary()
        return table


def _as_executors(executor) -> "list | None":
    """Normalise ``run_campaign``'s ``executor=`` argument: ``None``, one
    :class:`~repro.exec.base.Executor`, or a sequence of them."""
    if executor is None:
        return None
    from repro.exec.base import Executor

    if isinstance(executor, Executor):
        return [executor]
    executors = list(executor)
    if not executors:
        return None
    for candidate in executors:
        if not isinstance(candidate, Executor):
            raise TypeError(f"not an Executor: {candidate!r}")
    return executors


def _as_manifest(manifest):
    """Normalise ``manifest=``: ``None``, a path, or a ``CampaignManifest``."""
    if manifest is None:
        return None
    from repro.exec.manifest import CampaignManifest

    if isinstance(manifest, CampaignManifest):
        return manifest
    return CampaignManifest(manifest)


def run_campaign(
    spec: "CampaignSpec | ManifestState",
    workers: int = 1,
    store: "ResultStore | None" = None,
    sinks: Iterable["TraceSink"] = (),
    trace_store: "TraceStore | None" = None,
    telemetry: Telemetry | None = None,
    progress: "bool | TextIO" = False,
    executor=None,
    manifest=None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
) -> CampaignResult:
    """Execute every run of ``spec`` and aggregate the metrics.

    ``spec`` is anything with a ``name`` and an ``expand()`` run list: a
    :class:`CampaignSpec` grid, or the :class:`~repro.exec.manifest.ManifestState`
    a manifest replays to (a resume).

    ``workers=1`` executes in-process; ``workers>1`` fans the runs out over a
    ``multiprocessing`` pool whose workers receive the invariant campaign
    context once through the pool initializer.  ``executor`` overrides both:
    one :class:`~repro.exec.base.Executor` (or a list of them — e.g. a local
    pool plus two SSH hosts) dealt cells by the asyncio orchestrator
    (:mod:`repro.exec.orchestrator`), with per-cell ``timeout``, bounded
    ``retries`` with exponential ``backoff``, and graceful degradation when
    a backend dies.  All paths return identical results for the same spec:
    each run is a pure function of its :class:`RunSpec` and rows are
    aggregated in run-index order regardless of completion order.

    ``store`` memoises execution on the run's content hash: cells already in
    the :class:`~repro.results.store.ResultStore` are served from it (no
    simulation), only the misses execute, and fresh rows are written back.
    Because stored rows are rebound to the requesting grid index and
    aggregation stays in run-index order, a warm campaign is byte-identical
    to a cold one.

    ``trace_store`` adds the second tier: every run that executes does so
    with tracing on and persists its full tracer under the same content key
    (:class:`~repro.traces.store.TraceStore`).  A run skips execution only
    when **both** tiers hit — a metrics hit whose trace artifact is missing
    (or stale-format) re-simulates to backfill the trace, which re-derives
    the identical row (runs are pure functions of their specs).  The result's
    :attr:`~CampaignResult.metrics_hits` / :attr:`~CampaignResult.trace_hits`
    / :attr:`~CampaignResult.backfilled` break the scan down per tier.

    ``manifest`` (a path or :class:`~repro.exec.manifest.CampaignManifest`)
    journals the campaign as an append-only JSONL record of intent and
    completion.  Resuming after a crash is
    ``run_campaign(CampaignManifest(path).replay(), store=..., manifest=path)``:
    the manifest is self-contained (every cell's canonical spec contents are
    journalled), and the warm scan re-executes **only the cells whose content
    keys are missing from the store tiers**, whatever states the journal last
    saw.  Completions are journalled back, so resuming is idempotent.

    ``sinks`` receive the full :class:`~repro.workload.runner.ScenarioResult`
    of every run that actually executes (cache hits carry no tracer, so they
    are not re-exported).

    ``telemetry`` records the campaign's span tree: one ``campaign`` root
    whose children are the per-cell trees in run-index order (cache hits
    appear as closed ``cell`` spans marked ``cached=True``; orchestrated
    campaigns prepend one ``executor`` accounting span per backend).
    ``progress`` (``True`` for stderr, or any writable stream) repaints a
    live done/total | hits | cells/s | ETA line as cells complete, with
    per-executor in-flight counts when orchestrating.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    name = spec.name
    runs = spec.expand()
    sinks = tuple(sinks)
    executors = _as_executors(executor)
    journal = _as_manifest(manifest)
    obs = telemetry if telemetry is not None else DISABLED
    # The invariant context every cell runs against, wherever it runs.
    context = WorkerContext(
        sinks=sinks,
        store=store,
        trace_store=trace_store,
        clock_factory=obs.clock_factory if obs.enabled else None,
    )
    stream = sys.stderr if progress is True else (progress or None)
    line = ProgressLine(len(runs), stream) if stream is not None else None
    _log.info(
        "campaign %r: %d runs on %s%s%s%s",
        name,
        len(runs),
        f"{len(executors)} executor(s)" if executors else f"{workers} worker(s)",
        f", store={store.root}" if store is not None else "",
        f", trace_store={trace_store.root}" if trace_store is not None else "",
        f", manifest={journal.path}" if journal is not None else "",
    )

    if journal is not None:
        from repro.exec.manifest import DONE, FAILED

        journal.begin(name, runs)
    # One index read per tier for the whole scan (O(1) on a warm store,
    # one listdir + stat-diff after a write), instead of one filesystem
    # probe per cell per tier; membership is name-level, so hits are still
    # validated by the per-entry read below.  Index stats are snapshotted
    # as deltas around these parent-process scans only, so serial and
    # pooled campaigns count identically.
    index_counts: dict[str, int] = {}

    def scan(tier, label: str) -> frozenset[str]:
        keys, hits, rebuilds = frozenset(), 0, 0
        if tier is not None and tier.root.is_dir():
            before = dict(tier.index.stats)
            keys = tier.scan()
            after = tier.index.stats
            # A "hit" is any scan the journal served (fresh or stat-diff
            # reconciled); only a missing/invalid journal counts as a rebuild.
            hits = sum(after[k] - before[k] for k in ("hits", "reconciles"))
            rebuilds = after["rebuilds"] - before["rebuilds"]
        index_counts[f"{label}_index_hits"] = hits
        index_counts[f"{label}_index_rebuilds"] = rebuilds
        return keys

    store_keys = scan(store, "store")
    trace_keys = scan(trace_store, "trace")

    rows_by_index: dict[int, RunMetrics] = {}
    spans_by_index: dict[int, Span] = {}
    #: index -> (metrics_hit, trace_hit) of the cache scan, annotated onto
    #: the executed cells' spans after stitching.
    tier_state: dict[int, tuple[bool, bool]] = {}
    with obs.span("campaign", name=name, runs=len(runs)) as campaign:
        misses = []
        metrics_hits = trace_hits = backfilled = 0
        for run in runs:
            cached = (
                store.get(run)
                if store is not None and run.key in store_keys
                else None
            )
            trace_hit = (
                trace_store is not None
                and run.key in trace_keys
                and trace_store.get(run) is not None
            )
            metrics_hits += cached is not None
            trace_hits += trace_hit
            tier_state[run.index] = (cached is not None, trace_hit)
            if cached is not None and (trace_store is None or trace_hit):
                rows_by_index[run.index] = cached
                if journal is not None:
                    journal.record(run.key, DONE, index=run.index, cached=True)
                if obs.enabled:
                    span = obs.record(
                        "cell", index=run.index, run_id=run.run_id, cached=True
                    )
                    span.count("metrics_hit", 1)
                    if trace_hit:
                        span.count("trace_hit", 1)
                    spans_by_index[run.index] = span
                _log.debug("cell %04d: served from store", run.index)
                if line is not None:
                    line.advance(cached=True)
            else:
                if cached is not None:
                    backfilled += 1
                    _log.debug(
                        "cell %04d: metrics hit but trace miss, re-simulating "
                        "to backfill the trace tier", run.index,
                    )
                misses.append(run)

        def collect(results, journal_as: str | None = None, advance: bool = True) -> None:
            for row, span in results:
                rows_by_index[row.run.index] = row
                if span is not None:
                    spans_by_index[row.run.index] = span
                _log.debug("cell %04d: simulated", row.run.index)
                if journal is not None and journal_as is not None:
                    journal.record(
                        row.run.key,
                        DONE,
                        index=row.run.index,
                        executor=journal_as,
                    )
                if line is not None and advance:
                    line.advance()

        try:
            if not misses:
                pass
            elif executors is not None:
                from repro.exec.orchestrator import orchestrate

                def on_done(run, row, executor_name) -> None:
                    if journal is not None:
                        journal.record(
                            run.key,
                            DONE,
                            index=run.index,
                            executor=executor_name,
                        )
                    if line is not None:
                        line.advance()

                def on_failed(run, reason, executor_name) -> None:
                    if journal is not None:
                        journal.record(
                            run.key,
                            FAILED,
                            index=run.index,
                            executor=executor_name,
                            error=reason,
                        )

                def on_status(in_flight, queue_depth) -> None:
                    if line is not None:
                        busy = " ".join(
                            f"{name}:{n}" for name, n in in_flight.items()
                        )
                        line.set_status(
                            f"in flight {busy or '-'} | queued {queue_depth}"
                        )

                outcome = orchestrate(
                    misses,
                    executors,
                    context,
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    on_done=on_done,
                    on_failed=on_failed,
                    on_status=on_status,
                    # A fresh clock (None when telemetry is off) turns on the
                    # per-executor (time, depth, in-flight) series without
                    # perturbing the campaign span's own clock domain.
                    clock=obs.fresh_clock(),
                )
                collect(outcome.results, advance=False)
                if obs.enabled:
                    # One closed span per executor with its dispatch
                    # accounting — pure bookkeeping of the orchestration,
                    # adopted before the cell stitch so the tree layout is
                    # deterministic.
                    for stat in outcome.stats.values():
                        span = obs.record(
                            "executor",
                            name=stat.name,
                            slots=stat.slots,
                            died=stat.died,
                        )
                        span.count("dispatched", stat.dispatched)
                        span.count("completed", stat.completed)
                        span.count("retried", stat.retried)
                        span.count("requeued", stat.requeued)
                        span.count("timeouts", stat.timeouts)
                        span.count("max_in_flight", stat.max_in_flight)
                        if stat.series:
                            # Full queue-depth/in-flight series (not just
                            # the high-water mark); excluded from Chrome
                            # args, exported as a counter track instead.
                            span.attrs["queue_series"] = [
                                list(sample) for sample in stat.series
                            ]
                        obs.adopt(span, parent=campaign)
                    campaign.count("max_queue_depth", outcome.max_queue_depth)
            elif workers == 1:
                collect(
                    (run_cell(run, context) for run in misses), journal_as="serial"
                )
            else:
                # The worker pool ships the invariant context (sinks, store
                # tiers, clock factory) once through its initializer; per
                # cell only the RunSpec is pickled.  chunksize=1 keeps the
                # work spread even when run times are skewed; rows are keyed
                # by run index, so the unordered completion stream (which
                # lets the progress line advance as cells land) still
                # aggregates deterministically.
                from repro.exec.local import pool_worker, worker_pool

                processes = min(workers, len(misses))
                with worker_pool(processes, context) as pool:
                    collect(
                        pool.imap_unordered(pool_worker, misses, chunksize=1),
                        journal_as=f"pool[{processes}]",
                    )
        finally:
            if line is not None:
                line.finish()
        if obs.enabled:
            # Stitch the cell trees under the campaign span in run-index
            # order and annotate executed cells with the cache-scan state —
            # both pure functions of the scan, so serial and pooled
            # campaigns produce identical trees.
            for run in runs:
                span = spans_by_index.get(run.index)
                if span is None:
                    continue
                if not span.attrs.get("cached"):
                    metrics_hit, trace_hit = tier_state[run.index]
                    span.attrs["backfilled"] = metrics_hit
                    if metrics_hit:
                        span.count("metrics_hit", 1)
                    if trace_hit:
                        span.count("trace_hit", 1)
                obs.adopt(span, parent=campaign)
            campaign.count("executed", len(misses))
            campaign.count("cached", len(runs) - len(misses))
            campaign.count("metrics_hits", metrics_hits)
            campaign.count("trace_hits", trace_hits)
            campaign.count("backfilled", backfilled)
            for counter, value in index_counts.items():
                campaign.count(counter, value)
    _log.info(
        "campaign %r done: %d simulated, %d served from store",
        name,
        len(misses),
        len(runs) - len(misses),
    )
    rows = tuple(rows_by_index[run.index] for run in runs)
    return CampaignResult(
        name=name,
        rows=rows,
        cache_hits=len(runs) - len(misses),
        executed=len(misses),
        metrics_hits=metrics_hits,
        trace_hits=trace_hits,
        backfilled=backfilled,
    )


class _LiveResults:
    """Sink that keeps the live results of the cells a campaign executes."""

    def __init__(self) -> None:
        self.results: dict[int, ScenarioResult] = {}

    def write(self, run: RunSpec, result: ScenarioResult) -> None:
        self.results[run.index] = result


def run_scenario_pair(
    workload: WorkloadRef,
    sinks: Iterable["TraceSink"] = (),
    store: "ResultStore | None" = None,
    trace_store: "TraceStore | None" = None,
    **run_fields,
) -> dict[str, "ScenarioResult | ScenarioReplay"]:
    """Serial and DROM full results of one workload (the experiments' idiom).

    The pair is a 2-cell campaign: ``workload`` with scenarios
    ``(SERIAL, DROM)`` and the :class:`RunSpec` fields in ``run_fields``
    (``cluster``, ``policy``, ``scheduler``, ``interference_factor``), run
    through :func:`run_campaign` with tracing on.

    ``store``/``trace_store`` are the two content-addressed tiers, given
    both or neither (a metrics-only hit has no tracer to return).  A cell
    that hits in both is not executed: a
    :class:`~repro.traces.query.ScenarioReplay` (metrics row + stored
    tracer, same reporting interface) is returned instead.  Any other cell
    executes and writes both tiers back.  This is what lets the trace-based
    figure experiments regenerate from a warm store without simulating.

    ``sinks`` receive both scenarios' results, live or replayed, so the
    figure experiments export their traces through the same sink API as
    campaigns.
    """
    if (store is None) != (trace_store is None):
        raise ValueError(
            "run_scenario_pair takes both store tiers or neither: a "
            "metrics-only hit has no tracer to return"
        )
    sinks = tuple(sinks)
    template = RunSpec(index=0, scenario=SERIAL, workload=workload, **run_fields)
    spec = CampaignSpec(
        name="scenario-pair",
        workloads=(workload,),
        scenarios=(SERIAL, DROM),
        clusters=(template.cluster,),
        policies=(template.policy,),
        schedulers=(template.scheduler,),
        interference_factor=template.interference_factor,
    )
    live = _LiveResults()
    campaign = run_campaign(spec, store=store, sinks=(live,), trace_store=trace_store)
    results: dict[str, ScenarioResult | ScenarioReplay] = {}
    for row in campaign.rows:
        run = row.run
        result = live.results.get(run.index)
        if result is None:
            from repro.traces.query import replay_scenario

            result = replay_scenario(run, row, trace_store.get(run))
        for sink in sinks:
            sink.write(run, result)
        results[run.scenario] = result
    return results
