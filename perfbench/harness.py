"""Workload grids, reference answers and the timed closed loops.

Every workload is closed loop with one client: the next campaign or query is
issued only after the previous one returned.  The inputs are a pure function
of the seed; the program only ever receives the generated
:class:`~repro.campaign.spec.CampaignSpec` (and, for the queries, the
:class:`~repro.campaign.spec.RunSpec` of the cell to read).

The ``repro`` modules are imported inside functions, so a fresh interpreter
that only needs one workload's entry modules does not pay for the others.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cold_sweep", "warm_query", "remote_sweep")

#: Modules a user's process imports before it can run each workload (the
#: campaign CLI entry plus the tiers or the executor it drives).
ENTRY_MODULES = {
    "cold_sweep": ("repro.campaign.__main__", "repro.results.store", "repro.traces.store"),
    "warm_query": (
        "repro.campaign.__main__",
        "repro.results.store",
        "repro.traces.store",
        "repro.traces.query",
    ),
    "remote_sweep": ("repro.campaign.__main__", "repro.exec.ssh"),
}

#: Synthetic workloads per grid.  ``full`` is what the benchmark measures;
#: ``tiny`` is the self-test size.
GRID_WORKLOADS = {
    "full": {"cold_sweep": 16, "warm_query": 10, "remote_sweep": 40},
    "tiny": {"cold_sweep": 2, "warm_query": 2, "remote_sweep": 2},
}

#: Query kinds of warm_query, issued in this order on every pass.
QUERY_KINDS = (
    "fairness",
    "lifecycle",
    "queue_depth",
    "utilization",
    "steps_window",
    "ipc_window",
)
#: Cells each query kind reads per pass (rotating through the grid).
QUERIES_PER_KIND = 4


#: Candidate workloads drawn per workload kept in a grid (see
#: :func:`_workload_seeds`).
STRATUM = 4


def _requested_tasks(family, seed: int) -> int:
    """Total MPI tasks the jobs of one generated workload request; the
    simulated steps, and so the cost of a cell, grow with it."""
    from repro.workload.generator import generate_workload

    workload = generate_workload(family, seed)
    return sum(job.resource_request(workload.nodes).ntasks for job in workload.jobs)


def _workload_seeds(family, seed: int, count: int) -> list[int]:
    """A stratified draw of ``count`` workload seeds for ``seed``.

    ``STRATUM * count`` candidates are ranked by requested tasks and one is
    drawn from each stratum of ``STRATUM`` neighbours.  The grid keeps the
    family's heavy tail (the top stratum holds the widest candidates), but
    its total work varies about half as much from seed to seed as a plain
    draw, so the spread across seeds measures the program more than the
    draw.
    """
    rng = random.Random(seed)
    candidates = [seed * 1000 + i for i in range(STRATUM * count)]
    ranked = sorted(candidates, key=lambda s: (_requested_tasks(family, s), s))
    return sorted(ranked[STRATUM * k + rng.randrange(STRATUM)] for k in range(count))


def build_spec(workload: str, seed: int, scale: str = "full"):
    """The campaign grid of ``workload`` for ``seed``.

    cold_sweep and warm_query draw heavy-tailed job sizes (1 to 8 nodes)
    arriving in bursts on an 8-node partition, with backfill off and on;
    remote_sweep draws uniform 2-node jobs with long step loops on a 4-node
    partition.  Every grid runs the serial and the DROM scenario.
    """
    from repro.campaign.spec import (
        CampaignSpec,
        ClusterRef,
        SchedulerRef,
        SyntheticWorkloadRef,
    )
    from repro.workload.generator import (
        BURSTY,
        POISSON,
        WorkloadSpec,
        heavy_tailed_size_mix,
    )
    from repro.workload.runner import DROM, SERIAL

    count = GRID_WORKLOADS[scale][workload]
    if workload == "remote_sweep":
        family = WorkloadSpec(
            njobs=6,
            arrival=POISSON,
            mean_interarrival=120.0,
            nodes=2,
            work_scale=0.1,
            iterations=120,
            name="uniform-long",
        )
        clusters = (ClusterRef(nnodes=4, kind="uniform"),)
        schedulers = (SchedulerRef(backfill=False),)
    else:
        family = WorkloadSpec(
            njobs=8,
            arrival=BURSTY,
            burst_size=4,
            mean_interarrival=60.0,
            size_mix=heavy_tailed_size_mix(8),
            work_scale=0.05,
            iterations=16,
            name="hetero",
        )
        clusters = (ClusterRef(nnodes=8, kind="uniform"),)
        schedulers = (SchedulerRef(backfill=False), SchedulerRef(backfill=True))
    return CampaignSpec(
        name=f"{workload}[seed={seed}]",
        workloads=tuple(
            SyntheticWorkloadRef(spec=family, seed=s)
            for s in _workload_seeds(family, seed, count)
        ),
        scenarios=(SERIAL, DROM),
        clusters=clusters,
        schedulers=schedulers,
    )


# -- digests -----------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_digest(row) -> str:
    """Digest of one campaign row in the metrics tier's exact serialisation."""
    from repro.results.store import metrics_to_payload

    return _sha(json.dumps([row.run.run_id, metrics_to_payload(row)], sort_keys=True))


def answer_digest(answer) -> str:
    """Digest of one query answer (floats ``repr`` exactly)."""
    return _sha(repr(answer))


def combine(digests) -> str:
    return _sha("\n".join(digests))


def tree_digests(root: Path) -> dict[str, str]:
    """Relative path -> digest of every file under ``root``."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


# -- queries -----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryParams:
    """Per-cell query arguments: a window over the middle of the run and the
    first job of the workload."""

    lo: float
    hi: float
    job: str


def answer(reader, kind: str, params: QueryParams):
    if kind == "fairness":
        return reader.fairness_summary()
    if kind == "lifecycle":
        return reader.job_lifecycle()
    if kind == "queue_depth":
        return reader.queue_depth_series()
    if kind == "utilization":
        return reader.utilization_series()
    if kind == "steps_window":
        return reader.steps_between(params.lo, params.hi)
    if kind == "ipc_window":
        return reader.ipc_series_between(params.lo, params.hi, params.job)
    raise ValueError(f"unknown query kind {kind!r}")


# -- references --------------------------------------------------------------------


@dataclass
class Reference:
    """What a correct run must reproduce, computed on a path that bypasses
    the campaign runner, the store tiers and the executors."""

    rows: list[str]
    answers: dict[tuple[int, str], str] = field(default_factory=dict)
    params: dict[int, QueryParams] = field(default_factory=dict)

    @property
    def rows_digest(self) -> str:
        return combine(self.rows)

    @property
    def answers_digest(self) -> str:
        return combine(f"{i}:{k}:{d}" for (i, k), d in sorted(self.answers.items()))


def compute_reference(workload: str, spec) -> Reference:
    """Rows from :func:`execute_run` + :func:`summarise_run` per cell and,
    for warm_query, every query answered from the live (unstored) trace."""
    from repro.campaign.runner import execute_run, summarise_run
    from repro.traces.query import TraceReader

    runs = spec.expand()
    traced = workload == "warm_query"
    ref = Reference(rows=[])
    for run in runs:
        result = execute_run(run, trace=traced)
        ref.rows.append(row_digest(summarise_run(run, result)))
        if traced:
            end = result.end_time
            params = QueryParams(
                lo=0.25 * end, hi=0.5 * end, job=result.workload.jobs[0].label
            )
            ref.params[run.index] = params
            reader = TraceReader(result.tracer, sched=result.sched)
            for kind in QUERY_KINDS:
                ref.answers[(run.index, kind)] = answer_digest(
                    answer(reader, kind, params)
                )
    return ref


def load_pins(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


# -- timed loops -------------------------------------------------------------------


@dataclass
class Tally:
    """Outcome of the timed part of one run."""

    walls: list[float] = field(default_factory=list)
    #: Timed seconds of each pass of the loop: the campaign, plus the
    #: queries on warm_query.
    passes: list[float] = field(default_factory=list)
    cells: list[int] = field(default_factory=list)
    ops: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    #: Bytes both tiers left on disk, and the cells they hold (cold_sweep).
    disk_bytes: int = 0
    disk_cells: int = 0
    #: Query kind -> latencies (warm_query).
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    segments_inflated: int = 0
    #: slots × campaign wall (remote_sweep).
    slot_seconds: float = 0.0
    #: :func:`calibrate` samples taken between passes.
    calibration: list[float] = field(default_factory=list)

    def absorb(self, other: "Tally") -> None:
        """Add another part's operation and disk counts to this tally."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes
        self.disk_bytes += other.disk_bytes
        self.disk_cells += other.disk_cells

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)


def _check_rows(tally: Tally, rows, ref: Reference, what: str) -> None:
    if len(rows) != len(ref.rows):
        tally.fail(len(ref.rows), f"{what}: {len(rows)} rows, expected {len(ref.rows)}")
        return
    bad = sum(row_digest(row) != want for row, want in zip(rows, ref.rows))
    if bad:
        tally.fail(bad, f"{what}: {bad} row(s) differ from the reference")


class ColdSweep:
    """Serial ``run_campaign`` with both tiers, from empty roots every time."""

    def __init__(self, spec, ref: Reference, work: Path) -> None:
        from repro.traces.store import TraceStore

        stamps: list[float] = []

        class StampedTraceStore(TraceStore):
            """Stamps the end of every trace write: the last step of a cell,
            so consecutive stamps delimit one cell's latency."""

            def put(self, run, result):
                path = super().put(run, result)
                stamps.append(time.perf_counter())
                return path

        self._stamps = stamps
        self._store_cls = StampedTraceStore
        self.spec = spec
        self.ref = ref
        self.work = work
        self.rep = 0
        self._first_tree: dict[str, str] | None = None

    def __call__(self, tally: Tally) -> None:
        from repro.campaign.runner import run_campaign
        from repro.results.store import ResultStore

        root = self.work / f"cold-{self.rep}"
        self.rep += 1
        ncells = self.spec.nruns
        tally.attempted += ncells
        self._stamps.clear()
        t0 = time.perf_counter()
        try:
            result = run_campaign(
                self.spec,
                store=ResultStore(root / "metrics"),
                trace_store=self._store_cls(root / "traces"),
            )
        except Exception as exc:  # one raising campaign fails all its cells
            tally.fail(ncells, f"cold campaign raised {type(exc).__name__}: {exc}")
            shutil.rmtree(root, ignore_errors=True)
            return
        wall = time.perf_counter() - t0
        tally.walls.append(wall)
        tally.passes.append(wall)
        tally.cells.append(ncells)
        marks = [t0] + self._stamps
        tally.ops.extend(b - a for a, b in zip(marks, marks[1:]))
        if result.executed != ncells:
            tally.fail(ncells - result.executed, "cold campaign served cells from cache")
        _check_rows(tally, result.rows, self.ref, "cold_sweep")
        # Two cold runs of the same code must write identical trace bytes;
        # the bytes themselves are not pinned (the trace format may change).
        tree = tree_digests(root / "traces")
        if self._first_tree is None:
            self._first_tree = tree
        elif tree != self._first_tree:
            bad = len(set(tree.items()) ^ set(self._first_tree.items()))
            tally.fail(max(1, bad // 2), "cold trace-tier bytes differ between runs")
        tally.disk_bytes += tree_bytes(root)
        tally.disk_cells += ncells
        shutil.rmtree(root, ignore_errors=True)


class WarmQuery:
    """A fully warm ``run_campaign`` followed by one pass of trace queries."""

    def __init__(self, spec, ref: Reference, root: Path) -> None:
        self.spec = spec
        self.ref = ref
        self.root = root
        self.runs = spec.expand()
        self.rep = 0

    def __call__(self, tally: Tally) -> None:
        from repro.campaign.runner import run_campaign
        from repro.results.store import ResultStore
        from repro.traces.query import TraceReader
        from repro.traces.store import TraceStore

        ncells = self.spec.nruns
        tally.attempted += ncells
        timed = 0.0
        t0 = time.perf_counter()
        try:
            result = run_campaign(
                self.spec,
                store=ResultStore(self.root / "metrics"),
                trace_store=TraceStore(self.root / "traces"),
            )
        except Exception as exc:
            tally.fail(ncells, f"warm campaign raised {type(exc).__name__}: {exc}")
        else:
            timed = time.perf_counter() - t0
            tally.walls.append(timed)
            tally.cells.append(ncells)
            if result.executed:
                tally.fail(result.executed, f"warm campaign executed {result.executed} cell(s)")
            _check_rows(tally, result.rows, self.ref, "warm_query")

        traces = TraceStore(self.root / "traces")
        for k, kind in enumerate(QUERY_KINDS):
            latencies = tally.by_kind.setdefault(kind, [])
            for j in range(QUERIES_PER_KIND):
                run = self.runs[(self.rep * QUERIES_PER_KIND + j + k) % len(self.runs)]
                tally.attempted += 1
                t = time.perf_counter()
                try:
                    entry = traces.get(run)
                    if entry is None:
                        raise LookupError(f"cell {run.cell_id} missing from the trace tier")
                    got = answer(TraceReader(entry), kind, self.ref.params[run.index])
                except Exception as exc:
                    tally.fail(1, f"query {kind} raised {type(exc).__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t
                timed += dt
                tally.ops.append(dt)
                latencies.append(dt)
                tally.segments_inflated += entry.segments_inflated
                if answer_digest(got) != self.ref.answers[(run.index, kind)]:
                    tally.fail(1, f"query {kind} on {run.cell_id} differs from the reference")
        tally.passes.append(timed)
        self.rep += 1


class RemoteSweep:
    """A cold campaign without tiers through ``nproc`` loopback SSH workers."""

    def __init__(self, spec, ref: Reference) -> None:
        from repro.exec.ssh import SSHExecutor

        round_trips: list[float] = []

        class StampedSSHExecutor(SSHExecutor):
            """Times each cell's round trip through the worker protocol."""

            async def run_cell(self, run):
                t = time.perf_counter()
                try:
                    return await super().run_cell(run)
                finally:
                    round_trips.append(time.perf_counter() - t)

        self._round_trips = round_trips
        self._executor_cls = StampedSSHExecutor
        self.slots = os.cpu_count() or 1
        self.spec = spec
        self.ref = ref

    def __call__(self, tally: Tally) -> None:
        from repro.campaign.runner import run_campaign

        ncells = self.spec.nruns
        tally.attempted += ncells
        self._round_trips.clear()
        executor = self._executor_cls(host=None, slots=self.slots)
        t0 = time.perf_counter()
        try:
            result = run_campaign(self.spec, executor=executor)
        except Exception as exc:
            tally.fail(ncells, f"remote campaign raised {type(exc).__name__}: {exc}")
            return
        wall = time.perf_counter() - t0
        tally.walls.append(wall)
        tally.passes.append(wall)
        tally.cells.append(ncells)
        tally.ops.extend(self._round_trips)
        tally.slot_seconds += self.slots * wall
        _check_rows(tally, result.rows, self.ref, "remote_sweep")


#: Reference duration of :func:`calibrate`.  End-to-end timings are
#: reported at the machine speed where the calibration takes exactly this
#: long.  Never change it: it defines the unit of every timing metric.
CALIBRATION_REF_S = 0.020
#: Seconds between calibration samples in the timed loop.
CALIBRATION_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds one fixed pure-Python workload takes now (dicts, JSON, zlib,
    sorting -- the kinds of work the program does, none of its code).

    Shared hosts drift in speed by tens of percent over minutes; timing the
    same work between passes measures that drift so the end-to-end timings
    can be scaled to one reference speed, which the program's own changes
    cannot move.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40000):
        key = i % 257
        table[key] = table.get(key, 0) + i
    rows = [{"k": i, "v": i * 0.5, "s": str(i)} for i in range(4000)]
    text = json.dumps(rows, sort_keys=True)
    zlib.compress(text.encode("utf-8"), 6)
    json.loads(text)
    sorted(rows, key=lambda row: -row["v"])
    return time.perf_counter() - t0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); degenerate inputs repeat the one value."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return q1, q2, q3
    value = values[0] if values else 0.0
    return value, value, value


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
