"""Per-layer timing and counting wrappers, installed from outside the program.

A :class:`Recorder` replaces public functions and methods of the ``repro``
layers with thin wrappers that count calls and accumulate total and *self*
seconds (total minus the time spent in nested wrapped calls), without
changing any code under ``src/``.  A function bound under several names
(``content_key`` lives in both ``repro.results.store`` and
``repro.traces.store``) is replaced at every binding, so no call path
escapes the count.

Coroutine methods (the SSH executor's ``start`` and ``run_cell``) overlap
in time, so they are timed per call as wall-clock round trips and kept off
the self-time stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: metric prefix -> list of (module, owner attribute or None, function name).
#: ``owner`` names a class inside ``module``; ``None`` wraps a module-level
#: function at every binding in the loaded ``repro`` modules.
TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "key.content_key": [("repro.results.store", None, "content_key")],
    "key.spec_contents": [("repro.results.store", None, "spec_contents")],
    "campaign.expand": [("repro.campaign.spec", "CampaignSpec", "expand")],
    "campaign.summarise": [("repro.campaign.runner", None, "summarise_run")],
    "build.workload": [("repro.campaign.spec", "SyntheticWorkloadRef", "build")],
    "build.cluster": [("repro.campaign.spec", "ClusterRef", "build")],
    "simulate.run": [("repro.workload.runner", "ScenarioRunner", "run")],
    "slurm.submit": [("repro.slurm.slurmctld", "Slurmctld", "submit")],
    "slurm.schedule": [("repro.slurm.slurmctld", "Slurmctld", "schedule")],
    "slurm.launch": [("repro.slurm.launcher", "Srun", "launch")],
    "slurm.launch_job_step": [("repro.slurm.slurmd", "Slurmd", "launch_job_step")],
    "slurm.pre_launch": [
        ("repro.slurm.task_affinity", "TaskAffinityPlugin", "pre_launch")
    ],
    "drom.pre_init": [("repro.core.drom", "DromAdmin", "pre_init")],
    "drom.set_process_mask": [("repro.core.drom", "DromAdmin", "set_process_mask")],
    "tracer.record_steps": [("repro.metrics.tracing", "Tracer", "record_steps")],
    "probe": [
        ("repro.obs.sched", "ClusterProbe", name)
        for name in ("job_submitted", "job_started", "job_completed", "job_cancelled")
    ],
    "store.put": [("repro.results.store", "ResultStore", "put")],
    "store.get": [("repro.results.store", "ResultStore", "get")],
    "store.scan": [("repro.results.store", "ResultStore", "scan")],
    "trace.put": [("repro.traces.store", "TraceStore", "put")],
    "trace.get": [("repro.traces.store", "TraceStore", "get")],
    "index.record_put": [("repro.store.index", "StoreIndex", "record_put")],
    "index.scan": [("repro.store.index", "StoreIndex", "scan")],
    "query.reader": [
        ("repro.traces.query", "TraceReader", name)
        for name in (
            "fairness_summary",
            "job_lifecycle",
            "queue_depth_series",
            "utilization_series",
            "steps_between",
            "ipc_series_between",
        )
    ],
    "exec.start": [("repro.exec.ssh", "SSHExecutor", "start")],
    "exec.run_cell": [("repro.exec.ssh", "SSHExecutor", "run_cell")],
}


class Stat:
    """Accumulated calls and seconds of one wrapped layer entry point."""

    __slots__ = ("calls", "total", "own", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        #: Per-call wall time, kept only for coroutine entry points.
        self.durations: list[float] = []


class Recorder:
    """Installs the wrappers of :data:`TARGETS` and undoes them on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {name: Stat() for name in TARGETS}
        #: Extra counters fed by the wrappers' post-call hooks.
        self.counts: dict[str, float] = {
            "simulate.steps": 0,
            "simulate.events": 0,
            "simulate.batches": 0,
            "slurm.decisions": 0,
            "store.put_bytes": 0,
            "trace.put_bytes": 0,
            "index.hits": 0,
            "index.rebuilds": 0,
            "exec.run_cell_failed": 0,
        }
        #: (start, end) of every outermost wrapped call; coroutine calls
        #: always count as outermost, since they interleave with the rest.
        self.intervals: list[tuple[float, float]] = []
        #: Called after each of the last calls of a worker's cell
        #: (:data:`_CELL_ENDS`).
        self.on_cell = None
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def __enter__(self) -> "Recorder":
        for name, targets in TARGETS.items():
            for module_name, owner_name, attr in targets:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original)
                    for loaded in list(sys.modules.values()):
                        if not getattr(loaded, "__name__", "").startswith("repro"):
                            continue
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                self._set(loaded, key, wrapper)
                else:
                    owner = getattr(module, owner_name)
                    self._set(owner, attr, self._wrap(name, owner.__dict__[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _set(self, target: object, key: str, value: object) -> None:
        self._undo.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def _wrap(self, name: str, func):
        stat = self.stats[name]
        after = _AFTER.get(name)
        counts = self.counts
        stack = self._stack
        intervals = self.intervals
        clock = time.perf_counter

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def timed_async(*args, **kwargs):
                t0 = clock()
                try:
                    return await func(*args, **kwargs)
                except Exception:
                    if name == "exec.run_cell":
                        counts["exec.run_cell_failed"] += 1
                    raise
                finally:
                    t1 = clock()
                    intervals.append((t0, t1))
                    stat.calls += 1
                    stat.total += t1 - t0
                    stat.durations.append(t1 - t0)

            return timed_async

        @functools.wraps(func)
        def timed(*args, **kwargs):
            before = _BEFORE[name](args) if name in _BEFORE else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    intervals.append((t0, t1))
                stat.calls += 1
                stat.total += elapsed
                stat.own += elapsed - nested
            if after is not None:
                after(counts, args, result, before)
            if self.on_cell is not None and name in _CELL_ENDS:
                self.on_cell()
            return result

        return timed


    def snapshot(self) -> dict:
        """The accumulated statistics as JSON-able data."""
        return {
            "stats": {n: [s.calls, s.total, s.own] for n, s in self.stats.items()},
            "counts": dict(self.counts),
        }

    def merge(self, snapshot: dict) -> None:
        """Add another process's :meth:`snapshot` to this recorder."""
        for name, (calls, total, own) in snapshot["stats"].items():
            stat = self.stats[name]
            stat.calls += calls
            stat.total += total
            stat.own += own
        for key, value in snapshot["counts"].items():
            self.counts[key] += value

    def covered(self) -> float:
        """Wall seconds during which at least one wrapped call was running."""
        total = 0.0
        end = float("-inf")
        for t0, t1 in sorted(self.intervals):
            if t1 > end:
                total += t1 - max(t0, end)
                end = t1
        return total


def _index_stats(args) -> dict:
    return dict(args[0].stats)


def _after_index_scan(counts, args, result, before) -> None:
    after = args[0].stats
    counts["index.hits"] += (
        after["hits"] + after["reconciles"] - before["hits"] - before["reconciles"]
    )
    counts["index.rebuilds"] += after["rebuilds"] - before["rebuilds"]


def _after_simulate(counts, args, result, before) -> None:
    counts["simulate.steps"] += result.steps_advanced
    counts["simulate.events"] += result.events_executed
    counts["simulate.batches"] += result.batches_executed


def _after_schedule(counts, args, result, before) -> None:
    counts["slurm.decisions"] += len(result)


def _bytes_counter(key: str):
    def after(counts, args, result, before) -> None:
        counts[key] += result.stat().st_size

    return after


#: Calls after which a worker flushes its statistics: a loopback worker
#: summarises each cell and then keys it for the response.
_CELL_ENDS = ("campaign.summarise", "key.content_key")

_BEFORE = {"index.scan": _index_stats}
_AFTER = {
    "index.scan": _after_index_scan,
    "simulate.run": _after_simulate,
    "slurm.schedule": _after_schedule,
    "store.put": _bytes_counter("store.put_bytes"),
    "trace.put": _bytes_counter("trace.put_bytes"),
}
