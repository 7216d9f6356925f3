"""Content-addressed persistence for campaign run metrics.

The store keys every run by a **stable hash of the run spec's contents** —
scenario, workload reference (including its generator seed), cluster, mask
policy, scheduler options and interference factor — and deliberately *not*
the grid ``index``: the same cell appearing at position 3 of one campaign and
position 17 of another is the same simulation and must share one entry.

Entries are small JSON documents (one per key) under a configurable root, so
the store needs no server, diffs cleanly under version control if someone
chooses to commit one, and two stores produced by different hosts shard a
campaign naturally: :meth:`ResultStore.merge` is a plain union of keys.

Determinism contract: a :class:`~repro.campaign.runner.RunMetrics` row
survives the JSON round trip byte-for-byte (Python floats serialise via
``repr``, which is shortest-round-trip exact), and :meth:`ResultStore.get`
rebinds the stored metrics to the *requesting* spec's grid index — so a
campaign aggregated from cache is indistinguishable from a freshly simulated
one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.campaign.runner import RunMetrics
from repro.campaign.spec import (
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    PolicyRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
    WorkloadRef,
)
from repro.obs.log import get_logger
from repro.store.content import ContentStore
from repro.workload.generator import AppMixEntry, SizeMixEntry, WorkloadSpec

#: Default persistent location (gitignored; see ``.gitignore``).
DEFAULT_STORE_ROOT = Path("benchmarks") / "results" / "store"

#: Bumped whenever the entry layout or the content-hash inputs change; old
#: entries are then simply cache misses (and ``gc`` collects them).
#:
#: Version history:
#:
#: * 1 — initial layout (uniform per-workload node counts).
#: * 2 — per-job resource requests: the workload references serialise the
#:   generator's ``size_mix``/``burst_size`` families and the in-situ
#:   ``analytics_nodes``, all of which enter the content hash.  v1 cells were
#:   hashed without them, so treating one as a v2 hit could silently alias
#:   two different simulations — they are invalid, never rebound.
STORE_FORMAT_VERSION = 2


# -- canonical spec (de)serialisation ------------------------------------------------


def _workload_to_dict(ref: WorkloadRef) -> dict:
    payload = asdict(ref)
    payload["type"] = type(ref).__name__
    return payload


_WORKLOAD_TYPES = {
    cls.__name__: cls
    for cls in (SyntheticWorkloadRef, InSituWorkloadRef, HighPriorityWorkloadRef)
}


def _workload_from_dict(payload: dict) -> WorkloadRef:
    kind = payload["type"]
    if kind not in _WORKLOAD_TYPES:
        raise ValueError(f"unknown workload reference type {kind!r}")
    if kind == "SyntheticWorkloadRef":
        spec = payload["spec"]
        return SyntheticWorkloadRef(
            spec=WorkloadSpec(
                njobs=spec["njobs"],
                arrival=spec["arrival"],
                mean_interarrival=spec["mean_interarrival"],
                app_mix=tuple(AppMixEntry(**entry) for entry in spec["app_mix"]),
                priority_levels=tuple(spec["priority_levels"]),
                nodes=spec["nodes"],
                work_scale=spec["work_scale"],
                iterations=spec["iterations"],
                name=spec["name"],
                size_mix=tuple(SizeMixEntry(**entry) for entry in spec["size_mix"]),
                burst_size=spec["burst_size"],
            ),
            seed=payload["seed"],
        )
    if kind == "InSituWorkloadRef":
        return InSituWorkloadRef(
            simulator=payload["simulator"],
            simulator_config=payload["simulator_config"],
            analytics=payload["analytics"],
            analytics_config=payload["analytics_config"],
            analytics_submit=payload["analytics_submit"],
            simulator_kwargs=tuple(
                (key, value) for key, value in payload["simulator_kwargs"]
            ),
            analytics_nodes=payload["analytics_nodes"],
        )
    return HighPriorityWorkloadRef(second_submit=payload["second_submit"])


def spec_contents(run: RunSpec) -> dict:
    """The canonical, JSON-able contents of a run spec — everything that
    determines what the run computes, and nothing that doesn't (``index``)."""
    return {
        "scenario": run.scenario,
        "workload": _workload_to_dict(run.workload),
        "cluster": asdict(run.cluster),
        "policy": run.policy.name if run.policy is not None else None,
        "scheduler": asdict(run.scheduler),
        "interference_factor": run.interference_factor,
    }


def spec_from_contents(contents: dict, index: int = 0) -> RunSpec:
    """Rebuild a run spec from its stored contents (inverse of
    :func:`spec_contents` up to the grid ``index``)."""
    policy = contents["policy"]
    return RunSpec(
        index=index,
        scenario=contents["scenario"],
        workload=_workload_from_dict(contents["workload"]),
        cluster=ClusterRef(**contents["cluster"]),
        policy=PolicyRef(policy) if policy is not None else None,
        interference_factor=contents["interference_factor"],
        scheduler=SchedulerRef(**contents["scheduler"]),
    )


def content_key(run: RunSpec) -> str:
    """Stable content hash of a run spec (hex SHA-256 of its canonical JSON)."""
    payload = json.dumps(spec_contents(run), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- metrics (de)serialisation --------------------------------------------------------


def _pairs_to_payload(pairs: tuple[tuple[str, float], ...]) -> list[list]:
    return [[label, value] for label, value in pairs]


def _pairs_from_payload(payload: list) -> tuple[tuple[str, float], ...]:
    return tuple((label, value) for label, value in payload)


def metrics_to_payload(row: RunMetrics) -> dict:
    """A row's metrics as the JSON-able payload the store writes — also the
    executor transport's (:mod:`repro.exec.worker`) wire format: floats
    serialise via ``repr``, so rows survive the round trip byte-for-byte."""
    return {
        "workload_name": row.workload_name,
        "total_run_time": row.total_run_time,
        "average_response_time": row.average_response_time,
        "makespan_end": row.makespan_end,
        "response_times": _pairs_to_payload(row.response_times),
        "wait_times": _pairs_to_payload(row.wait_times),
        "run_times": _pairs_to_payload(row.run_times),
        "job_utilisation": _pairs_to_payload(row.job_utilisation),
    }


def metrics_from_payload(run: RunSpec, payload: dict) -> RunMetrics:
    """Inverse of :func:`metrics_to_payload`, bound to ``run``."""
    return RunMetrics(
        run=run,
        workload_name=payload["workload_name"],
        total_run_time=payload["total_run_time"],
        average_response_time=payload["average_response_time"],
        makespan_end=payload["makespan_end"],
        response_times=_pairs_from_payload(payload["response_times"]),
        wait_times=_pairs_from_payload(payload["wait_times"]),
        run_times=_pairs_from_payload(payload["run_times"]),
        job_utilisation=_pairs_from_payload(payload["job_utilisation"]),
    )


# -- the store ------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreEntry:
    """One persisted run: its key, spec contents and raw metrics payload."""

    key: str
    path: Path
    contents: dict
    metrics: dict

    #: Entries only ever decode from the current format.
    version = STORE_FORMAT_VERSION

    @property
    def run(self) -> RunSpec:
        return spec_from_contents(self.contents)

    def row(self, index: int = 0) -> RunMetrics:
        return metrics_from_payload(spec_from_contents(self.contents, index), self.metrics)


class ResultStore(ContentStore):
    """Content-addressed, mergeable store of :class:`RunMetrics` rows.

    Entries are whole-file JSON documents: a read parses the full file and
    accepts only ``STORE_FORMAT_VERSION``."""

    suffix = ".json"
    format_version = STORE_FORMAT_VERSION
    kind = "results"
    _NOUN = "entry"
    _UNITS = ("entry", "entries")
    _READ_ERRORS = (OSError, ValueError, KeyError, TypeError)
    _log = get_logger("results.store")

    def __init__(self, root: str | os.PathLike = DEFAULT_STORE_ROOT) -> None:
        super().__init__(root)

    # Bound in this class's own namespace: the benchmark's per-layer timers
    # (perfbench/layers.py) wrap ``ResultStore.__dict__["scan"]``.
    scan = ContentStore.scan

    def _read_entry(self, key: str, data: bytes | None = None) -> StoreEntry:
        path = self.path_for(key)
        payload = json.loads(path.read_bytes() if data is None else data)
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"entry {key[:12]} has store format {version!r}, "
                f"expected {STORE_FORMAT_VERSION}"
            )
        return StoreEntry(
            key=key, path=path, contents=payload["run"], metrics=payload["metrics"]
        )

    @staticmethod
    def _summarise(entry: StoreEntry) -> dict | None:
        """The render-ready fields of one entry — everything the ``ls`` table
        prints, precomputed once at write/index time so listings never
        rebuild N specs."""
        try:
            run = entry.run
            return {
                "scenario": entry.contents["scenario"],
                "workload": run.workload.label,
                "cluster": run.cluster.label,
                "policy": entry.contents["policy"] or "default",
                "scheduler": run.scheduler.label,
                "total_run_time": entry.metrics["total_run_time"],
                "average_response_time": entry.metrics["average_response_time"],
            }
        except (KeyError, TypeError, ValueError):
            return None

    def get(self, run: RunSpec, key: str | None = None) -> RunMetrics | None:
        """The stored row of ``run``'s cell, rebound to ``run``'s grid index,
        or ``None`` on a miss (including unreadable, old-format or otherwise
        malformed entries — a bad cache entry must mean "re-simulate", never
        abort the campaign).  ``key`` is an optional precomputed
        ``content_key(run)`` so batch scans hash each spec once."""
        entry = self._lookup(content_key(run) if key is None else key)
        if entry is None:
            return None
        try:
            row = metrics_from_payload(run, entry.metrics)
        except self._READ_ERRORS:
            return None
        self.index.note_read(entry.key)
        return row

    def put(self, row: RunMetrics) -> Path:
        """Persist one row under its content key (idempotent overwrite)."""
        key = content_key(row.run)
        entry = StoreEntry(
            key=key,
            path=self.path_for(key),
            contents=spec_contents(row.run),
            metrics=metrics_to_payload(row),
        )
        payload = {
            "version": STORE_FORMAT_VERSION,
            "key": key,
            "run": entry.contents,
            "run_id": row.run.cell_id,
            "metrics": entry.metrics,
        }
        data = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        path = self._write(key, data.encode("utf-8"), entry)
        self._log.debug("put %s (%s)", key[:12], row.run.cell_id)
        return path
