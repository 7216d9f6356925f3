"""Tests of the lifecycle both store tiers share (`repro.store.content`).

Every test runs against the metrics tier and the trace tier alike: a rule
about stale entries, membership, merging or ``gc`` holds for both because
both inherit it from one :class:`~repro.store.ContentStore`.
"""

from __future__ import annotations

import json
import pathlib
import pickle

import pytest

from repro.campaign import ClusterRef, RunSpec, SyntheticWorkloadRef, execute_run
from repro.campaign.runner import summarise_run
from repro.results.__main__ import main as results_cli
from repro.results.store import ResultStore, content_key
from repro.traces.__main__ import main as traces_cli
from repro.traces.store import TRACE_FORMAT_VERSION, TraceStore, _gzip_member
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


@pytest.fixture(scope="module")
def cell():
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    return run, execute_run(run, trace=True)


def _stale_metrics(data: bytes) -> bytes:
    payload = json.loads(data)
    payload["version"] = 1
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _with_trace_version(data: bytes, version: int) -> bytes:
    """The artifact ``data`` with only its header member rewritten to claim
    format ``version``; the body members are kept byte for byte."""
    header, header_bytes = TraceStore._header_span(pathlib.Path("artifact"), data)
    header["version"] = version
    return _gzip_member(json.dumps(header, sort_keys=True).encode()) + data[header_bytes:]


def _stale_trace(data: bytes) -> bytes:
    return _with_trace_version(data, 2)


#: tier name -> (store factory, put of the cell, stale rewrite of its bytes,
#: gc CLI entry point, the gc CLI's unit).
TIERS = {
    "results": (
        ResultStore,
        lambda store, run, result: store.put(summarise_run(run, result)),
        _stale_metrics,
        results_cli,
        "entr(y/ies)",
    ),
    "traces": (
        TraceStore,
        lambda store, run, result: store.put(run, result),
        _stale_trace,
        traces_cli,
        "trace(s)",
    ),
}


@pytest.fixture(params=sorted(TIERS))
def tier(request):
    return TIERS[request.param]


def _filled(tier, cell, root):
    """A store of the tier holding the cell, and the cell's key."""
    make, put, *_ = tier
    run, result = cell
    store = make(root)
    put(store, run, result)
    return store, content_key(run)


class TestContainment:
    def test_stale_entry_is_not_contained(self, tier, cell, tmp_path):
        # Regression: the metrics tier used to answer True for any existing
        # file, even one whose get() misses.
        stale = tier[2]
        run, _result = cell
        store, key = _filled(tier, cell, tmp_path / "s")
        path = store.path_for(key)
        path.write_bytes(stale(path.read_bytes()))
        assert store.get(run) is None
        assert run not in store

    def test_corrupt_entry_is_not_contained(self, tier, cell, tmp_path):
        run, _result = cell
        store, key = _filled(tier, cell, tmp_path / "s")
        store.path_for(key).write_bytes(b"[1, 2")
        assert store.get(run) is None
        assert run not in store
        assert list(store.entries()) == []
        assert store.gc() == [key]


class TestMerge:
    def test_merge_copies_the_bytes_it_validated(self, tier, cell, tmp_path, monkeypatch):
        # The source file is swapped for garbage after any validation that
        # opens it but before Path.read_bytes reads it: whatever merge
        # writes must be the bytes it checked.
        source, key = _filled(tier, cell, tmp_path / "src")
        swapped = source.path_for(key)
        read_bytes = pathlib.Path.read_bytes

        def swapping_read(path):
            if path == swapped:
                with open(path, "wb") as stream:
                    stream.write(b"not an entry")
            return read_bytes(path)

        monkeypatch.setattr(pathlib.Path, "read_bytes", swapping_read)
        target = tier[0](tmp_path / "dst")
        copied = target.merge(source)
        monkeypatch.undo()
        assert [entry.key for entry in target.entries()] == target.keys()
        assert copied == len(target.keys())

    def test_merge_indexes_the_version_it_copied(self, cell, tmp_path):
        # A current artifact is indexed as the current version, both by the
        # merge and by an index rebuild of the merged store; a v4 source
        # (an older format, read as a miss) is skipped and never indexed.
        source, key = _filled(TIERS["traces"], cell, tmp_path / "src")
        path = source.path_for(key)
        current = path.read_bytes()
        target = TraceStore(tmp_path / "dst")
        assert target.merge(source) == 1
        assert target.index.live_entries()[key].version == TRACE_FORMAT_VERSION
        target.index.path.unlink()
        rebuilt = TraceStore(tmp_path / "dst")
        assert rebuilt.index.live_entries()[key].version == TRACE_FORMAT_VERSION

        path.write_bytes(_with_trace_version(current, 4))
        fresh = TraceStore(tmp_path / "fresh")
        assert fresh.merge(source) == 0
        assert key not in fresh.index.live_entries()
        assert fresh.keys() == []


class TestLifecycle:
    def test_pickling_drops_the_index(self, tier, cell, tmp_path):
        store, _key = _filled(tier, cell, tmp_path / "s")
        assert store.index.scan()
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is type(store)
        assert clone._index is None
        assert vars(clone) == {**vars(store), "_index": None}
        assert clone.keys() == store.keys()

    def test_gc_cli_filters_by_scenario(self, tier, cell, tmp_path, capsys):
        cli, unit = tier[3], tier[4]
        store, key = _filled(tier, cell, tmp_path / "s")
        assert cli(["gc", "--store", str(store.root), "--scenario", "serial"]) == 0
        assert capsys.readouterr().out == f"gc {store.root}: would remove 0 {unit}\n"
        assert cli(["gc", "--store", str(store.root), "--scenario", DROM,
                    "--workload-contains", "seed=0", "--delete"]) == 0
        assert capsys.readouterr().out == (
            f"gc {store.root}: removed 1 {unit}\n  {key[:12]}\n"
        )
        assert store.keys() == []
