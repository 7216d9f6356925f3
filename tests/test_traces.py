"""Tests of the content-addressed trace tier (`repro.traces`).

Covers the store round trip (byte-identical artifacts, exact float
equality), the two-tier campaign memoisation contract ("skip execution only
when both tiers hit"), scenario replay equality against live executions, the
query engine, the CLI, merge/sharding, and the reader edge cases the
satellites call out (empty tracer, horizon-0 run, mask-change-only trace,
``EV_STEP_IPC_MILLI`` round trip through the compressed tier).
"""

from __future__ import annotations

import gzip
import json
import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    HighPriorityWorkloadRef,
    RunSpec,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
    run_scenario_pair,
)
from repro.experiments.usecase1 import imbalance_trace, scenario_timelines
from repro.experiments.usecase2 import run_usecase2
from repro.metrics.tracing import MaskChangeRecord, StepRecord, Tracer
from repro.results import ParaverTraceSink, ResultStore, content_key, prv_text, read_prv
from repro.results.sinks import EV_STEP_IPC_MILLI
from repro.traces import (
    TRACE_FORMAT_VERSION,
    ScenarioReplay,
    TraceReader,
    TraceStore,
)
from repro.traces.__main__ import main as traces_main
from repro.traces.store import _SEGMENT_PREFIX, _gzip_member, decode_steps, encode_steps
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


def small_spec(name: str = "traces", seeds=(0,)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        workloads=tuple(SyntheticWorkloadRef(spec=SMALL, seed=s) for s in seeds),
        clusters=(ClusterRef(nnodes=4),),
    )


@pytest.fixture(scope="module")
def traced_run():
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    return run, execute_run(run, trace=True)


class TestTraceStoreRoundTrip:
    def test_put_get_exact_equality(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        path = store.put(run, result)
        assert path == store.path_for(content_key(run))
        entry = store.get(run)
        assert entry is not None
        assert entry.tracer.steps() == result.tracer.steps()
        assert entry.tracer.mask_changes() == result.tracer.mask_changes()
        assert entry.header["end_time"] == result.end_time
        assert entry.header["scenario"] == run.scenario

    def test_reput_is_byte_identical(self, traced_run, tmp_path):
        # gzip mtime is pinned, so the artifact is a pure function of the
        # trace — re-puts and shard merges dedupe byte-wise.
        run, result = traced_run
        store = TraceStore(tmp_path)
        first = store.put(run, result).read_bytes()
        assert store.put(run, result).read_bytes() == first

    def test_same_key_as_metrics_tier(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        assert store.keys() == [content_key(run)]

    def test_contains_and_miss(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        assert run not in store
        assert store.get(run) is None
        store.put(run, result)
        assert run in store

    def test_stale_version_is_a_miss_and_gc_collects(self, traced_run, tmp_path):
        # Only the header member is rewritten, so the body and the byte
        # table still agree: the version alone makes the artifact a miss.
        # Every format but the current one reads as a miss — the pre-v5
        # case has its own coverage in tests/test_sched_obs.py.
        run, result = traced_run
        store = TraceStore(tmp_path)
        path = store.put(run, result)
        data = path.read_bytes()
        header, header_bytes = TraceStore._header_span(path)
        header["version"] = 2
        path.write_bytes(
            _gzip_member(json.dumps(header, sort_keys=True).encode())
            + data[header_bytes:]
        )
        assert run not in store
        assert store.get(run) is None
        assert store.gc(dry_run=True) == [content_key(run)]
        assert store.gc() == [content_key(run)]
        assert len(store) == 0

    def test_corrupt_artifact_is_a_miss(self, traced_run, tmp_path):
        run, _result = traced_run
        store = TraceStore(tmp_path)
        store.path_for(content_key(run)).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(content_key(run)).write_bytes(b"not gzip at all")
        assert store.get(run) is None
        assert list(store.entries()) == []

    def test_truncated_artifact_is_a_miss_and_collectable(self, traced_run, tmp_path):
        # Regression: a gzip stream cut mid-way (interrupted shard copy)
        # raises EOFError/zlib.error, which must read as a miss — never
        # abort a campaign — and must be gc-able.
        run, result = traced_run
        store = TraceStore(tmp_path)
        path = store.put(run, result)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert run not in store
        assert store.get(run) is None
        assert list(store.entries()) == []
        fresh = TraceStore(tmp_path / "fresh")
        assert fresh.merge(store) == 0
        assert store.gc() == [content_key(run)]
        assert not path.exists()

    def test_load_by_prefix(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        key = content_key(run)
        assert store.load(key[:10]).key == key
        with pytest.raises(KeyError, match="no trace"):
            store.load("ffffff")


#: Labels drawn from a small pool repeat across rows (exercising the string
#: table), plus short strings over an alphabet of ASCII, accented, CJK,
#: astral-plane, line-separator and lone-surrogate characters.
labels = st.sampled_from(["sim", "ana", "nœud-0", "相位", ""]) | st.text(
    alphabet='az09 -_"\\éœ相位\u2028\U0001f600\ud800', max_size=8
)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
doubles = st.floats() | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e308, -1e308]
)


@st.composite
def step_records(draw) -> StepRecord:
    nthreads = draw(st.integers(min_value=0, max_value=6))
    return StepRecord(
        job=draw(labels),
        rank=draw(int64s),
        node=draw(labels),
        start=draw(doubles),
        duration=draw(doubles),
        phase=draw(labels),
        nthreads=nthreads,
        thread_utilisation=tuple(
            draw(st.lists(doubles, min_size=nthreads, max_size=nthreads))
        ),
        ipc=draw(doubles),
        work_units=draw(doubles),
    )


def _bits(step: StepRecord) -> tuple:
    """A step with every float replaced by its IEEE bytes, so ``nan`` and
    ``-0.0`` compare bit for bit."""

    def exact(value):
        if isinstance(value, float):
            return struct.pack("<d", value)
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return (type(value), value)

    return tuple(map(exact, step))


def _split(segment: bytes) -> tuple[int, list[bytes]]:
    rows, *lengths = _SEGMENT_PREFIX.unpack_from(segment)
    parts, offset = [], _SEGMENT_PREFIX.size
    for length in lengths:
        parts.append(segment[offset : offset + length])
        offset += length
    return rows, parts


def _join(rows: int, parts: list[bytes]) -> bytes:
    return _SEGMENT_PREFIX.pack(rows, *map(len, parts)) + b"".join(parts)


class TestStepCodec:
    @given(st.lists(step_records(), max_size=8))
    def test_round_trip_is_bit_exact_and_reencodes_identically(self, steps):
        segment = encode_steps(steps)
        decoded = decode_steps(segment)
        assert list(map(_bits, decoded)) == list(map(_bits, steps))
        assert encode_steps(decoded) == segment

    @given(st.lists(step_records(), min_size=1, max_size=4))
    def test_trailing_byte_or_short_column_raises(self, steps):
        segment = encode_steps(steps)
        with pytest.raises(ValueError):
            decode_steps(segment + b"\0")
        with pytest.raises(ValueError):
            decode_steps(segment[:-1])
        rows, parts = _split(segment)
        # Every column, cut by a partial item or by a whole one, with the
        # prefix rewritten to match so only the column length is wrong.
        for column in range(1, len(parts)):
            for cut in (1, 8):
                if len(parts[column]) < cut:
                    continue
                short = list(parts)
                short[column] = short[column][:-cut]
                with pytest.raises(ValueError):
                    decode_steps(_join(rows, short))

    def test_utilisation_must_match_nthreads(self):
        step = StepRecord("j", 0, "n0", 0.0, 1.0, "p", 2, (1.0,), 1.0, 1.0)
        with pytest.raises(ValueError):
            encode_steps([step])


class TestTraceStoreMerge:
    def test_union_of_shards(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        shard_a, shard_b = spec.shard(2)
        store_a = TraceStore(tmp_path / "a")
        store_b = TraceStore(tmp_path / "b")
        run_campaign(shard_a, trace_store=store_a)
        run_campaign(shard_b, trace_store=store_b)
        merged = TraceStore(tmp_path / "merged")
        assert merged.merge(store_a) == len(store_a)
        assert merged.merge(store_b) == len(store_b)
        assert set(merged.keys()) == set(store_a.keys()) | set(store_b.keys())
        # The merged tier serves the full campaign without simulating.
        mstore = ResultStore(tmp_path / "metrics")
        run_campaign(spec, store=mstore)  # warm the metrics tier
        warm = run_campaign(spec, store=mstore, trace_store=merged)
        assert warm.executed == 0

    def test_local_current_entry_wins_and_stale_source_skipped(
        self, traced_run, tmp_path
    ):
        run, result = traced_run
        local = TraceStore(tmp_path / "local")
        remote = TraceStore(tmp_path / "remote")
        local.put(run, result)
        before = local.path_for(content_key(run)).read_bytes()
        remote.put(run, result)
        assert local.merge(remote) == 0
        assert local.path_for(content_key(run)).read_bytes() == before
        # A stale-format source artifact is never imported.
        stale = remote.path_for(content_key(run))
        stale.write_bytes(gzip.compress(b'{"record": "run", "version": 0}\n'))
        fresh = TraceStore(tmp_path / "fresh")
        assert fresh.merge(remote) == 0
        assert len(fresh) == 0


class TestTwoTierCampaign:
    def test_cold_then_warm_executes_zero(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_campaign(spec, store=store, trace_store=traces)
        assert cold.executed == spec.nruns and cold.cache_hits == 0
        assert len(traces) == spec.nruns
        warm = run_campaign(spec, store=store, trace_store=traces)
        assert warm.executed == 0 and warm.cache_hits == spec.nruns
        assert warm.rows == cold.rows

    def test_metrics_hit_trace_miss_resimulates_and_backfills(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        run_campaign(spec, store=store)  # metrics tier only
        backfill = run_campaign(spec, store=store, trace_store=traces)
        assert backfill.executed == spec.nruns  # trace misses force re-runs
        assert len(traces) == spec.nruns
        warm = run_campaign(spec, store=store, trace_store=traces)
        assert warm.executed == 0

    def test_pooled_writes_identical_artifacts(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        serial = TraceStore(tmp_path / "serial")
        pooled = TraceStore(tmp_path / "pooled")
        run_campaign(spec, workers=1, trace_store=serial)
        run_campaign(spec, workers=2, trace_store=pooled)
        assert serial.keys() == pooled.keys()
        for key in serial.keys():
            assert (
                serial.path_for(key).read_bytes() == pooled.path_for(key).read_bytes()
            )

    def test_pooled_warm_run_executes_zero(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_campaign(spec, workers=2, store=store, trace_store=traces)
        warm = run_campaign(spec, workers=2, store=store, trace_store=traces)
        assert cold.executed == spec.nruns and warm.executed == 0
        assert warm.rows == cold.rows


class TestScenarioReplay:
    def test_pair_replays_when_both_tiers_hit(self, tmp_path):
        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces
        )
        assert all(not r.replayed for r in cold.values())
        warm = run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces
        )
        assert all(isinstance(r, ScenarioReplay) and r.replayed for r in warm.values())
        for scenario in (SERIAL, DROM):
            live, replay = cold[scenario], warm[scenario]
            assert replay.tracer.steps() == live.tracer.steps()
            assert replay.tracer.mask_changes() == live.tracer.mask_changes()
            assert replay.metrics.total_run_time == live.metrics.total_run_time
            assert replay.metrics.response_times() == dict(
                live.metrics.response_times()
            )
            assert replay.metrics.wait_times() == dict(live.metrics.wait_times())
            assert replay.end_time == live.end_time
            assert replay.workload.name == live.workload.name
            for job in live.metrics.response_times():
                assert replay.job_utilisation(job) == pytest.approx(
                    live.job_utilisation(job)
                )

    def test_sinks_are_fed_on_replays(self, tmp_path):
        # Regression: replays carry a full tracer, so a warm pair must still
        # export through its sinks (the pre-tier behaviour), byte-identically.
        from repro.results import JsonlTraceSink

        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces,
            sinks=(JsonlTraceSink(cold_dir),),
        )
        warm = run_scenario_pair(
            ref, cluster=ClusterRef(nnodes=4), store=store, trace_store=traces,
            sinks=(JsonlTraceSink(warm_dir),),
        )
        assert all(r.replayed for r in warm.values())
        cold_files = sorted(p.name for p in cold_dir.glob("*.jsonl"))
        warm_files = sorted(p.name for p in warm_dir.glob("*.jsonl"))
        assert cold_files == warm_files and len(warm_files) == 2
        for name in warm_files:
            assert (warm_dir / name).read_text() == (cold_dir / name).read_text()

    def test_metrics_only_store_still_executes(self, tmp_path):
        # A metrics-only hit has no tracer to return: the pair takes both
        # tiers or neither.
        ref = SyntheticWorkloadRef(spec=SMALL, seed=0)
        for tier in (
            {"store": ResultStore(tmp_path / "m")},
            {"trace_store": TraceStore(tmp_path / "t")},
        ):
            with pytest.raises(ValueError, match="both store tiers or neither"):
                run_scenario_pair(ref, cluster=ClusterRef(nnodes=4), **tier)


class TestWarmFigures:
    def test_usecase2_warm_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = run_usecase2(store=store, trace_store=traces)
        warm = run_usecase2(store=store, trace_store=traces)
        assert cold.executed == 2 and warm.executed == 0
        for scenario in ("serial", "drom"):
            assert warm.cycles_rendering(scenario) == cold.cycles_rendering(scenario)
            for job, hist in cold.ipc_histograms(scenario).items():
                assert (warm.ipc_histograms(scenario)[job] == hist).all()
        assert warm.ipc_comparison() == cold.ipc_comparison()
        assert warm.total_run_time_gain == cold.total_run_time_gain
        assert warm.wait_times() == cold.wait_times()
        assert warm.coreneuron_expanded() == cold.coreneuron_expanded()

    def test_usecase2_shares_cells_with_the_fig15_campaign(self, tmp_path):
        # run_usecase2's scenario pair and usecase2_responses' campaign use
        # the same workload reference, so one warm store serves Figs 13-15.
        run = RunSpec(index=0, scenario=SERIAL, workload=HighPriorityWorkloadRef())
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        run_usecase2(store=store, trace_store=traces)
        assert content_key(run) in store.keys()
        assert content_key(run) in traces.keys()

    def test_scenario_timelines_warm_equality(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = scenario_timelines(store=store, trace_store=traces)
        warm = scenario_timelines(store=store, trace_store=traces)
        assert warm == cold  # frozen dataclasses: rendering + intervals

    def test_imbalance_trace_warm_equality(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        traces = TraceStore(tmp_path / "t")
        cold = imbalance_trace(store=store, trace_store=traces)
        warm = imbalance_trace(store=store, trace_store=traces)
        assert warm == cold


class TestTraceReader:
    def test_queries_match_tracer(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        reader = TraceReader(store.get(run))
        assert reader.jobs() == result.tracer.jobs()
        intervals = reader.job_intervals()
        for job in reader.jobs():
            assert intervals[job] == result.tracer.span(job)
            assert reader.ipc_series(job) == [
                (s.start, s.ipc) for s in result.tracer.steps(job)
            ]
        assert reader.mask_change_sequence() == result.tracer.mask_changes()
        assert reader.render_job_widths(bin_seconds=100.0)

    def test_team_size_series_tracks_mask_changes(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path)
        store.put(run, result)
        reader = TraceReader(store.get(run))
        changed = {c.job for c in result.tracer.mask_changes()}
        assert changed, "DROM run should observe mask changes"
        for job in changed:
            ranks = {c.rank for c in result.tracer.mask_changes(job)}
            for rank in ranks:
                series = reader.team_size_series(job, rank)
                changes = [
                    c for c in result.tracer.mask_changes(job) if c.rank == rank
                ]
                assert series[0] == (0.0, changes[0].old_threads)
                assert series[1:] == [(c.time, c.new_threads) for c in changes]

    def test_ipc_histogram_matches_counter_log(self, traced_run):
        _run, result = traced_run
        reader = TraceReader(result.tracer)
        job = result.tracer.jobs()[0]
        total = reader.ipc_histogram(job)
        per_thread = result.tracer.counter_log().ipc_histogram(job)
        assert total.sum() == sum(c.sum() for c in per_thread.values())


class TestReaderEdgeCases:
    """Satellite: read_prv/read_jsonl edge cases through the compressed tier."""

    @staticmethod
    def _store_and_reload(tmp_path, tracer: Tracer, scenario: str = SERIAL):
        """Round-trip a hand-built tracer through a TraceStore artifact."""
        from repro.workload.runner import ScenarioResult

        run = RunSpec(
            index=0,
            scenario=scenario,
            workload=SyntheticWorkloadRef(spec=SMALL, seed=99),
            cluster=ClusterRef(nnodes=4),
        )
        ends = [s.end for s in tracer]
        result = ScenarioResult(
            scenario=scenario,
            workload=run.workload.build(),
            metrics=None,
            tracer=tracer,
            jobs={},
            end_time=max(ends) if ends else 0.0,
        )
        store = TraceStore(tmp_path)
        store.put(run, result)
        return store.get(run)

    def test_empty_tracer_round_trip(self, tmp_path):
        entry = self._store_and_reload(tmp_path, Tracer())
        assert len(entry.tracer) == 0
        assert entry.tracer.mask_changes() == []
        reader = TraceReader(entry)
        assert reader.job_intervals() == {}
        # The .prv export of an empty trace still has a valid header.
        out = tmp_path / "empty.prv"
        out.write_text(prv_text(entry.tracer))
        header, states, events = read_prv(out)
        assert header.startswith("#Paraver") and states == [] and events == []

    def test_horizon_zero_run(self, tmp_path):
        # All steps have zero duration at t=0: the horizon is 0 but the
        # trace is non-empty, and every derived view must stay well-formed.
        tracer = Tracer()
        tracer.record_step(
            StepRecord(
                job="j", rank=0, node="n0", start=0.0, duration=0.0, phase="p",
                nthreads=2, thread_utilisation=(1.0, 1.0), ipc=1.5, work_units=1.0,
            )
        )
        entry = self._store_and_reload(tmp_path, tracer)
        reader = TraceReader(entry)
        assert reader.job_intervals() == {"j": (0.0, 0.0)}
        assert reader.view().horizon() == 0.0
        out = tmp_path / "h0.prv"
        out.write_text(prv_text(entry.tracer))
        header, states, events = read_prv(out)
        assert ":0_us:" in header
        assert len(states) == 2 and len(events) == 1

    def test_mask_change_only_trace(self, tmp_path):
        tracer = Tracer()
        tracer.record_mask_change(
            MaskChangeRecord(job="j", rank=0, time=1.0, old_threads=4, new_threads=2)
        )
        entry = self._store_and_reload(tmp_path, tracer, scenario=DROM)
        assert len(entry.tracer) == 0
        assert entry.tracer.mask_changes() == tracer.mask_changes()
        reader = TraceReader(entry)
        assert reader.team_size_series("j") == [(0.0, 4), (1.0, 2)]
        # The .prv export drops the unanchorable event but stays valid.
        out = tmp_path / "mask.prv"
        out.write_text(prv_text(entry.tracer))
        header, states, events = read_prv(out)
        assert header.startswith("#Paraver") and states == [] and events == []

    def test_step_ipc_milli_round_trip(self, traced_run, tmp_path):
        # EV_STEP_IPC_MILLI values exported from a store-replayed tracer must
        # equal the live export's, line for line.
        run, result = traced_run
        store = TraceStore(tmp_path / "t")
        store.put(run, result)
        live = prv_text(result.tracer)
        replayed = prv_text(store.get(run).tracer)
        assert replayed == live  # full byte equality, a fortiori the events
        marker = f":{EV_STEP_IPC_MILLI}:"
        ipc_events = [l for l in live.splitlines() if marker in l]
        assert ipc_events, "expected per-step IPC events"
        expected = [int(round(s.ipc * 1000)) for s in result.tracer]
        values = [
            int(line.split(marker, 1)[1].split(":", 1)[0]) for line in ipc_events
        ]
        assert values == expected


class TestTracesCli:
    @pytest.fixture()
    def populated(self, traced_run, tmp_path):
        run, result = traced_run
        store = TraceStore(tmp_path / "t")
        store.put(run, result)
        return run, result, store

    def test_ls_and_show(self, populated, capsys):
        run, _result, store = populated
        assert traces_main(["ls", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert content_key(run)[:12] in out and "drom" in out
        assert traces_main(["show", content_key(run)[:10], "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "scenario  drom" in out

    def test_show_unknown_key(self, populated, capsys):
        _run, _result, store = populated
        assert traces_main(["show", "ffff", "--store", str(store.root)]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_export_prv_matches_live_sink(self, populated, tmp_path, capsys):
        run, result, store = populated
        live = ParaverTraceSink(tmp_path / "live").write(run, result)
        out_dir = tmp_path / "exported"
        assert traces_main([
            "export", content_key(run)[:10], "--store", str(store.root),
            "--out", str(out_dir),
        ]) == 0
        exported = list(out_dir.glob("*.prv"))
        assert len(exported) == 1
        assert exported[0].read_text() == live.read_text()
        # Re-export overwrites (content-keyed stem), never accumulates.
        assert traces_main([
            "export", content_key(run)[:10], "--store", str(store.root),
            "--out", str(out_dir),
        ]) == 0
        assert len(list(out_dir.glob("*.prv"))) == 1

    def test_export_jsonl_renders_the_live_records(self, populated, tmp_path, capsys):
        # The artifact's step segments are binary, so the export renders
        # the record stream: the header line, then one sorted-key JSON line
        # per step, mask-change and scheduler record, equal to the live
        # tracer's to_record() lines.
        run, result, store = populated
        out_dir = tmp_path / "exported"
        assert traces_main([
            "export", content_key(run)[:10], "--store", str(store.root),
            "--format", "jsonl", "--out", str(out_dir),
        ]) == 0
        exported = list(out_dir.glob("*.jsonl"))
        assert len(exported) == 1
        text = exported[0].read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        header = json.loads(lines[0])
        assert header == store.get(run).header
        assert header["record"] == "run" and header["key"] == content_key(run)
        live = [
            json.dumps(record, sort_keys=True)
            for record in (
                *(step.to_record() for step in result.tracer),
                *(change.to_record() for change in result.tracer.mask_changes()),
                *result.sched.to_records(),
            )
        ]
        assert lines[1:] == live
        assert sum(json.loads(line)["record"] == "step" for line in lines) == len(
            result.tracer
        )

    def test_gc_collects_stale_artifact(self, populated, capsys):
        run, _result, store = populated
        path = store.path_for(content_key(run))
        path.write_bytes(gzip.compress(b'{"record": "run", "version": 0}\n'))
        assert traces_main(["gc", "--store", str(store.root)]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert path.exists()
        assert traces_main(["gc", "--store", str(store.root), "--delete"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not path.exists()


class TestMergeCliWithTraces:
    def test_merge_ships_both_tiers(self, tmp_path, capsys):
        from repro.results.__main__ import main as results_main

        spec = small_spec(seeds=(0, 1))
        shards = spec.shard(2)
        for i, shard in enumerate(shards):
            run_campaign(
                shard,
                store=ResultStore(tmp_path / f"m{i}"),
                trace_store=TraceStore(tmp_path / f"t{i}"),
            )
        code = results_main([
            "merge", str(tmp_path / "m"), str(tmp_path / "m0"), str(tmp_path / "m1"),
            "--traces", str(tmp_path / "t"), str(tmp_path / "t0"), str(tmp_path / "t1"),
        ])
        assert code == 0
        warm = run_campaign(
            spec, store=ResultStore(tmp_path / "m"), trace_store=TraceStore(tmp_path / "t")
        )
        assert warm.executed == 0 and warm.cache_hits == spec.nruns

    def test_merge_traces_needs_target_and_shard(self, tmp_path, capsys):
        from repro.results.__main__ import main as results_main

        (tmp_path / "m0").mkdir()
        code = results_main([
            "merge", str(tmp_path / "m"), str(tmp_path / "m0"),
            "--traces", str(tmp_path / "t"),
        ])
        assert code == 2
        assert "--traces" in capsys.readouterr().err

    def test_merge_missing_trace_shard_fails(self, tmp_path, capsys):
        from repro.results.__main__ import main as results_main

        (tmp_path / "m0").mkdir()
        code = results_main([
            "merge", str(tmp_path / "m"), str(tmp_path / "m0"),
            "--traces", str(tmp_path / "t"), str(tmp_path / "missing"),
        ])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
