"""Tests of the per-run trace sinks (.prv-style + JSONL) and their round trips."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignSpec,
    ClusterRef,
    RunSpec,
    SyntheticWorkloadRef,
    execute_run,
    run_campaign,
    run_scenario_pair,
)
from repro.results.sinks import (
    EV_THREAD_COUNT,
    JsonlTraceSink,
    ParaverTraceSink,
    read_jsonl_trace,
    read_prv,
    run_stem,
)
from repro.results.store import ResultStore, content_key
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


@pytest.fixture(scope="module")
def traced_run():
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    return run, execute_run(run, trace=True)


class TestJsonlSink:
    def test_round_trip(self, traced_run, tmp_path):
        run, result = traced_run
        path = JsonlTraceSink(tmp_path).write(run, result)
        assert path.name == f"{run_stem(run)}.jsonl"
        header, tracer = read_jsonl_trace(path)
        assert header["key"] == content_key(run)
        assert header["scenario"] == run.scenario
        assert header["end_time"] == result.end_time
        # The trace itself survives byte-exactly (floats round-trip via repr).
        assert tracer.steps() == result.tracer.steps()
        assert tracer.mask_changes() == result.tracer.mask_changes()

    def test_rewrite_overwrites(self, traced_run, tmp_path):
        run, result = traced_run
        sink = JsonlTraceSink(tmp_path)
        first = sink.write(run, result).read_text()
        assert sink.write(run, result).read_text() == first
        assert len(list(tmp_path.glob("*.jsonl"))) == 1

    def test_same_cell_from_two_campaigns_writes_one_file(self, traced_run, tmp_path):
        # Regression: run_stem used to embed the grid index, so the same
        # cell reached from two campaigns accumulated duplicate files,
        # contradicting the content-addressing contract.  The index now
        # survives only as a JSON header field.
        import dataclasses
        import json

        run, result = traced_run
        moved = dataclasses.replace(run, index=17)
        assert content_key(moved) == content_key(run)
        assert run_stem(moved) == run_stem(run)
        sink = JsonlTraceSink(tmp_path)
        sink.write(run, result)
        path = sink.write(moved, result)
        assert len(list(tmp_path.glob("*.jsonl"))) == 1
        header = json.loads(path.read_text().splitlines()[0])
        assert header["index"] == 17
        # The sidecar run id carries no grid index (it is shared by design).
        assert not header["run_id"].split("|", 1)[0].isdigit()

    def test_header_required(self, tmp_path):
        bad = tmp_path / "x.jsonl"
        step = {
            "record": "step", "job": "j", "rank": 0, "node": "n0", "start": 0.0,
            "duration": 1.0, "phase": "p", "nthreads": 1,
            "thread_utilisation": [1.0], "ipc": 1.0, "work_units": 1.0,
        }
        import json

        bad.write_text(json.dumps(step) + "\n")
        with pytest.raises(ValueError, match="no run header"):
            read_jsonl_trace(bad)

    def test_unknown_record_rejected(self, tmp_path):
        bad = tmp_path / "x.jsonl"
        bad.write_text('{"record": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record"):
            read_jsonl_trace(bad)


class TestParaverSink:
    def test_prv_structure(self, traced_run, tmp_path):
        run, result = traced_run
        path = ParaverTraceSink(tmp_path).write(run, result)
        assert path.name == f"{run_stem(run)}.prv"
        header, states, events = read_prv(path)
        assert header.startswith("#Paraver")
        # One state record per step per thread.
        expected_states = sum(step.nthreads for step in result.tracer)
        assert len(states) == expected_states
        # Per-step events plus one per recorded mask change.
        nsteps = len(result.tracer)
        nchanges = len(result.tracer.mask_changes())
        assert len(events) == nsteps + nchanges
        # Times are integer microseconds and monotonically sorted.
        times = [int(line.split(":")[5]) for line in events]
        assert times == sorted(times)

    def test_mask_change_events_carry_team_size(self, traced_run, tmp_path):
        run, result = traced_run
        _header, _states, events = read_prv(ParaverTraceSink(tmp_path).write(run, result))
        changes = result.tracer.mask_changes()
        assert changes, "DROM run should observe mask changes"
        marker = f":{EV_THREAD_COUNT}:"
        values = [
            int(line.rsplit(":", 1)[1]) for line in events if marker in line
        ]
        assert values == [change.new_threads for change in changes]

    def test_mask_change_events_carry_the_ranks_node(self, traced_run, tmp_path):
        # The cpu field of a mask-change event must match the node the
        # (job, rank) runs on in the state records, not a fixed placeholder.
        run, result = traced_run
        _header, states, events = read_prv(ParaverTraceSink(tmp_path).write(run, result))
        rank_cpu = {}
        for line in states:
            fields = line.split(":")
            rank_cpu[(int(fields[2]), int(fields[3]))] = int(fields[1])
        assert len(set(rank_cpu.values())) > 1, "trace should span several nodes"
        marker = f":{EV_THREAD_COUNT}:"
        checked = 0
        for line in events:
            if marker not in line:
                continue
            fields = line.split(":")
            assert int(fields[1]) == rank_cpu[(int(fields[2]), int(fields[3]))]
            checked += 1
        assert checked == len(result.tracer.mask_changes())

    def test_not_a_prv_file_rejected(self, tmp_path):
        bad = tmp_path / "x.prv"
        bad.write_text("hello\n")
        with pytest.raises(ValueError, match="not a .prv"):
            read_prv(bad)

    def test_empty_tracer_still_writes_header(self, tmp_path):
        run = RunSpec(
            index=0,
            scenario=SERIAL,
            workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
            cluster=ClusterRef(nnodes=4),
        )
        result = execute_run(run, trace=False)  # tracer stays empty
        header, states, events = read_prv(ParaverTraceSink(tmp_path).write(run, result))
        assert header.startswith("#Paraver")
        assert states == [] and events == []


class TestCampaignSinkIntegration:
    def test_traced_campaign_writes_one_pair_per_run(self, tmp_path):
        spec = CampaignSpec(
            name="sinks",
            workloads=(SyntheticWorkloadRef(spec=SMALL, seed=0),),
            clusters=(ClusterRef(nnodes=4),),
        )
        sinks = (ParaverTraceSink(tmp_path / "prv"), JsonlTraceSink(tmp_path / "jsonl"))
        result = run_campaign(spec, sinks=sinks)
        assert result.executed == spec.nruns
        prv = sorted((tmp_path / "prv").glob("*.prv"))
        jsonl = sorted((tmp_path / "jsonl").glob("*.jsonl"))
        assert len(prv) == len(jsonl) == spec.nruns
        # Stems pair up across the two sinks and embed the content keys.
        assert [p.stem for p in prv] == [j.stem for j in jsonl]
        for run in spec.expand():
            assert run_stem(run) in {p.stem for p in prv}

    def test_pooled_campaign_writes_the_same_files(self, tmp_path):
        spec = CampaignSpec(
            name="sinks-pool",
            workloads=(SyntheticWorkloadRef(spec=SMALL, seed=0),),
            clusters=(ClusterRef(nnodes=4),),
        )
        serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
        run_campaign(spec, workers=1, sinks=(JsonlTraceSink(serial_dir),))
        run_campaign(spec, workers=2, sinks=(JsonlTraceSink(pooled_dir),))
        serial_files = sorted(serial_dir.glob("*.jsonl"))
        pooled_files = sorted(pooled_dir.glob("*.jsonl"))
        assert [p.name for p in serial_files] == [p.name for p in pooled_files]
        for a, b in zip(serial_files, pooled_files):
            assert a.read_text() == b.read_text()

    def test_cache_hits_are_not_re_exported(self, tmp_path):
        spec = CampaignSpec(
            name="sinks-store",
            workloads=(SyntheticWorkloadRef(spec=SMALL, seed=0),),
            clusters=(ClusterRef(nnodes=4),),
        )
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store=store)
        warm = run_campaign(
            spec, store=store, sinks=(JsonlTraceSink(tmp_path / "traces"),)
        )
        assert warm.executed == 0
        assert not (tmp_path / "traces").exists()

    def test_scenario_pair_sinks(self, tmp_path):
        results = run_scenario_pair(
            SyntheticWorkloadRef(spec=SMALL, seed=1),
            cluster=ClusterRef(nnodes=4),
            sinks=(JsonlTraceSink(tmp_path),),
        )
        files = sorted(tmp_path.glob("*.jsonl"))
        assert len(files) == 2
        assert {SERIAL, DROM} == set(results)
        scenarios = {read_jsonl_trace(f)[0]["scenario"] for f in files}
        assert scenarios == {SERIAL, DROM}
