"""The repository benchmark: end-to-end and per-layer metrics of the DROM
reproduction's campaign stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_sweep --seed 0 --seconds 10 --trace 0

Workloads (all closed loop, one client, one outstanding operation):

* ``cold_sweep`` -- serial ``run_campaign`` with both store tiers from empty
  roots: heavy-tailed job sizes, bursty arrivals, backfill off and on, the
  serial and DROM scenarios.  It runs the whole write path.
* ``warm_query`` -- the tiers are populated during set-up; each pass is one
  fully warm ``run_campaign`` (0 cells may execute) and a fixed mix of
  ``TraceReader`` queries, each opening its artifact through
  ``TraceStore.get``.  Reads only, no simulation.
* ``remote_sweep`` -- a cold campaign without tiers through
  ``SSHExecutor(host=None, slots=nproc)``: worker start-up, the JSON stream
  protocol and the untraced simulation core.

``--trace 0`` reports the end-to-end metrics with no instrumentation:

* ``cells_per_s`` -- cells completed per second of campaign wall time
  (executed cells on cold_sweep and remote_sweep, warm cells served on
  warm_query), median over the campaigns of the run;
* ``op_p50_ms`` -- median latency of one operation: one cell on cold_sweep
  (between consecutive trace-tier writes), one query counted from its
  ``TraceStore.get`` on warm_query, one ``run_cell`` round trip on
  remote_sweep (the p95 is printed, and reported per layer by ``--trace 1``
  from its untraced half);
* ``setup_s`` -- median time a fresh interpreter takes before the timed
  part (importing the workload's entry modules, plus populating the tiers on
  warm_query), over several set-ups;
* ``peak_rss_mb`` -- peak resident memory of the benchmark process.

The three timings are reported at one reference machine speed: between
passes the run times a fixed calibration workload (``harness.calibrate``),
and scales its timings by ``CALIBRATION_REF_S`` over the calibration's
median.  The raw values are printed next to the reported ones.

``--trace 1`` spends the first half of the time untraced and the second half
with timing wrappers on the layers' public functions (``layers.py``), and
reports the per-layer metrics per pass (one campaign; on warm_query, one
campaign and its queries), the tracing overhead, and the share of traced
wall time the wrappers cover.  On remote_sweep the loopback workers record
their own layers (``worker_site/``), summed over the workers.

Every run checks its outputs: rows must match a reference computed outside
the campaign runner and tiers, whose digest is pinned per seed (0 to 63) in
``pinned.json``; warm rows must equal cold rows and warm campaigns execute
nothing; two cold runs must write identical trace bytes; every query answer
must match the live trace's.  Each mismatch or exception is a failed
operation.  Seed 7919 is held out: never pinned nor used while tuning, for
re-checking a claim on unseen inputs.  ``check.py`` is the self-test.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
PINS = HERE / "pinned.json"

#: Campaigns each run must complete at least, whatever ``--seconds`` says:
#: the trace-byte identity check needs two cold runs.
MIN_REPS = 2
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = {"cold_sweep": 5, "warm_query": 3, "remote_sweep": 5}
#: ``-X importtime`` samples per traced run; each group reports its median.
IMPORT_SAMPLES = 3
#: Entry points whose import the ``import.*`` metrics roll up.
IMPORT_ENTRY = {
    "cold_sweep": ("repro.campaign.__main__",),
    "warm_query": ("repro.campaign.__main__",),
    # A worker imports its cell-execution modules on its first request.
    "remote_sweep": ("repro.exec.worker", "repro.campaign.runner", "repro.results.store"),
}
REPRO_SUBPACKAGES = (
    "apps",
    "campaign",
    "core",
    "cpuset",
    "exec",
    "experiments",
    "metrics",
    "obs",
    "results",
    "runtime",
    "sim",
    "slurm",
    "store",
    "traces",
    "workload",
)


def _env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else f"{SRC}{os.pathsep}{existing}"
    return env


# -- set-up ------------------------------------------------------------------------


def setup_child(workload: str, seed: int, scale: str, root: str) -> int:
    """Body of one fresh-interpreter set-up (``--setup-child``)."""
    import importlib

    for module in harness.ENTRY_MODULES[workload]:
        importlib.import_module(module)
    if workload == "warm_query":
        from repro.campaign.runner import run_campaign
        from repro.results.store import ResultStore
        from repro.traces.store import TraceStore

        run_campaign(
            harness.build_spec(workload, seed, scale),
            store=ResultStore(Path(root) / "metrics"),
            trace_store=TraceStore(Path(root) / "traces"),
        )
    return 0


def measure_setups(args, work: Path) -> tuple[list[float], Path]:
    """Time ``SETUPS[workload]`` fresh set-ups (one in a traced run, which
    reports no ``setup_s``); returns the times and the root the last one
    populated."""
    times = []
    root = work
    count = SETUPS[args.workload] if args.scale == "full" else 2
    for i in range(1 if args.trace else count):
        root = work / f"setup-{i}"
        argv = [
            sys.executable,
            str(HERE / "run.py"),
            "--setup-child",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--scale",
            args.scale,
            "--root",
            str(root),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        if args.workload == "warm_query" and i:
            shutil.rmtree(work / f"setup-{i - 1}", ignore_errors=True)
    return times, root


def import_rollup(workload: str) -> dict[str, float]:
    """Median per-group import self time (s) of a fresh interpreter importing
    the workload's entry point, from ``-X importtime``."""
    code = "; ".join(f"import {module}" for module in IMPORT_ENTRY[workload])
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        groups = {"total": 0.0, "numpy": 0.0}
        groups.update({f"repro.{sub}": 0.0 for sub in REPRO_SUBPACKAGES})
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, _cumulative, name = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue  # the column header
            seconds = int(own) / 1e6
            name = name.strip()
            parts = name.split(".")
            groups["total"] += seconds
            if parts[0] == "numpy":
                groups["numpy"] += seconds
            elif parts[0] == "repro" and len(parts) > 1 and f"repro.{parts[1]}" in groups:
                groups[f"repro.{parts[1]}"] += seconds
        for key, value in groups.items():
            samples.setdefault(key, []).append(value)
    return {key: harness.median(values) for key, values in samples.items()}


# -- metrics -----------------------------------------------------------------------


def _metric_names(section: str) -> list[tuple[str, str]]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def end_to_end(tally, setups: list[float]) -> dict[str, tuple[float, float, list[float]]]:
    """name -> (reported value, raw value, raw samples) of every end-to-end
    metric.  Timings are reported at the calibration's reference speed."""
    scale = harness.CALIBRATION_REF_S / harness.median(tally.calibration)
    rates = [c / w for c, w in zip(tally.cells, tally.walls)]
    ops_ms = [x * 1e3 for x in tally.ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "cells_per_s": (harness.median(rates), rates, 1 / scale),
        "op_p50_ms": (harness.percentile(ops_ms, 50), ops_ms, scale),
        "setup_s": (harness.median(setups), setups, scale),
        "peak_rss_mb": (rss_mb, [rss_mb], 1.0),
    }
    return {
        name: (value * factor, value, samples)
        for name, (value, samples, factor) in raw.items()
    }


def per_layer(args, tally, recorder, untraced, traced) -> dict[str, float]:
    """name -> value of every per-layer metric (time metrics per pass)."""
    reps = max(1, len(traced.passes))
    traced_wall = sum(traced.passes)
    stats = recorder.stats
    counts = recorder.counts
    cells = sum(traced.cells) or 1

    def own(name: str) -> float:
        return stats[name].own / reps

    def calls(name: str) -> float:
        return stats[name].calls / reps

    covered = recorder.covered()
    values = {
        "key.content_key_calls": calls("key.content_key"),
        "key.content_key_per_cell": stats["key.content_key"].calls / cells,
        "key.content_key_s": own("key.content_key"),
        "key.spec_contents_calls": calls("key.spec_contents"),
        "key.spec_contents_s": own("key.spec_contents"),
        "campaign.expand_s": own("campaign.expand"),
        "campaign.summarise_s": own("campaign.summarise"),
        "build.workload_s": own("build.workload"),
        "build.cluster_s": own("build.cluster"),
        "simulate.run_s": own("simulate.run"),
        "simulate.steps": counts["simulate.steps"] / reps,
        "simulate.events": counts["simulate.events"] / reps,
        "simulate.batches": counts["simulate.batches"] / reps,
        "simulate.steps_per_s": (
            counts["simulate.steps"] / stats["simulate.run"].total
            if stats["simulate.run"].total
            else 0.0
        ),
        "slurm.submit_s": own("slurm.submit"),
        "slurm.schedule_calls": calls("slurm.schedule"),
        "slurm.schedule_s": own("slurm.schedule"),
        "slurm.decisions_per_pass": (
            counts["slurm.decisions"] / stats["slurm.schedule"].calls
            if stats["slurm.schedule"].calls
            else 0.0
        ),
        "slurm.launch_s": own("slurm.launch"),
        "slurm.launch_job_step_s": own("slurm.launch_job_step"),
        "slurm.pre_launch_s": own("slurm.pre_launch"),
        "drom.pre_init_s": own("drom.pre_init"),
        "drom.set_process_mask_calls": calls("drom.set_process_mask"),
        "drom.set_process_mask_s": own("drom.set_process_mask"),
        "tracer.record_steps_calls": calls("tracer.record_steps"),
        "tracer.record_steps_s": own("tracer.record_steps"),
        "probe.callbacks": calls("probe"),
        "probe.s": own("probe"),
        "store.put_s": own("store.put"),
        "store.put_bytes": counts["store.put_bytes"] / reps,
        "store.get_s": own("store.get"),
        "store.scan_s": own("store.scan"),
        "trace.put_s": own("trace.put"),
        "trace.put_bytes": counts["trace.put_bytes"] / reps,
        "trace.get_s": own("trace.get"),
        "trace.segments_inflated": traced.segments_inflated / reps,
        "index.record_put_s": own("index.record_put"),
        "index.scan_s": own("index.scan"),
        "index.hits": counts["index.hits"] / reps,
        "index.rebuilds": counts["index.rebuilds"] / reps,
        "query.reader_s": own("query.reader"),
    }
    for kind, metric in (
        ("fairness", "query.fairness_ms"),
        ("lifecycle", "query.lifecycle_ms"),
        ("queue_depth", "query.queue_depth_ms"),
        ("utilization", "query.utilization_ms"),
        ("steps_window", "query.steps_window_ms"),
        ("ipc_window", "query.ipc_window_ms"),
    ):
        values[metric] = harness.median(traced.by_kind.get(kind, [])) * 1e3
    start = stats["exec.start"]
    run_cell = stats["exec.run_cell"]
    values.update(
        {
            "exec.start_s": start.total / start.calls if start.calls else 0.0,
            "exec.run_cell_ms": harness.median(run_cell.durations) * 1e3,
            "exec.run_cell_calls": run_cell.calls / reps,
            "exec.run_cell_failed": counts["exec.run_cell_failed"],
            "exec.slot_busy_frac": (
                run_cell.total / traced.slot_seconds if traced.slot_seconds else 0.0
            ),
        }
    )
    imports = import_rollup(args.workload)
    values["import.total_s"] = imports["total"]
    values["import.numpy_s"] = imports["numpy"]
    for sub in REPRO_SUBPACKAGES:
        values[f"import.repro.{sub}_s"] = imports[f"repro.{sub}"]
    values["op_p95_ms"] = harness.percentile([x * 1e3 for x in untraced.ops], 95)
    untraced_wall = harness.median(untraced.passes)
    traced_median = harness.median(traced.passes)
    values.update(
        {
            "wall.untraced_s": untraced_wall,
            "wall.traced_s": traced_median,
            "tracing.overhead_ratio": (
                traced_median / untraced_wall if untraced_wall else 0.0
            ),
            "attrib.covered_frac": covered / traced_wall if traced_wall else 0.0,
            "attrib.other_s": (traced_wall - covered) / reps,
            "disk_bytes_per_cell": (
                tally.disk_bytes / tally.disk_cells if tally.disk_cells else 0.0
            ),
            "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
        }
    )
    return values


# -- the run -----------------------------------------------------------------------


def make_loop(args, spec, ref, work: Path, warm_root: Path):
    if args.workload == "cold_sweep":
        return harness.ColdSweep(spec, ref, work)
    if args.workload == "warm_query":
        return harness.WarmQuery(spec, ref, warm_root)
    return harness.RemoteSweep(spec, ref)


def drive(loop, tally, seconds: float, min_reps: int) -> None:
    """Run passes for ``seconds`` (at least ``min_reps``), calibrating the
    machine's speed every ``CALIBRATION_EVERY_S`` between them."""
    tally.calibration += [harness.calibrate() for _ in range(3)]
    t0 = last = time.perf_counter()
    reps = 0
    while reps < min_reps or time.perf_counter() - t0 < seconds:
        loop(tally)
        reps += 1
        due = int((time.perf_counter() - last) / harness.CALIBRATION_EVERY_S)
        if due:
            tally.calibration += [harness.calibrate() for _ in range(due)]
            last = time.perf_counter()


def inject(kind: str, args, ref, warm_root: Path) -> None:
    """Deliberate faults for the self-test: the failure counter must see them."""
    if kind == "wrong-digest":
        ref.rows[0] = "0" * 64
    elif kind == "corrupt-artifact":
        if args.workload != "warm_query":
            raise SystemExit("--inject corrupt-artifact needs --workload warm_query")
        victim = sorted((warm_root / "traces").glob("*.jsonl.gz"))[0]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the self-test's size and fault injection, and the set-up child.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--inject", choices=("wrong-digest", "corrupt-artifact"), help=argparse.SUPPRESS)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--root", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args.workload, args.seed, args.scale, args.root)

    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def check_pins(args, ref, tally) -> None:
    """Compare the reference with the digests pinned for this seed, if any."""
    pinned = harness.load_pins(PINS).get(args.scale, {}).get(args.workload, {})
    want = pinned.get(str(args.seed))
    if want is None:
        return
    got = {"rows": ref.rows_digest}
    if args.workload == "warm_query":
        got["answers"] = ref.answers_digest
    tally.attempted += 1
    if got != want:
        tally.fail(1, f"reference digests {got} differ from the pins {want}")


def traced_run(args, loop, tally, work: Path) -> tuple[dict, int]:
    """Half the time untraced, half traced; returns the per-layer metrics
    and the number of traced passes."""
    from layers import Recorder

    untraced = harness.Tally()
    drive(loop, untraced, args.seconds / 2, 1)
    traced = harness.Tally()
    workers = work / "worker-layers"
    workers.mkdir()
    saved = {key: os.environ.get(key) for key in ("PYTHONPATH", "PERFBENCH_WORKER_LAYERS")}
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(HERE / "worker_site"), saved["PYTHONPATH"]))
    )
    os.environ["PERFBENCH_WORKER_LAYERS"] = str(workers)
    try:
        with Recorder() as recorder:
            drive(loop, traced, args.seconds / 2, 1)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    # Loopback workers record the layers they run into one file each.
    for path in sorted(workers.glob("*.json")):
        recorder.merge(json.loads(path.read_text()))
    for part in (untraced, traced):
        tally.absorb(part)
    return per_layer(args, tally, recorder, untraced, traced), len(traced.passes)


def run(args, work: Path) -> int:
    import numpy

    setups, warm_root = measure_setups(args, work)
    spec = harness.build_spec(args.workload, args.seed, args.scale)
    ref = harness.compute_reference(args.workload, spec)
    tally = harness.Tally()
    check_pins(args, ref, tally)
    if args.inject:
        inject(args.inject, args, ref, warm_root)
    loop = make_loop(args, spec, ref, work, warm_root)

    if args.trace:
        metrics, passes = traced_run(args, loop, tally, work)
        names = _metric_names("per_layer")
    else:
        drive(loop, tally, args.seconds, MIN_REPS)
        e2e = end_to_end(tally, setups)
        metrics = {name: value for name, (value, _, _) in e2e.items()}
        passes = len(tally.passes)
        names = _metric_names("end_to_end")

    print(
        f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"scale={args.scale} | nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} | cells/campaign={spec.nruns} passes={passes}"
    )
    if args.trace:
        # Seconds per pass as a share of one traced pass's wall time.
        wall = metrics["wall.traced_s"]
        print(f"{'metric':34} {'value':>14} {'unit':>8} {'share':>8}")
        for name, unit in names:
            share = ""
            if unit == "s" and wall and not name.startswith(("wall.", "attrib.")):
                share = f"{metrics[name] / wall:8.1%}"
            print(f"{name:34} {metrics[name]:14.6g} {unit:>8} {share:>8}")
    else:
        cal = harness.median(tally.calibration)
        print(
            f"# calibration median {cal * 1e3:.3f} ms over {len(tally.calibration)} "
            f"samples, reference {harness.CALIBRATION_REF_S * 1e3:g} ms: timings "
            f"are reported x{harness.CALIBRATION_REF_S / cal:.4f} (rates /)"
        )
        print(
            f"{'metric':14} {'reported':>12} {'unit':>6} {'raw':>12} "
            f"{'raw q1':>12} {'raw median':>12} {'raw q3':>12} {'n':>6}"
        )
        for name, unit in names:
            value, raw, samples = e2e[name]
            q1, q2, q3 = harness.quartiles(samples)
            print(
                f"{name:14} {value:12.6g} {unit:>6} {raw:12.6g} {q1:12.6g} "
                f"{q2:12.6g} {q3:12.6g} {len(samples):6d}"
            )
        # The tail is printed but not gated: over ten seeds its spread on a
        # shared 2-vCPU host reached the largest bound the gate allows.
        p95 = harness.percentile([x * 1e3 for x in tally.ops], 95)
        print(f"# op_p95_ms raw {p95:.6g} ms over {len(tally.ops)} operations")
        if len(tally.ops) < 200:
            print(f"# note: {len(tally.ops)} operations, fewer than 10 beyond p95")
        print(f"# campaign_s median {harness.median(tally.walls):.6g} s")
    print(f"# error_rate {tally.failed}/{tally.attempted}")
    for note in tally.notes:
        print(f"# failure: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
