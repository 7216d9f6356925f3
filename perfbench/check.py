"""Self-test of the benchmark, and the writer of its pinned digests.

    python3 perfbench/check.py                  # self-test at tiny sizes
    python3 perfbench/check.py --write-pins 0-63

The self-test runs every workload at tiny sizes, traced and untraced, and
checks that:

* every metric named in ``BENCHMARK.json`` is emitted with its unit, and the
  run is correct with ``failed == 0``;
* the held-out seed emits the same metric names with ``failed == 0``;
* a corrupted trace artifact and a wrong reference digest each make the run
  incorrect with ``failed > 0`` -- the failure counter works;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

It exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: Never pinned and not used while tuning the benchmark: re-check a
#: performance claim on it with ``--seed 7919``.
HELD_OUT_SEED = 7919


def bench(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload: str, seed: int, trace: int, *extra: str) -> dict:
    code, out = bench(
        CHECKOUT,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0.5",
        "--trace", str(trace),
        "--scale", "tiny",
        *extra,
    )
    if code != 0:
        raise AssertionError(f"{workload} exited {code}:\n{out}")
    return result_of(out)


def self_test() -> list[str]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in harness.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for seed in (0, HELD_OUT_SEED):
                res = tiny(workload, seed, trace)
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                label = f"{workload} trace={trace} seed={seed}"
                if got != want:
                    problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{label}: failed {res['failed']}/{res['attempted']}")
                print(f"ok {label}: {len(got)} metrics, failed {res['failed']}/{res['attempted']}")
    for workload, fault in (
        ("cold_sweep", "wrong-digest"),
        ("remote_sweep", "wrong-digest"),
        ("warm_query", "wrong-digest"),
        ("warm_query", "corrupt-artifact"),
    ):
        res = tiny(workload, 0, 0, "--inject", fault)
        label = f"{workload} --inject {fault}"
        if res["correct"] or res["failed"] <= 0:
            problems.append(f"{label}: the fault went uncounted")
        print(f"ok {label}: failed {res['failed']}/{res['attempted']}")

    bare = CHECKOUT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
    try:
        code, out = bench(bare, "--workload", "cold_sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    if code == 0 or out.strip():
        problems.append(f"without the program: exit {code}, output {out!r}")
    print(f"ok without the program: exit {code}, no result")
    return problems


def write_pins(seeds: list[int]) -> None:
    sys.path.insert(0, str(CHECKOUT / "src"))
    path = HERE / "pinned.json"
    pins = harness.load_pins(path)
    full = pins.setdefault("full", {})
    for workload in harness.WORKLOADS:
        table = full.setdefault(workload, {})
        for seed in seeds:
            ref = harness.compute_reference(workload, harness.build_spec(workload, seed))
            entry = {"rows": ref.rows_digest}
            if workload == "warm_query":
                entry["answers"] = ref.answers_digest
            table[str(seed)] = entry
            print(f"pinned {workload} seed {seed}", flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark")
    parser.add_argument("--write-pins", metavar="LO-HI", help="pin the reference digests of seeds LO..HI")
    args = parser.parse_args()
    if args.write_pins:
        lo, _, hi = args.write_pins.partition("-")
        write_pins(list(range(int(lo), int(hi or lo) + 1)))
        return 0
    problems = self_test()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
