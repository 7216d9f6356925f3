"""Query and report helpers over a :class:`~repro.results.store.ResultStore`.

These back the ``python -m repro.results`` CLI but are plain functions: the
benchmarks and experiments use them directly to list stored cells, render one
entry's per-job metrics, and diff two stores (two campaigns, or two shards of
one campaign) cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.tables import render_table
from repro.results.store import ResultStore, StoreEntry


def render_store_table(
    store: ResultStore, limit: int | None = None, prefix: str | None = None
) -> str:
    """One row per stored cell, in key order.

    Served entirely from the store's index summaries — one journal read,
    no per-cell JSON parsing — so ``ls`` stays O(changed) on warm stores
    of any size.  ``prefix`` filters on the content key, ``limit`` caps
    the row count after filtering.
    """
    summaries = store.summaries(prefix=prefix, limit=limit)
    if not summaries:
        return f"(store {store.root} is empty)"
    rows = [
        (
            item.key[:12],
            item.summary["scenario"],
            item.summary["workload"],
            item.summary["cluster"],
            item.summary["policy"],
            item.summary["scheduler"],
            f"{item.summary['total_run_time']:.3f}",
            f"{item.summary['average_response_time']:.3f}",
        )
        for item in summaries
    ]
    return render_table(
        [
            "Key",
            "Scenario",
            "Workload",
            "Cluster",
            "Policy",
            "Scheduler",
            "Total run time (s)",
            "Avg response (s)",
        ],
        rows,
    )


def render_entry(entry: StoreEntry) -> str:
    """Full per-job metrics of one stored cell."""
    row = entry.row()
    header = [
        f"key       {entry.key}",
        f"run       {row.run.cell_id}",
        f"workload  {row.workload_name}",
        f"total run time    {row.total_run_time:.3f} s",
        f"avg response time {row.average_response_time:.3f} s",
        f"makespan end      {row.makespan_end:.3f} s",
        "",
    ]
    wait = dict(row.wait_times)
    run_times = dict(row.run_times)
    utilisation = dict(row.job_utilisation)
    job_rows = [
        (
            job,
            f"{response:.3f}",
            f"{wait[job]:.3f}",
            f"{run_times[job]:.3f}",
            f"{utilisation[job]:.3f}",
        )
        for job, response in row.response_times
    ]
    table = render_table(
        ["Job", "Response (s)", "Wait (s)", "Run (s)", "Utilisation"], job_rows
    )
    return "\n".join(header) + table


@dataclass(frozen=True)
class StoreDiff:
    """Cell-by-cell comparison of two stores."""

    #: (key, entry in a, entry in b) for cells present in both stores.
    common: tuple[tuple[str, StoreEntry, StoreEntry], ...]
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.only_a and not self.only_b and all(
            ea.metrics == eb.metrics for _k, ea, eb in self.common
        )


def diff_stores(a: ResultStore, b: ResultStore) -> StoreDiff:
    entries_a = {entry.key: entry for entry in a.entries()}
    entries_b = {entry.key: entry for entry in b.entries()}
    common = tuple(
        (key, entries_a[key], entries_b[key])
        for key in sorted(entries_a.keys() & entries_b.keys())
    )
    return StoreDiff(
        common=common,
        only_a=tuple(sorted(entries_a.keys() - entries_b.keys())),
        only_b=tuple(sorted(entries_b.keys() - entries_a.keys())),
    )


def render_diff(diff: StoreDiff) -> str:
    """Human-readable cell-by-cell diff (total run time and avg response)."""
    lines: list[str] = []
    if diff.common:
        rows = []
        for key, ea, eb in diff.common:
            ta = ea.metrics["total_run_time"]
            tb = eb.metrics["total_run_time"]
            ra = ea.metrics["average_response_time"]
            rb = eb.metrics["average_response_time"]
            delta = (tb - ta) / ta * 100 if ta else 0.0
            marker = "=" if ea.metrics == eb.metrics else "!"
            rows.append(
                (
                    marker,
                    key[:12],
                    ea.contents["scenario"],
                    ea.run.workload.label,
                    f"{ta:.3f}",
                    f"{tb:.3f}",
                    f"{delta:+.2f}%",
                    f"{ra:.3f}",
                    f"{rb:.3f}",
                )
            )
        lines.append(
            render_table(
                [
                    "",
                    "Key",
                    "Scenario",
                    "Workload",
                    "Total A (s)",
                    "Total B (s)",
                    "dTotal",
                    "Avg resp A (s)",
                    "Avg resp B (s)",
                ],
                rows,
            )
        )
    for label, keys in (("only in A", diff.only_a), ("only in B", diff.only_b)):
        if keys:
            lines.append(f"{label}: {len(keys)} cell(s)")
            lines.extend(f"  {key[:12]}" for key in keys)
    if not lines:
        return "(both stores are empty)"
    lines.append(
        "stores are identical" if diff.identical else "stores differ"
    )
    return "\n".join(lines)
