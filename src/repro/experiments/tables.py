"""Textual rendering of the paper's tables/figures from experiment data.

These helpers format the experiment results the way the benchmarks print
them: one row per configuration with Serial and DROM values side by side, so
the benchmark output can be compared against the paper's bar charts directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.workload.configs import table1_rows

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.experiments.usecase1 import WorkloadComparison


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Simple fixed-width table renderer."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_table1() -> str:
    """Table 1: application configurations."""
    return render_table(
        ["Application", "Conf. 1 (MPI x OpenMP)", "Conf. 2", "Conf. 3"], table1_rows()
    )


def render_run_time_figure(comparisons: list[WorkloadComparison]) -> str:
    """Figures 4/9 style: total run time, Serial vs DROM, per configuration."""
    rows = [
        (
            c.simulator_label,
            c.analytics_label,
            f"{c.serial_total_run_time:.0f}",
            f"{c.drom_total_run_time:.0f}",
            f"{100 * c.total_run_time_gain:+.1f}%",
        )
        for c in comparisons
    ]
    return render_table(
        ["Simulator", "Analytics", "Serial total (s)", "DROM total (s)", "DROM gain"], rows
    )


def render_response_figure(comparisons: list[WorkloadComparison]) -> str:
    """Figures 6/10 style: per-job response times, Serial vs DROM."""
    rows = []
    for c in comparisons:
        rows.append(
            (
                c.simulator_label,
                c.analytics_label,
                f"{c.serial_response[c.simulator_label]:.0f}",
                f"{c.drom_response[c.simulator_label]:.0f}",
                f"{c.serial_response[c.analytics_label]:.0f}",
                f"{c.drom_response[c.analytics_label]:.0f}",
                f"{100 * c.analytics_response_reduction:.1f}%",
            )
        )
    return render_table(
        [
            "Simulator",
            "Analytics",
            "Sim resp Serial (s)",
            "Sim resp DROM (s)",
            "Ana resp Serial (s)",
            "Ana resp DROM (s)",
            "Ana resp reduction",
        ],
        rows,
    )


def render_average_response_figure(comparisons: list[WorkloadComparison]) -> str:
    """Figures 8/12 style: average response time, Serial vs DROM."""
    rows = [
        (
            c.simulator_label,
            c.analytics_label,
            f"{c.serial_average_response:.0f}",
            f"{c.drom_average_response:.0f}",
            f"{100 * c.average_response_gain:+.1f}%",
        )
        for c in comparisons
    ]
    return render_table(
        ["Simulator", "Analytics", "Serial avg resp (s)", "DROM avg resp (s)", "Gain"], rows
    )
