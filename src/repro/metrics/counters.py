"""Hardware-counter style application metrics: IPC and cycles per microsecond.

The paper traces the use cases with Extrae and reports, per thread,

* **IPC** — instructions completed per processor cycle;
* **cycles per microsecond** — processor cycles dedicated to the thread per
  microsecond (a proxy for "how much of the CPU the thread actually got",
  the colour scale of Figure 13).

Here the counters are synthesised from the performance model at every
execution step and collected per (job, rank, thread); Figure 14's per-thread
IPC histograms are derived from this log (Figure 13's cycles/µs timeline
renders through :class:`~repro.metrics.paraver.ParaverView`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class CounterSample:
    """Counters of one thread during one execution step."""

    job: str
    rank: int
    thread: int
    start: float
    duration: float
    ipc: float
    cycles_per_us: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class CounterLog:
    """Accumulates counter samples and answers the figures' queries."""

    def __init__(self) -> None:
        self._samples: list[CounterSample] = []

    def record(self, sample: CounterSample) -> None:
        if sample.duration < 0:
            raise ValueError("sample duration must be non-negative")
        self._samples.append(sample)

    def extend(self, samples: Iterable[CounterSample]) -> None:
        for sample in samples:
            self.record(sample)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[CounterSample]:
        return iter(self._samples)

    def jobs(self) -> list[str]:
        seen: list[str] = []
        for sample in self._samples:
            if sample.job not in seen:
                seen.append(sample.job)
        return seen

    def for_job(self, job: str) -> list[CounterSample]:
        return [s for s in self._samples if s.job == job]

    # -- Figure 14: per-thread IPC histograms ---------------------------------------

    def ipc_samples_by_thread(self, job: str) -> dict[tuple[int, int], list[float]]:
        """(rank, thread) -> list of IPC samples, duration-weighted by repetition."""
        result: dict[tuple[int, int], list[float]] = defaultdict(list)
        for sample in self.for_job(job):
            result[(sample.rank, sample.thread)].append(sample.ipc)
        return dict(result)

    def ipc_histogram(
        self, job: str, bins: int = 20, range_: tuple[float, float] = (0.0, 2.0)
    ) -> dict[tuple[int, int], np.ndarray]:
        """Per-thread histogram of IPC values (counts per bin)."""
        histograms: dict[tuple[int, int], np.ndarray] = {}
        for key, values in self.ipc_samples_by_thread(job).items():
            counts, _edges = np.histogram(np.asarray(values), bins=bins, range=range_)
            histograms[key] = counts
        return histograms

    def mean_ipc(self, job: str) -> float:
        """Duration-weighted mean IPC over all threads of a job."""
        samples = self.for_job(job)
        if not samples:
            raise ValueError(f"no counter samples for job {job!r}")
        total_time = sum(s.duration for s in samples)
        if total_time == 0:
            return float(np.mean([s.ipc for s in samples]))
        return sum(s.ipc * s.duration for s in samples) / total_time
