"""Local process-pool execution with a one-shot worker initializer.

Historically the campaign runner built a fresh ``multiprocessing.Pool`` per
campaign and shipped a ``partial`` carrying the sinks, both store tiers and
the telemetry clock factory **with every cell** — N cells meant N pickles of
invariant context.  This module fixes that seam (and the
:class:`LocalPoolExecutor` backend reuses it): the invariant
:class:`~repro.exec.base.WorkerContext` ships **once** through the pool
initializer into a process-global, and per cell only the
:class:`~repro.campaign.spec.RunSpec` crosses the wire.

Determinism is untouched: workers run the same
:func:`~repro.campaign.runner.run_cell` as the serial path, rows are keyed
by grid index, and both store tiers write atomically under content keys.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.exec.base import Executor, ExecutorDied, ExecutorError, WorkerContext
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.runner import RunMetrics
    from repro.campaign.spec import RunSpec
    from repro.obs.telemetry import Span

_log = get_logger("exec.local")

__all__ = [
    "LocalPoolExecutor",
    "initialise_worker",
    "pool_worker",
    "worker_pool",
]

#: The per-process campaign context, set once by :func:`initialise_worker`.
_CONTEXT: WorkerContext | None = None


def initialise_worker(context: WorkerContext) -> None:
    """Pool initializer: bind the campaign's invariant context to this
    worker process (runs once per worker, not once per cell)."""
    global _CONTEXT
    _CONTEXT = context


def pool_worker(run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
    """Execute one cell against the process-global context.

    Module-level so it pickles by reference; the only per-cell payload on
    the wire is the :class:`~repro.campaign.spec.RunSpec` itself.
    """
    context = _CONTEXT
    if context is None:
        raise RuntimeError(
            "worker pool was not initialised with a WorkerContext "
            "(use worker_pool() or LocalPoolExecutor)"
        )
    from repro.campaign.runner import run_cell

    return run_cell(run, context)


@contextmanager
def worker_pool(processes: int, context: WorkerContext):
    """A ``multiprocessing.Pool`` whose workers are pre-bound to ``context``
    (the campaign runner's pooled path)."""
    pool = multiprocessing.Pool(
        processes=processes, initializer=initialise_worker, initargs=(context,)
    )
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


class LocalPoolExecutor(Executor):
    """Persistent local worker processes behind the executor interface.

    ``slots`` worker processes start once (context shipped through the
    initializer) and stay resident for the whole campaign; the orchestrator
    keeps up to ``slots`` cells in flight.  Workers write both store tiers
    themselves (same filesystem), so :attr:`writes_store` is ``True``.
    """

    writes_store = True

    def __init__(self, slots: int | None = None, name: str | None = None) -> None:
        if slots is not None and slots <= 0:
            raise ValueError("slots must be positive")
        self.slots = slots if slots is not None else (os.cpu_count() or 1)
        self.name = name if name is not None else f"local[{self.slots}]"
        self._pool: multiprocessing.pool.Pool | None = None

    async def start(self, context: WorkerContext) -> None:
        await super().start(context)
        self._pool = multiprocessing.Pool(
            processes=self.slots,
            initializer=initialise_worker,
            initargs=(context,),
        )
        _log.debug("%s: started %d persistent worker(s)", self.name, self.slots)

    async def run_cell(self, run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
        if self._pool is None:
            raise ExecutorDied(f"{self.name} has no running pool")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _resolve(setter, value) -> None:
            loop.call_soon_threadsafe(
                lambda: None if future.done() else setter(value)
            )

        try:
            self._pool.apply_async(
                pool_worker,
                (run,),
                callback=lambda value: _resolve(future.set_result, value),
                error_callback=lambda exc: _resolve(
                    future.set_exception,
                    ExecutorError(
                        f"cell {run.index:04d} failed in {self.name}: {exc!r}"
                    ),
                ),
            )
        except ValueError as exc:  # the pool was terminated under us
            raise ExecutorDied(f"{self.name} pool is gone: {exc}") from exc
        return await future

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
