"""Deterministic discrete-event simulation engine.

The engine keeps a priority queue of ``(time, priority, seq, action)`` entries
and a virtual clock.  Two kinds of actions are supported:

* plain callbacks scheduled with :meth:`SimulationEngine.call_at` /
  :meth:`SimulationEngine.call_after`;
* generator-based *processes* spawned with :meth:`SimulationEngine.spawn`.
  A process yields :class:`Timeout` objects (or bare ``float`` delays) to
  advance the clock, another :class:`SimProcess` to join it, or a list of
  processes to join them all.  A process's pending timed wake can be moved
  with :meth:`SimulationEngine.move_wake`; the superseded queue entry is
  dropped unseen.

Determinism: ties in time are broken by an explicit priority and then by a
monotonically increasing sequence number, so two runs of the same scenario
produce identical event orders.  :attr:`SimulationEngine.current_priority`
exposes the priority of the event being dispatched, so a callback can tell
whether a same-instant wake of some process comes before or after it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the engine (e.g. time travel)."""


@dataclass(frozen=True, slots=True)
class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("Timeout delay must be non-negative")


@dataclass(frozen=True, slots=True)
class WakeAt:
    """Yielded by a process to sleep until an *absolute* simulated instant.

    Unlike :class:`Timeout` (which wakes at ``now + delay``, a float
    addition), a :class:`WakeAt` wake lands at exactly ``time`` — the batched
    fast path uses it to wake at a left-fold-accumulated step boundary with
    no re-rounding, so batched and single-step runs hit bit-identical
    instants.  A time at or before ``now`` wakes at ``now``.
    """

    time: float


class ProcessExit(Exception):
    """Raised by a process body to terminate itself early with a value."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


ProcessGenerator = Generator[Any, Any, Any]


class SimProcess:
    """Handle of a spawned process.

    Attributes
    ----------
    name:
        Human-readable identifier (shows up in error messages and traces).
    finished:
        Whether the generator has run to completion (or was killed).
    value:
        Return value of the generator (``StopIteration.value``), or the value
        passed to :meth:`kill`.
    """

    __slots__ = (
        "_engine",
        "name",
        "_gen",
        "finished",
        "value",
        "started_at",
        "finished_at",
        "priority",
        "_waiters",
        "_wake",
    )

    def __init__(
        self,
        engine: "SimulationEngine",
        name: str,
        gen: ProcessGenerator,
        priority: int = 0,
    ) -> None:
        self._engine = engine
        self.name = name
        self._gen = gen
        self.finished = False
        self.value: Any = None
        self.started_at = engine.now
        self.finished_at: float | None = None
        #: Tie-break priority of every wake event of this process.  Processes
        #: with distinct priorities interleave deterministically at equal
        #: instants regardless of *when* their wakes were pushed — which is
        #: what makes the batched and single-step execution paths order
        #: same-time wakes identically.
        self.priority = priority
        self._waiters: list[Callable[[Any], None]] = []
        #: Sequence number of the pending timed wake (Timeout / WakeAt /
        #: delay), or None; identifies the queue entry move_wake cancels.
        self._wake: int | None = None

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"SimProcess({self.name!r}, {state})"

    def on_finish(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)`` to run when the process finishes.

        If the process has already finished the callback runs immediately.
        """
        if self.finished:
            callback(self.value)
        else:
            self._waiters.append(callback)

    def kill(self, value: Any = None) -> None:
        """Terminate the process at the current simulated time."""
        if self.finished:
            return
        self.value = value
        self._finish()

    def _finish(self) -> None:
        self.finished = True
        self.finished_at = self._engine.now
        self._gen.close()
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(self.value)


class SimulationEngine:
    """The event loop.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> out = []
    >>> def worker(engine, label):
    ...     yield Timeout(1.0)
    ...     out.append((engine.now, label))
    >>> _ = engine.spawn(worker(engine, "a"), name="a")
    >>> _ = engine.spawn(worker(engine, "b"), name="b")
    >>> engine.run()
    1.0
    >>> out
    [(1.0, 'a'), (1.0, 'b')]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Entries are (time, priority, seq, callback, args): storing the
        # callable and its arguments directly (instead of a per-call lambda
        # closure) keeps the hot path allocation-light.  ``seq`` is unique,
        # so comparisons never reach the callback.
        self._queue: list[tuple[float, int, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self._processes: list[SimProcess] = []
        self._running = False
        self._executed = 0
        #: Sequence numbers of queue entries superseded by move_wake.
        self._cancelled: set[int] = set()
        self._priority = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def current_priority(self) -> int:
        """Priority of the event being dispatched (or last dispatched).

        Together with :attr:`now` it places the running callback in the
        engine's total order: a wake of a process with priority ``q`` at
        instant ``t`` ran before it iff ``(t, q) < (now, current_priority)``.
        """
        return self._priority

    # -- scheduling callbacks ----------------------------------------------

    def call_at(
        self, time: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        heapq.heappush(
            self._queue,
            (max(time, self._now), priority, self._seq, callback, args),
        )
        self._seq += 1

    def call_after(
        self, delay: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        self.call_at(self._now + delay, callback, *args, priority=priority)

    # -- processes ----------------------------------------------------------

    def spawn(
        self, gen: ProcessGenerator, name: str | None = None, priority: int = 0
    ) -> SimProcess:
        """Register a generator as a process starting at the current time.

        ``priority`` tie-breaks this process's wake events against same-time
        events of other priorities (lower runs first); processes of equal
        priority fall back to scheduling order.
        """
        process = SimProcess(
            self, name or f"proc-{len(self._processes)}", gen, priority=priority
        )
        self._processes.append(process)
        # Start the process as an immediate event so spawn order == start order.
        self.call_at(self._now, self._step, process, None, priority=priority)
        return process

    def processes(self) -> list[SimProcess]:
        return list(self._processes)

    def _resume(self, process: SimProcess, value: Any) -> None:
        self.call_at(self._now, self._step, process, value, priority=process.priority)

    def move_wake(self, process: SimProcess, time: float) -> None:
        """Move ``process``'s pending timed wake to absolute ``time``.

        The old queue entry is cancelled: it never runs and never advances
        the clock.  The new wake keeps the process's priority.
        """
        if process._wake is None:
            raise SimulationError(f"process {process.name!r} has no pending wake")
        self._cancelled.add(process._wake)
        self._wake_at(process, time)

    def _wake_at(self, process: SimProcess, time: float) -> None:
        process._wake = self._seq
        self.call_at(
            max(time, self._now), self._step, process, None, priority=process.priority
        )

    def _step(self, process: SimProcess, send_value: Any) -> None:
        process._wake = None
        if process.finished:
            return
        try:
            yielded = process._gen.send(send_value)
        except StopIteration as stop:
            process.value = stop.value
            process._finish()
            return
        except ProcessExit as exit_:
            process.value = exit_.value
            process._finish()
            return
        self._handle_yield(process, yielded)

    def _handle_yield(self, process: SimProcess, yielded: Any) -> None:
        priority = process.priority
        if yielded is None:
            # Cooperative reschedule at the same instant (after pending events).
            self.call_at(self._now, self._step, process, None, priority=priority)
        elif isinstance(yielded, Timeout):
            self._wake_at(process, self._now + yielded.delay)
        elif isinstance(yielded, WakeAt):
            self._wake_at(process, yielded.time)
        elif isinstance(yielded, (int, float)) and not isinstance(yielded, bool):
            if yielded < 0:
                raise SimulationError(
                    f"process {process.name!r} yielded a negative delay ({yielded})"
                )
            self._wake_at(process, self._now + float(yielded))
        elif isinstance(yielded, SimProcess):
            yielded.on_finish(lambda value: self._resume(process, value))
        elif isinstance(yielded, (list, tuple)) and all(
            isinstance(p, SimProcess) for p in yielded
        ):
            self._wait_all(process, list(yielded))
        else:
            raise SimulationError(
                f"process {process.name!r} yielded an unsupported value: {yielded!r}"
            )

    def _wait_all(self, waiter: SimProcess, targets: list[SimProcess]) -> None:
        remaining = {id(p) for p in targets if not p.finished}
        if not remaining:
            self._resume(waiter, [p.value for p in targets])
            return

        def make_callback(target: SimProcess) -> Callable[[Any], None]:
            def on_done(_value: Any) -> None:
                remaining.discard(id(target))
                if not remaining:
                    self._resume(waiter, [p.value for p in targets])

            return on_done

        for target in targets:
            if not target.finished:
                target.on_finish(make_callback(target))

    # -- running --------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Process events until the queue drains or the clock reaches ``until``.

        Returns the final simulated time.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        queue = self._queue
        cancelled = self._cancelled
        executed = 0
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heapq.heappop(queue)
                # A superseded wake is dropped before it can move the clock.
                if cancelled and entry[2] in cancelled:
                    cancelled.discard(entry[2])
                    continue
                if time > self._now:
                    self._now = time
                self._priority = entry[1]
                entry[3](*entry[4])
                executed += 1
        finally:
            self._running = False
            self._executed += executed
        if until is not None and not self._queue and self._now < until:
            self._now = until
        return self._now

    @property
    def events_executed(self) -> int:
        """Total events dispatched so far (the perf harness's events/sec)."""
        return self._executed

    def advance_until(self, time: float) -> WakeAt:
        """Token for an absolute sleep: ``yield engine.advance_until(t)``.

        The process sleeps until the absolute instant ``t`` (clamped to
        ``now``), landing on exactly that float — no delay re-addition.
        Events scheduled before ``t`` still run at their own times; the wake
        can be brought forward with :meth:`move_wake`.
        """
        return WakeAt(time)

    def pending(self) -> int:
        """Number of queued events (cancelled wakes excluded)."""
        return len(self._queue) - len(self._cancelled)
