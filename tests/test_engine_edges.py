"""Engine edge cases: kill-while-joined, yield validation, horizon semantics,
and the API the batched fast path relies on (``WakeAt`` / ``advance_until``,
per-process wake priorities, movable wakes and the dispatching priority)."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    SimProcess,
    SimulationEngine,
    SimulationError,
    Timeout,
    WakeAt,
)


class TestKillWhileJoined:
    def test_killing_a_joined_process_resumes_the_waiter(self):
        engine = SimulationEngine()
        resumed = []

        def sleeper():
            yield Timeout(100.0)
            return "never"

        def waiter(target):
            value = yield target
            resumed.append((engine.now, value))

        target = engine.spawn(sleeper(), name="sleeper")
        engine.spawn(waiter(target), name="waiter")
        engine.call_at(5.0, target.kill, "stopped")
        engine.run()
        assert resumed == [(5.0, "stopped")]
        assert target.finished and target.value == "stopped"
        assert target.finished_at == 5.0

    def test_kill_after_finish_is_a_noop(self):
        engine = SimulationEngine()

        def quick():
            yield Timeout(1.0)
            return "done"

        process = engine.spawn(quick(), name="quick")
        engine.run()
        process.kill("ignored")
        assert process.value == "done"

    def test_wait_all_with_one_target_killed(self):
        engine = SimulationEngine()
        collected = []

        def sleeper(delay):
            yield Timeout(delay)
            return delay

        def waiter(targets):
            values = yield targets
            collected.append((engine.now, values))

        fast = engine.spawn(sleeper(1.0), name="fast")
        slow = engine.spawn(sleeper(50.0), name="slow")
        engine.spawn(waiter([fast, slow]), name="waiter")
        engine.call_at(2.0, slow.kill, "cut")
        engine.run()
        assert collected == [(2.0, [1.0, "cut"])]


class TestYieldValidation:
    def test_negative_numeric_yield_is_rejected(self):
        engine = SimulationEngine()

        def bad():
            yield -1.0

        engine.spawn(bad(), name="bad")
        with pytest.raises(SimulationError, match="negative delay"):
            engine.run()

    def test_bool_yield_is_not_a_delay(self):
        # bool is an int subclass; yielding one is almost certainly a bug in
        # the process body, so it must not silently sleep for 1 second.
        engine = SimulationEngine()

        def bad():
            yield True

        engine.spawn(bad(), name="bad")
        with pytest.raises(SimulationError, match="unsupported"):
            engine.run()

    def test_timeout_constructor_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Timeout(-0.5)


class TestRunUntilHorizon:
    def test_event_exactly_at_horizon_runs_and_clock_stops_there(self):
        engine = SimulationEngine()
        fired = []
        engine.call_at(5.0, lambda: fired.append(engine.now))
        engine.call_at(6.0, lambda: fired.append(engine.now))
        assert engine.run(until=5.0) == 5.0
        assert fired == [5.0]
        assert engine.pending() == 1

    def test_wake_at_exactly_at_horizon_runs(self):
        engine = SimulationEngine()
        woke = []

        def proc():
            yield WakeAt(5.0)
            woke.append(engine.now)

        engine.spawn(proc(), name="proc")
        engine.run(until=5.0)
        assert woke == [5.0]


class TestSkipAheadApi:
    def test_advance_until_returns_a_wake_token(self):
        engine = SimulationEngine()
        token = engine.advance_until(4.5)
        assert isinstance(token, WakeAt)
        assert token.time == 4.5

    def test_wake_at_lands_on_the_exact_float(self):
        # The point of WakeAt over Timeout: no "now + delay" re-addition, so
        # a left-fold-accumulated boundary is hit bit-for-bit.
        engine = SimulationEngine()
        target = 0.1 + 0.2  # 0.30000000000000004
        seen = []

        def proc():
            yield engine.advance_until(target)
            seen.append(engine.now)

        engine.spawn(proc(), name="proc")
        engine.run()
        assert seen == [target]

    def test_wake_at_in_the_past_clamps_to_now(self):
        engine = SimulationEngine()
        seen = []

        def proc():
            yield Timeout(2.0)
            yield WakeAt(1.0)  # already in the past: wakes immediately
            seen.append(engine.now)

        engine.spawn(proc(), name="proc")
        engine.run()
        assert seen == [2.0]


class TestSpawnPriorities:
    def test_priority_orders_same_instant_wakes(self):
        engine = SimulationEngine()
        order = []

        def worker(label):
            yield Timeout(1.0)
            order.append(label)

        engine.spawn(worker("second"), name="second", priority=2)
        engine.spawn(worker("first"), name="first", priority=1)
        engine.run()
        assert order == ["first", "second"]

    def test_equal_priorities_fall_back_to_spawn_order(self):
        engine = SimulationEngine()
        order = []

        def worker(label):
            yield Timeout(1.0)
            order.append(label)

        engine.spawn(worker("a"), name="a", priority=1)
        engine.spawn(worker("b"), name="b", priority=1)
        engine.run()
        assert order == ["a", "b"]

    def test_priority_zero_callbacks_beat_executor_wakes(self):
        # The runner relies on this: scheduler events (submits, completions)
        # are plain priority-0 callbacks and must run before any same-instant
        # executor wake, whose spawn priority is always >= 1.
        engine = SimulationEngine()
        order = []

        def worker():
            yield Timeout(1.0)
            order.append("wake")

        engine.spawn(worker(), name="worker", priority=3)
        engine.call_at(1.0, lambda: order.append("event"))
        engine.run()
        assert order == ["event", "wake"]

    def test_process_repr_and_handle_state(self):
        engine = SimulationEngine()

        def quick():
            yield Timeout(1.0)

        process = engine.spawn(quick(), name="quick", priority=4)
        assert isinstance(process, SimProcess)
        assert process.priority == 4
        assert "running" in repr(process)
        engine.run()
        assert "finished" in repr(process)


class TestMoveWake:
    def test_moved_wake_runs_once_at_the_new_instant(self):
        engine = SimulationEngine()
        woke = []

        def sleeper():
            yield WakeAt(10.0)
            woke.append(engine.now)

        process = engine.spawn(sleeper(), name="sleeper")
        engine.call_at(2.0, lambda: engine.move_wake(process, 4.0))
        engine.run()
        assert woke == [4.0]

    def test_cancelled_wake_never_moves_the_clock(self):
        # The superseded entry at t=10 is still queued when the process
        # finishes at t=4; popping it must not advance the clock to 10.
        engine = SimulationEngine()

        def sleeper():
            yield WakeAt(10.0)

        process = engine.spawn(sleeper(), name="sleeper")
        engine.call_at(2.0, lambda: engine.move_wake(process, 4.0))
        assert engine.run() == 4.0
        assert engine.now == 4.0
        assert process.finished_at == 4.0
        assert engine.pending() == 0

    def test_cancelled_wake_is_not_dispatched(self):
        engine = SimulationEngine()

        def sleeper():
            yield Timeout(10.0)

        process = engine.spawn(sleeper(), name="sleeper")
        engine.call_at(1.0, lambda: engine.move_wake(process, 3.0))
        engine.run()
        # spawn step + the moved wake + the mover callback; not the stale one.
        assert engine.events_executed == 3

    def test_wake_can_move_later_and_keeps_its_priority(self):
        engine = SimulationEngine()
        order = []

        def sleeper(label):
            yield WakeAt(2.0)
            order.append((engine.now, label))

        late = engine.spawn(sleeper("late"), name="late", priority=1)
        engine.spawn(sleeper("other"), name="other", priority=2)
        engine.call_at(1.0, lambda: engine.move_wake(late, 5.0))
        engine.call_at(5.0, lambda: order.append((engine.now, "event")))
        engine.run()
        assert order == [(2.0, "other"), (5.0, "event"), (5.0, "late")]

    def test_moving_without_a_pending_wake_is_an_error(self):
        engine = SimulationEngine()

        def waiter(target):
            yield target

        def sleeper():
            yield Timeout(5.0)

        target = engine.spawn(sleeper(), name="target")
        joiner = engine.spawn(waiter(target), name="joiner")
        engine.run(until=1.0)
        with pytest.raises(SimulationError, match="no pending wake"):
            engine.move_wake(joiner, 2.0)


class TestCurrentPriority:
    def test_reports_the_priority_of_the_dispatched_event(self):
        engine = SimulationEngine()
        seen = []

        def worker():
            yield Timeout(1.0)
            seen.append(("wake", engine.current_priority))

        engine.spawn(worker(), name="worker", priority=7)
        engine.call_at(1.0, lambda: seen.append(("event", engine.current_priority)))
        engine.call_at(
            1.0, lambda: seen.append(("late", engine.current_priority)), priority=9
        )
        engine.run()
        assert seen == [("event", 0), ("wake", 7), ("late", 9)]

    def test_orders_a_same_instant_wake_against_the_running_event(self):
        # (t, q) < (now, current_priority) tells whether a wake of priority
        # q at instant t has already run when the event is dispatched.
        engine = SimulationEngine()
        checks = []

        def worker():
            yield Timeout(1.0)

        engine.spawn(worker(), name="worker", priority=5)

        def check():
            checks.append((1.0, 5) < (engine.now, engine.current_priority))

        engine.call_at(1.0, check, priority=3)
        engine.call_at(1.0, check, priority=6)
        engine.run()
        assert checks == [False, True]
