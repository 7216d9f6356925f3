"""Tests of the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import ProcessExit, SimulationEngine, SimulationError, Timeout
from repro.sim.events import Event, EventLog


class TestCallbacks:
    def test_call_at_runs_in_time_order(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(5.0, lambda: seen.append(("b", engine.now)))
        engine.call_at(1.0, lambda: seen.append(("a", engine.now)))
        engine.run()
        assert seen == [("a", 1.0), ("b", 5.0)]

    def test_call_after_is_relative(self):
        engine = SimulationEngine(start_time=10.0)
        seen = []
        engine.call_after(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [12.5]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.call_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_after(-1.0, lambda: None)

    def test_ties_preserve_submission_order(self):
        engine = SimulationEngine()
        seen = []
        for i in range(5):
            engine.call_at(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, lambda: seen.append("low"), priority=5)
        engine.call_at(1.0, lambda: seen.append("high"), priority=-5)
        engine.run()
        assert seen == ["high", "low"]

    def test_callbacks_receive_args(self):
        engine = SimulationEngine()
        seen = []
        engine.call_after(1.0, seen.append, 42)
        engine.run()
        assert seen == [42]

    def test_run_until_stops_clock(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(100.0, lambda: seen.append("late"))
        final = engine.run(until=10.0)
        assert final == 10.0
        assert seen == []
        assert engine.pending() == 1

    def test_run_until_beyond_queue_advances_clock(self):
        engine = SimulationEngine()
        engine.call_at(3.0, lambda: None)
        assert engine.run(until=50.0) == 50.0

    def test_run_until_executes_event_exactly_at_boundary(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(10.0, lambda: seen.append(engine.now))
        assert engine.run(until=10.0) == 10.0
        assert seen == [10.0]
        assert engine.pending() == 0

    def test_run_until_with_empty_queue_advances_to_until(self):
        engine = SimulationEngine()
        assert engine.run(until=7.5) == 7.5
        assert engine.now == 7.5

    def test_run_until_can_resume_in_segments(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(5.0, lambda: seen.append("early"))
        engine.call_at(15.0, lambda: seen.append("late"))
        engine.run(until=10.0)
        assert seen == ["early"]
        assert engine.now == 10.0
        engine.run(until=20.0)
        assert seen == ["early", "late"]
        assert engine.now == 20.0

    def test_run_until_keeps_later_events_pending(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(10.0, lambda: seen.append("boundary"))
        engine.call_at(10.0 + 1e-9, lambda: seen.append("just after"))
        engine.run(until=10.0)
        assert seen == ["boundary"]
        assert engine.pending() == 1
        engine.run()
        assert seen == ["boundary", "just after"]

    def test_pending_counts_queued_events(self):
        engine = SimulationEngine()
        assert engine.pending() == 0
        engine.call_at(4.0, lambda: None)
        assert engine.pending() == 1


class TestProcesses:
    def test_process_timeout_advances_clock(self):
        engine = SimulationEngine()

        def proc():
            yield Timeout(3.0)
            yield 2.0
            return "done"

        handle = engine.spawn(proc())
        engine.run()
        assert engine.now == 5.0
        assert handle.finished
        assert handle.value == "done"
        assert handle.finished_at == 5.0

    def test_yield_none_reschedules_same_instant(self):
        engine = SimulationEngine()
        order = []

        def a():
            order.append("a1")
            yield None
            order.append("a2")

        def b():
            order.append("b1")
            yield None
            order.append("b2")

        engine.spawn(a())
        engine.spawn(b())
        engine.run()
        assert order == ["a1", "b1", "a2", "b2"]
        assert engine.now == 0.0

    def test_joining_another_process(self):
        engine = SimulationEngine()

        def worker():
            yield Timeout(4.0)
            return 99

        def waiter(target):
            value = yield target
            return ("got", value, engine.now)

        w = engine.spawn(worker())
        j = engine.spawn(waiter(w))
        engine.run()
        assert j.value == ("got", 99, 4.0)

    def test_joining_finished_process_resumes_immediately(self):
        engine = SimulationEngine()

        def worker():
            yield Timeout(1.0)
            return "w"

        w = engine.spawn(worker())
        engine.run()

        def waiter():
            value = yield w
            return value

        j = engine.spawn(waiter())
        engine.run()
        assert j.value == "w"

    def test_wait_for_all(self):
        engine = SimulationEngine()

        def worker(delay, val):
            yield Timeout(delay)
            return val

        w1 = engine.spawn(worker(2.0, "a"))
        w2 = engine.spawn(worker(5.0, "b"))

        def waiter():
            values = yield [w1, w2]
            return (engine.now, values)

        j = engine.spawn(waiter())
        engine.run()
        assert j.value == (5.0, ["a", "b"])

    def test_process_exit_exception(self):
        engine = SimulationEngine()

        def proc():
            yield Timeout(1.0)
            raise ProcessExit("early")
            yield Timeout(100.0)  # pragma: no cover

        handle = engine.spawn(proc())
        engine.run()
        assert handle.finished
        assert handle.value == "early"
        assert engine.now == 1.0

    def test_kill_stops_process(self):
        engine = SimulationEngine()

        def proc():
            yield Timeout(100.0)
            return "never"

        handle = engine.spawn(proc())
        engine.call_at(5.0, lambda: handle.kill("killed"))
        engine.run()
        assert handle.finished
        assert handle.value == "killed"
        assert handle.finished_at == 5.0

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()

        def proc():
            yield -1.0

        engine.spawn(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_unsupported_yield_rejected(self):
        engine = SimulationEngine()

        def proc():
            yield "nonsense"

        engine.spawn(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_on_finish_callback(self):
        engine = SimulationEngine()
        seen = []

        def proc():
            yield Timeout(2.0)
            return 7

        handle = engine.spawn(proc())
        handle.on_finish(seen.append)
        engine.run()
        assert seen == [7]
        # Late registration fires immediately.
        handle.on_finish(seen.append)
        assert seen == [7, 7]

    def test_timeout_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Timeout(-0.1)

    def test_determinism(self):
        """Identical inputs produce identical event timelines."""

        def scenario():
            engine = SimulationEngine()
            log = []

            def proc(name, delay):
                for i in range(3):
                    yield Timeout(delay)
                    log.append((engine.now, name, i))

            engine.spawn(proc("x", 1.5))
            engine.spawn(proc("y", 2.0))
            def tick():
                log.append((engine.now, "tick", -1))
                if engine.now < 5.0:
                    engine.call_after(1.0, tick)

            engine.call_after(1.0, tick)
            engine.run()
            return log

        assert scenario() == scenario()


class TestEventLog:
    def test_append_and_query(self):
        log = EventLog()
        log.append(1.0, "start", job=1)
        log.append(2.0, "stop", job=1)
        assert len(log) == 2
        assert log.named("start")[0].get("job") == 1
        assert log.last().name == "stop"
        assert log.last("start").time == 1.0
        assert log.names() == {"start", "stop"}

    def test_out_of_order_append_rejected(self):
        log = EventLog()
        log.append(5.0, "a")
        with pytest.raises(ValueError):
            log.append(1.0, "b")

    def test_between_filters_by_time(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0, 4.0):
            log.append(t, "e")
        assert [e.time for e in log.between(2.0, 4.0)] == [2.0, 3.0]

    def test_filter_predicate(self):
        log = EventLog()
        log.append(1.0, "a", v=1)
        log.append(2.0, "a", v=2)
        assert len(log.filter(lambda e: e.get("v") == 2)) == 1

    def test_last_of_empty_is_none(self):
        assert EventLog().last() is None

    def test_events_order_by_time_then_seq(self):
        e1 = Event(time=1.0, seq=0, name="x")
        e2 = Event(time=1.0, seq=1, name="y")
        assert e1 < e2
