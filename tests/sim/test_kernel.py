"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import (
    PRIORITY_URGENT,
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_sets_value(self, sim):
        event = sim.event().succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_double_succeed_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_succeed_raises(self, sim):
        event = sim.event().fail(ValueError("x"))
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_runs_on_processing(self, sim):
        seen = []
        event = sim.event()
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("hello")
        sim.run()
        assert seen == ["hello"]

    def test_callback_after_processed_still_fires(self, sim):
        event = sim.event().succeed(7)
        sim.run()
        assert event.processed
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_succeed_with_delay(self, sim):
        times = []
        event = sim.event()
        event.add_callback(lambda e: times.append(sim.now))
        event.succeed(delay=5.5)
        sim.run()
        assert times == [5.5]


class TestTimeout:
    def test_fires_at_delay(self, sim):
        times = []
        sim.timeout(3.0).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [3.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="payload")
        sim.run()
        assert timeout.value == "payload"

    def test_zero_delay_ok(self, sim):
        fired = []
        sim.timeout(0.0).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]


class TestSimulatorOrdering:
    def test_time_monotonic(self, sim):
        order = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.timeout(delay).add_callback(
                lambda e, d=delay: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fifo_at_same_timestamp(self, sim):
        order = []
        for tag in range(10):
            sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        sim.run()
        assert order == list(range(10))

    def test_defer_and_timeouts_interleave_by_seq(self, sim):
        # defer calls and timeouts at the same (time, priority) share one
        # global seq counter, so they dispatch in schedule order.
        order = []
        sim.defer(10.0, order.append, "defer-0")
        sim.timeout(10.0, "event-1").add_callback(
            lambda ev: order.append(ev.value))
        sim.defer(10.0, order.append, "defer-2")
        sim.timeout(10.0, "event-3").add_callback(
            lambda ev: order.append(ev.value))
        sim.run()
        assert order == ["defer-0", "event-1", "defer-2", "event-3"]

    def test_urgent_priority_beats_earlier_seq(self, sim):
        order = []
        sim.defer(5.0, order.append, "normal")      # NORMAL, earlier seq
        urgent = sim.event()
        urgent.add_callback(lambda ev: order.append(ev.value))
        urgent.succeed("urgent", delay=5.0, priority=PRIORITY_URGENT)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_run_until_stops_clock(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_includes_boundary(self, sim):
        fired = []
        sim.timeout(4.0).add_callback(lambda e: fired.append(True))
        sim.run(until=4.0)
        assert fired == [True]

    def test_run_until_past_raises(self, sim):
        sim.timeout(5.0)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(2.5)
        assert sim.peek() == 2.5

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.timeout(delay).add_callback(
                lambda e, d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestProcess:
    def test_simple_process_advances_time(self, sim):
        log = []

        def proc():
            yield sim.timeout(1.0)
            log.append(sim.now)
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [1.0, 3.0]

    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        result = sim.run_process(proc())
        assert result == "done"

    def test_process_waits_on_event(self, sim):
        gate = sim.event()
        log = []

        def waiter():
            value = yield gate
            log.append((sim.now, value))

        sim.process(waiter())

        def opener():
            yield sim.timeout(5.0)
            gate.succeed("opened")

        sim.process(opener())
        sim.run()
        assert log == [(5.0, "opened")]

    def test_process_waits_on_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return 99

        def outer():
            value = yield sim.process(inner())
            return value + 1

        assert sim.run_process(outer()) == 100

    def test_yield_already_triggered_event_resumes_now(self, sim):
        done = sim.event().succeed("early")
        sim.run()

        def proc():
            value = yield done
            return (sim.now, value)

        assert sim.run_process(proc()) == (0.0, "early")

    def test_exception_in_process_propagates(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            sim.run_process(proc())

    def test_failed_event_raises_inside_process(self, sim):
        bad = sim.event()

        def proc():
            try:
                yield bad
            except ValueError as exc:
                return f"caught {exc}"

        process = sim.process(proc())
        bad.fail(ValueError("nope"))
        sim.run()
        assert process.value == "caught nope"

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()
        assert process.triggered
        assert not process._ok

    def test_unhandled_process_failure_crashes_run(self, sim):
        """Errors never pass silently: a process crash with no waiter
        surfaces at run()."""

        def proc():
            yield sim.timeout(1.0)
            raise ValueError("unobserved crash")

        sim.process(proc())
        with pytest.raises(ValueError, match="unobserved crash"):
            sim.run()

    def test_observed_process_failure_does_not_crash_run(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise ValueError("observed")

        def watcher():
            try:
                yield sim.process(failing())
            except ValueError:
                return "handled"

        assert sim.run_process(watcher()) == "handled"

    def test_run_process_deadlock_detected(self, sim):
        def proc():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(proc())

    def test_two_processes_interleave(self, sim):
        log = []

        def ping():
            for _ in range(3):
                yield sim.timeout(2.0)
                log.append(("ping", sim.now))

        def pong():
            yield sim.timeout(1.0)
            for _ in range(3):
                yield sim.timeout(2.0)
                log.append(("pong", sim.now))

        sim.process(ping())
        sim.process(pong())
        sim.run()
        assert log == [("ping", 2.0), ("pong", 3.0), ("ping", 4.0),
                       ("pong", 5.0), ("ping", 6.0), ("pong", 7.0)]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        events = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]

        def proc():
            result = yield sim.all_of(events)
            return (sim.now, result)

        assert sim.run_process(proc()) == (3.0, None)

    def test_empty_all_of_triggers_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_all_of_failure_propagates(self, sim):
        bad = sim.event()
        good = sim.timeout(10.0)

        def proc():
            try:
                yield sim.all_of([bad, good])
            except RuntimeError:
                return "failed"

        process = sim.process(proc())
        bad.fail(RuntimeError("x"))
        sim.run()
        assert process.value == "failed"

    def test_condition_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([sim.event(), other.event()])

    def test_all_of_with_already_processed_events(self, sim):
        done = sim.event().succeed(1)
        sim.run()
        pending = sim.timeout(2.0, value=2)

        def proc():
            yield sim.all_of([done, pending])
            return sim.now

        assert sim.run_process(proc()) == 2.0
