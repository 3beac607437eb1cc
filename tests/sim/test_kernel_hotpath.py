"""Regression tests for the kernel hot path and its edge cases.

Covers the two scheduling bugs fixed alongside the hot-path rework
(``Event.fail`` dropping the priority argument, and the processed-event
callback proxy losing the defused flag), the deadline driving API, and
the corners of process/condition lifecycle that the fast paths must
preserve.
"""

import pytest

from repro.sim.kernel import (
    AllOf,
    Event,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestFailPriority:
    def test_fail_accepts_priority(self, sim):
        event = sim.event().fail(ValueError("x"), priority=PRIORITY_URGENT)
        event._defused = True
        assert not event.ok

    def test_urgent_failure_ordered_before_normal_success(self, sim):
        """Regression: fail() used to drop the priority argument, so a
        failure could never be ordered against urgent same-timestamp
        events.  Urgent-failed callbacks must run first even when the
        normal-priority event was scheduled earlier."""
        order = []
        ok_event = sim.event()
        ok_event.add_callback(lambda e: order.append("normal-ok"))
        bad_event = sim.event()
        bad_event._defused = True
        bad_event.add_callback(lambda e: order.append("urgent-fail"))

        ok_event.succeed(priority=PRIORITY_NORMAL)       # scheduled first
        bad_event.fail(ValueError("x"), priority=PRIORITY_URGENT)
        sim.run()
        assert order == ["urgent-fail", "normal-ok"]

    def test_late_failure_ordered_after_normal(self, sim):
        order = []
        bad_event = sim.event()
        bad_event._defused = True
        bad_event.add_callback(lambda e: order.append("late-fail"))
        ok_event = sim.event()
        ok_event.add_callback(lambda e: order.append("normal-ok"))

        bad_event.fail(ValueError("x"), priority=PRIORITY_LATE)
        ok_event.succeed()
        sim.run()
        assert order == ["normal-ok", "late-fail"]


class TestProcessedFailureCallback:
    def test_benign_callback_on_consumed_failure_does_not_reraise(self, sim):
        """Regression: the proxy event built for a callback attached
        after processing copied _ok/_value but not _defused, so observing
        an already-handled failure re-raised it from the event loop."""
        bad = sim.event()

        def catcher():
            try:
                yield bad
            except ValueError:
                return "handled"

        process = sim.process(catcher())
        bad.fail(ValueError("boom"))
        sim.run()
        assert process.value == "handled"
        assert bad.processed and bad._defused

        seen = []
        bad.add_callback(lambda e: seen.append(e._value))
        sim.run()  # must not re-raise the handled failure
        assert len(seen) == 1
        assert isinstance(seen[0], ValueError)

    def test_unconsumed_failure_still_surfaces_via_late_callback(self, sim):
        """An *unhandled* failure keeps crashing the run, also when the
        crash is triggered again through a late-attached callback."""
        bad = sim.event()
        bad.fail(ValueError("unobserved"))
        with pytest.raises(ValueError):
            sim.run()
        bad.add_callback(lambda e: None)
        with pytest.raises(ValueError):
            sim.run()


class TestRunEdges:
    def test_run_until_now_processes_due_events(self, sim):
        fired = []
        sim.timeout(5.0).add_callback(lambda e: fired.append(sim.now))
        sim.run(until=5.0)
        assert sim.now == 5.0
        # A second run to the exact same time is a no-op, not an error.
        sim.run(until=5.0)
        assert fired == [5.0]

    def test_run_until_now_with_zero_delay_events(self, sim):
        fired = []
        sim.run(until=3.0)
        sim.timeout(0.0).add_callback(lambda e: fired.append(sim.now))
        sim.run(until=3.0)
        assert fired == [3.0]

    def test_run_until_advances_clock_when_idle(self, sim):
        sim.run(until=100.0)
        assert sim.now == 100.0


class TestConditionsWithFailedChildren:
    def _failed_processed_event(self, sim):
        bad = sim.event()

        def consume():
            try:
                yield bad
            except RuntimeError:
                pass

        sim.process(consume())
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert bad.processed and bad._defused
        return bad

    def test_all_of_with_already_failed_child(self, sim):
        bad = self._failed_processed_event(sim)
        good = sim.timeout(10.0)

        def proc():
            try:
                yield AllOf(sim, [bad, good])
            except RuntimeError:
                return "failed"

        assert sim.run_process(proc()) == "failed"


class TestDefer:
    def test_defer_runs_at_time(self, sim):
        log = []
        sim.defer(4.5, lambda: log.append(sim.now))
        sim.run()
        assert log == [4.5]

    def test_defer_with_args(self, sim):
        log = []
        sim.defer(1.0, log.append, "payload")
        sim.run()
        assert log == ["payload"]

    def test_defer_orders_with_events(self, sim):
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("timeout"))
        sim.defer(1.0, order.append, "defer")
        sim.run()
        assert order == ["timeout", "defer"]

    def test_defer_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.defer(-1.0, lambda: None)


class TestRunUntilTriggered:
    def test_stops_at_trigger(self, sim):
        target = sim.event()

        def opener():
            yield sim.timeout(5.0)
            target.succeed()

        sim.process(opener())
        sim.timeout(100.0)  # later noise that must not be dispatched
        assert sim.run_until_triggered(target) is True
        assert sim.now == 5.0

    def test_returns_false_on_deadline(self, sim):
        target = sim.event()  # never triggered
        sim.timeout(50.0)
        assert sim.run_until_triggered(target, max_ns=10.0) is False

    def test_returns_false_when_heap_drains(self, sim):
        target = sim.event()
        sim.timeout(1.0)
        assert sim.run_until_triggered(target) is False

    def test_events_processed_counter_advances(self, sim):
        before = sim.events_processed
        for delay in (1.0, 2.0, 3.0):
            sim.timeout(delay)
        sim.run()
        assert sim.events_processed >= before + 3


class TestFire:
    def test_fire_runs_callbacks_synchronously(self, sim):
        from repro.sim.kernel import fire
        seen = []
        event = sim.event()
        event.add_callback(lambda e: seen.append(e.value))
        fire(event, "now")
        assert seen == ["now"]  # no sim.run() needed
        assert event.processed

    def test_fire_on_triggered_event_rejected(self, sim):
        """Double-trigger protection: fire() on a succeed()ed event must
        raise instead of double-dispatching callbacks and leaving a
        stale heap entry behind."""
        from repro.sim.kernel import fire
        event = sim.event()
        event.add_callback(lambda e: None)
        event.succeed("heap")
        with pytest.raises(SimulationError):
            fire(event, "again")
        sim.run()  # the original heap entry still dispatches cleanly


class TestCompletedEvents:
    def test_completed_event_is_processed_and_ok(self, sim):
        event = Event.completed(sim, "v")
        assert event.triggered and event.processed and event.ok
        assert event.value == "v"

    def test_yielding_completed_event_resumes_inline(self, sim):
        def proc():
            value = yield Event.completed(sim, 7)
            return (sim.now, value)

        assert sim.run_process(proc()) == (0.0, 7)

    def test_callback_on_completed_event_defers_to_next_step(self, sim):
        event = Event.completed(sim, 3)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == []  # deferred, not synchronous
        sim.run()
        assert seen == [3]
