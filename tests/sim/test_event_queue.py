"""The kernel's single ``heapq`` event queue against a reference model:
entries dispatch in exact (time, priority, seq) order, ``seq`` being the
schedule order shared by events and ``Simulator.defer`` calls — through
awkward float timestamps, far-future and mid-drain entries, and (by
Hypothesis) every drive method on random programs.
"""

import random
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import (PRIORITY_LATE, PRIORITY_NORMAL,
                              PRIORITY_URGENT, Simulator)

INF = float("inf")


def schedule(sim, tag, when, priority, kind, log):
    """Schedule ``tag`` for absolute time ``when`` as a ``defer`` call or
    an event; return its reference key (time, priority, tag)."""
    delay = when - sim.now
    if kind == "defer":
        sim.defer(delay, log.append, tag)
    else:
        event = sim.event()
        event.add_callback(lambda ev: log.append(ev.value))
        event.succeed(tag, delay=delay, priority=priority)
    # The kernel stamps now + delay; the reference must use the same sum.
    return (sim.now + delay, priority, tag)


TIMES = st.one_of(  # near-equal floats, duplicates, far-future spikes
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.sampled_from([0.0, 10.0, 20.0, 9.999999999, 1e5, 1e8]))
#: Programs of (time, priority, kind) triples; defer is always NORMAL.
programs = st.lists(st.one_of(
    st.tuples(TIMES, st.just(PRIORITY_NORMAL), st.just("defer")),
    st.tuples(TIMES, st.sampled_from(
        [PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LATE]), st.just("event")),
), min_size=1, max_size=60)


def loaded(program, **options):
    """A fresh ``Simulator(**options)`` with ``program`` scheduled."""
    sim, log = Simulator(**options), []
    keys = [schedule(sim, tag, t, p, kind, log)
            for tag, (t, p, kind) in enumerate(program)]
    return sim, log, keys


def reference_order(keys):
    return [tag for _, _, tag in sorted(keys)]


class TestQueueEdges:

    def test_near_equal_timestamps_keep_float_order(self):
        sim, log = Simulator(), []
        times = [30.0, 10.000000001, 10.0, 0.0, 9.999999999, 20.0, 10.0]
        keys = [schedule(sim, tag, t, PRIORITY_NORMAL, "event", log)
                for tag, t in enumerate(times)]
        sim.run()
        assert log == reference_order(keys) == [3, 4, 2, 6, 1, 5, 0]

    def test_entry_scheduled_mid_drain_slots_in_order(self):
        sim, log = Simulator(), []
        sim.defer(5.0, lambda: sim.defer(15.0, log.append, 20.0))
        sim.defer(50.0, log.append, 50.0)
        sim.defer(5.0, log.append, 5.0)
        sim.run()
        assert log == [5.0, 20.0, 50.0]

    def test_far_future_entries_drain_in_global_order(self):
        sim, log = Simulator(), []
        for t in (1e9, 2.5, 1e6, 0.5, 1.5):
            sim.defer(t, log.append, t)
        sim.run()
        assert log == [0.5, 1.5, 2.5, 1e6, 1e9]
        assert sim.now == 1e9

    def test_later_schedule_overtakes_far_entry(self):
        sim, log = Simulator(), []
        sim.defer(100.0, log.append, "b")
        sim.defer(2.0, lambda: (log.append("a"),
                                sim.defer(97.0, log.append, "c")))
        sim.run()
        assert log == ["a", "c", "b"]

    def test_sparse_timestamps(self):
        sim, log = Simulator(), []
        for i in reversed(range(200)):
            sim.defer(i * 10_000.0, log.append, i)
        sim.run()
        assert log == list(range(200))
        assert sim.events_processed == 200
        assert sim.now == 1_990_000.0

    def test_entries_past_deadline_stay_queued(self):
        sim, log = Simulator(), []
        for t in (15.0, 1.0, 5.0):
            sim.defer(t, log.append, t)
        sim.run(until=5.0)
        assert log == [1.0, 5.0]
        assert sim.peek() == 15.0
        sim.run(until=14.999)
        assert log == [1.0, 5.0]
        assert sim.now == 14.999 and sim.peek() == 15.0
        sim.run(until=15.0)
        assert log == [1.0, 5.0, 15.0]
        assert sim.peek() == INF

    def test_peek_tracks_earliest_entry(self):
        sim = Simulator()
        assert sim.peek() == INF
        sim.timeout(1e9)
        assert sim.peek() == 1e9
        sim.timeout(3.0)
        assert sim.peek() == 3.0
        sim.run(until=3.0)
        assert sim.now == 3.0 and sim.peek() == 1e9
        sim.defer(0.5, lambda: None)
        assert sim.peek() == 3.5

    def test_same_slot_payloads_are_never_compared(self):
        # Event entries are 4-tuples, defer entries 6-tuples; a unique
        # seq at slot 2 means heap comparisons never reach the payloads.
        class Unordered:
            def __lt__(self, other):
                raise AssertionError("payload compared")
            __gt__ = __le__ = __ge__ = __lt__

        sim, log = Simulator(), []
        for i in range(50):
            if i % 2:
                sim.defer(7.0, lambda _u, i=i: log.append(i), Unordered())
            else:
                sim.timeout(7.0, Unordered()).add_callback(
                    lambda ev, i=i: log.append(i))
        sim.run()
        assert log == list(range(50))

    def test_same_time_orders_by_priority_then_schedule(self):
        sim, log = Simulator(), []
        priorities = [PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT,
                      PRIORITY_LATE, PRIORITY_URGENT, PRIORITY_NORMAL]
        keys = [schedule(sim, tag, 7.0, p, "event", log)
                for tag, p in enumerate(priorities)]
        sim.run()
        assert log == reference_order(keys) == [2, 4, 1, 5, 0, 3]

    def test_zero_delay_from_callback_runs_after_queued_peers(self):
        sim, log = Simulator(), []
        sim.defer(5.0, lambda: (log.append("a"),
                                sim.defer(0.0, log.append, "a+0")))
        sim.defer(5.0, log.append, "b")
        sim.defer(5.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c", "a+0"]

    def test_urgent_from_callback_preempts_queued_normal(self):
        sim, log = Simulator(), []

        def first():
            log.append("a")
            urgent = sim.event()
            urgent.add_callback(lambda ev: log.append(ev.value))
            urgent.succeed("urgent", priority=PRIORITY_URGENT)

        sim.defer(5.0, first)
        sim.defer(5.0, log.append, "b")
        sim.run()
        assert log == ["a", "urgent", "b"]


class TestDispatchMatchesReference:

    @given(program=programs)
    @settings(max_examples=120, deadline=None)
    def test_dispatch_order_matches_sorted_reference(self, program):
        sim, log, keys = loaded(program)
        sim.run()
        assert log == reference_order(keys)
        assert sim.events_processed == len(program)

    @given(program=programs,
           cuts=st.lists(st.floats(min_value=0.0, max_value=200.0,
                                   allow_nan=False), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_run_until_slices_match_reference(self, program, cuts):
        sim, log, keys = loaded(program)
        for cut in sorted(cuts):
            sim.run(until=cut)
            assert sim.now == cut
            assert log == reference_order(k for k in keys if k[0] <= cut)
        sim.run()
        assert log == reference_order(keys)

    @given(program=programs, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_schedule_and_drain(self, program, seed):
        # Scheduling interleaved with partial drains, never going back
        # in time, against a plain heapq over the same keys.
        rng = random.Random(seed)
        sim = Simulator()
        log, expected, reference = [], [], []
        for tag, (t, p, kind) in enumerate(sorted(program)):
            heappush(reference, schedule(sim, tag, max(t, sim.now), p,
                                         kind, log))
            if rng.random() < 0.5:
                until = sim.now if rng.random() < 0.3 else reference[0][0]
                sim.run(until=until)
                while reference and reference[0][0] <= until:
                    expected.append(heappop(reference)[2])
                assert log == expected
        sim.run()
        while reference:
            expected.append(heappop(reference)[2])
        assert log == expected

    @given(program=programs)
    @settings(max_examples=60, deadline=None)
    def test_profiled_drain_matches_reference(self, program):
        sim, log, keys = loaded(program, profile=True)
        sim.run()
        assert log == reference_order(keys)
        assert sim.events_processed == len(program)
