"""Unit tests for stores, gates and resources."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.resources import Resource, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStoreBasics:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_put_get_roundtrip(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        assert sim.run_process(proc()) == "x"

    def test_fifo_order(self, sim):
        store = Store(sim)

        def proc():
            for index in range(5):
                yield store.put(index)
            out = []
            for _ in range(5):
                out.append((yield store.get()))
            return out

        assert sim.run_process(proc()) == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        log = []

        def consumer():
            item = yield store.get()
            log.append((sim.now, item))

        def producer():
            yield sim.timeout(4.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert log == [(4.0, "late")]

    def test_put_blocks_when_full(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append(("put1", sim.now))
            yield store.put(2)
            log.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log == [("put1", 0.0), ("put2", 5.0)]

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_try_get_empty_returns_none(self, sim):
        store = Store(sim)
        assert store.try_get() is None

    def test_try_get_returns_head(self, sim):
        store = Store(sim)
        store.try_put("a")
        store.try_put("b")
        assert store.try_get() == "a"

    def test_is_full_and_empty(self, sim):
        store = Store(sim, capacity=1)
        assert store.is_empty
        store.try_put(0)
        assert store.is_full


class TestStorePeekAndSpace:
    @given(st.lists(st.integers(), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_property_fifo_preserved_through_capacity(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                received.append((yield store.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == items


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_exclusive_access(self, sim):
        resource = Resource(sim)
        log = []

        def user(tag, hold):
            yield resource.request()
            log.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            log.append((tag, "out", sim.now))
            resource.release()

        sim.process(user("a", 5.0))
        sim.process(user("b", 1.0))
        sim.run()
        assert log == [("a", "in", 0.0), ("a", "out", 5.0),
                       ("b", "in", 5.0), ("b", "out", 6.0)]

    def test_fifo_grant_order(self, sim):
        resource = Resource(sim)
        order = []

        def user(tag):
            yield resource.request()
            order.append(tag)
            yield sim.timeout(1.0)
            resource.release()

        for tag in range(5):
            sim.process(user(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_idle_raises(self, sim):
        resource = Resource(sim)
        with pytest.raises(SimulationError):
            resource.release()

    def test_multi_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        concurrent = []

        def user():
            yield resource.request()
            concurrent.append(resource.in_use)
            yield sim.timeout(1.0)
            resource.release()

        for _ in range(4):
            sim.process(user())
        sim.run()
        assert max(concurrent) == 2
