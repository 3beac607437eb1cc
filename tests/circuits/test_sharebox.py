"""Tests for the share-based VC control primitives (paper Figure 6)."""

import pytest

from repro.circuits.sharebox import Sharebox, ShareProtocolError, Unsharebox
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSharebox:
    def test_starts_unlocked(self, sim):
        box = Sharebox(sim)
        assert not box.locked

    def test_admit_locks(self, sim):
        box = Sharebox(sim)
        box.admit()
        assert box.locked

    def test_admit_while_locked_is_protocol_error(self, sim):
        """Two flits of one VC on the shared media would violate the
        scheme's core invariant."""
        box = Sharebox(sim)
        box.admit()
        with pytest.raises(ShareProtocolError):
            box.admit()

    def test_unlock_reopens(self, sim):
        box = Sharebox(sim)
        box.admit()
        box.unlock()
        assert not box.locked
        box.admit()  # admissible again

    def test_spurious_unlock_is_protocol_error(self, sim):
        box = Sharebox(sim)
        with pytest.raises(ShareProtocolError):
            box.unlock()

    def test_wait_unlocked_blocks_until_unlock(self, sim):
        box = Sharebox(sim)
        box.admit()
        log = []

        def waiter():
            yield box.wait_unlocked()
            log.append(sim.now)

        def unlocker():
            yield sim.timeout(4.0)
            box.unlock()

        sim.process(waiter())
        sim.process(unlocker())
        sim.run()
        assert log == [4.0]

    def test_counters(self, sim):
        box = Sharebox(sim)
        for _ in range(5):
            box.admit()
            box.unlock()
        assert box.admitted == 5
        assert box.unlocks == 5


class TestUnsharebox:
    def test_accept_when_occupied_is_protocol_error(self, sim):
        box = Unsharebox(sim)
        box.accept("first")
        with pytest.raises(ShareProtocolError):
            box.accept("second")

    def test_departure_fires_unlock_callback(self, sim):
        unlocks = []
        box = Unsharebox(sim, on_unlock=lambda: unlocks.append(sim.now))
        box.accept("flit")

        def proc():
            yield sim.timeout(2.0)
            yield box.latch.when_any()
            box.leave()

        sim.run_process(proc())
        assert unlocks == [2.0]

    def test_leave_departs_now_and_fires_unlock(self, sim):
        unlocks = []
        box = Unsharebox(sim, on_unlock=lambda: unlocks.append(1))
        box.accept("flit")
        assert box.leave() == "flit"
        assert unlocks == [1]
        assert not box.occupied
        assert box.departed == 1

    def test_leave_from_empty_box_is_protocol_error(self, sim):
        box = Unsharebox(sim, on_unlock=lambda: pytest.fail("unlocked"))
        with pytest.raises(ShareProtocolError, match="empty"):
            box.leave()
        assert box.departed == 0

    def test_unlock_fires_per_departure(self, sim):
        unlocks = []
        box = Unsharebox(sim, on_unlock=lambda: unlocks.append(1))

        def proc():
            for index in range(3):
                box.accept(index)
                yield box.latch.when_any()
                box.leave()

        sim.run_process(proc())
        assert len(unlocks) == 3
        assert box.accepted == 3
        assert box.departed == 3


class TestLockUnlockLoop:
    def test_full_protocol_cycle(self, sim):
        """Sharebox -> media -> unsharebox -> unlock -> sharebox, as in
        Figure 6.  No flit may enter while the previous is in flight."""
        share = Sharebox(sim)
        unshare = Unsharebox(sim, on_unlock=share.unlock)
        media_delay = 2.0
        delivered = []

        def sender():
            for index in range(4):
                yield share.wait_unlocked()
                share.admit()
                yield sim.timeout(media_delay)
                unshare.accept(index)

        def receiver():
            for _ in range(4):
                yield unshare.latch.when_any()
                flit = unshare.leave()
                delivered.append((sim.now, flit))
                yield sim.timeout(1.0)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert [flit for _, flit in delivered] == [0, 1, 2, 3]
        # Each cycle: media (2.0) then departure; next admit only after.
        assert share.admitted == 4
        assert share.unlocks == 4
