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
        assert box.ready
        assert box.credits == box.window == 1

    def test_admit_locks(self, sim):
        box = Sharebox(sim)
        box.admit()
        assert not box.ready

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
        box.release()
        assert box.ready
        box.admit()  # admissible again

    def test_spurious_unlock_is_protocol_error(self, sim):
        box = Sharebox(sim)
        with pytest.raises(ShareProtocolError):
            box.release()

    def test_wait_ready_immediate_when_free(self, sim):
        box = Sharebox(sim)

        def proc():
            yield box.wait_ready()
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_wait_unlocked_blocks_until_unlock(self, sim):
        box = Sharebox(sim)
        box.admit()
        log = []

        def waiter():
            yield box.wait_ready()
            log.append(sim.now)

        def unlocker():
            yield sim.timeout(4.0)
            box.release()

        sim.process(waiter())
        sim.process(unlocker())
        sim.run()
        assert log == [4.0]

    def test_counters(self, sim):
        box = Sharebox(sim)
        for _ in range(5):
            box.admit()
            box.release()
        assert box.admitted == 5
        assert box.credits == 1


class TestWindow:
    """The one box is the share scheme (window 1), the credit scheme and
    the BE credits (window w)."""

    def test_window_w_admits_w_flits_before_it_blocks(self, sim):
        box = Sharebox(sim, window=3)
        for expected in (2, 1, 0):
            assert box.ready
            box.admit()
            assert box.credits == expected
        assert not box.ready
        assert box.admitted == 3
        with pytest.raises(ShareProtocolError, match="no free place"):
            box.admit()

    def test_waiter_wakes_only_when_free_count_leaves_zero(self, sim):
        """Releases while places are still free wake nobody: the waiter
        registered at zero wakes on the 0 -> 1 release, synchronously."""
        box = Sharebox(sim, window=2)
        box.admit()
        box.admit()
        woken = []
        box.wait_ready().add_callback(lambda _event: woken.append(
            box.credits))
        box.release()
        assert woken == [1]
        box.release()
        assert woken == [1]  # 1 -> 2 is not a wake-up
        box.admit()
        box.admit()
        box.release()
        assert woken == [1]  # the woken waiter is gone

    @pytest.mark.parametrize("window", [1, 4])
    def test_protocol_errors(self, sim, window):
        box = Sharebox(sim, window=window, name="box")
        with pytest.raises(ShareProtocolError,
                           match="box: release while the whole window"):
            box.release()
        for _ in range(window):
            box.admit()
        with pytest.raises(ShareProtocolError, match="box: admit with no"):
            box.admit()
        assert box.admitted == window
        assert box.credits == 0


class TestUnsharebox:
    """The latch alone: its owner fires the unlock (VC slot cases in
    tests/core/test_output_port.py)."""

    def test_accept_when_occupied_is_protocol_error(self, sim):
        box = Unsharebox(1, "ub")
        box.accept("first")
        with pytest.raises(ShareProtocolError):
            box.accept("second")

    def test_leave_departs_now(self, sim):
        box = Unsharebox(1, "ub")
        box.accept("flit")
        assert box.leave() == "flit"
        assert not box.occupied
        assert box.departed == 1

    def test_leave_from_empty_box_is_protocol_error(self, sim):
        box = Unsharebox(1, "ub")
        with pytest.raises(ShareProtocolError, match="empty"):
            box.leave()
        assert box.departed == 0

    def test_counts_every_departure(self, sim):
        box = Unsharebox(1, "ub")
        for index in range(3):
            box.accept(index)
            assert box.leave() == index
        assert box.accepted == 3
        assert box.departed == 3

    def test_capacity_is_the_window(self, sim):
        box = Unsharebox(2, "ub")
        box.accept("a")
        box.accept("b")
        with pytest.raises(ShareProtocolError):
            box.accept("c")
        assert box.leave() == "a"


class TestLockUnlockLoop:
    def test_full_protocol_cycle(self, sim):
        """Sharebox -> media -> unsharebox -> unlock -> sharebox, as in
        Figure 6.  No flit may enter while the previous is in flight."""
        share = Sharebox(sim)
        unshare = Unsharebox(1, "ub")
        media_delay = 2.0
        delivered = []

        def arrive(flit):
            # The receiving side takes each flit as it lands and toggles
            # the unlock as it leaves the unsharebox.
            unshare.accept(flit)
            flit = unshare.leave()
            share.release()
            delivered.append((sim.now, flit))

        def sender():
            for index in range(4):
                yield share.wait_ready()
                share.admit()
                sim.defer(media_delay, arrive, index)

        sim.process(sender())
        sim.run()
        assert [flit for _, flit in delivered] == [0, 1, 2, 3]
        # Each cycle: media (2.0) then departure; next admit only after.
        assert [time for time, _ in delivered] == [2.0, 4.0, 6.0, 8.0]
        assert share.admitted == 4
        assert share.credits == 1
