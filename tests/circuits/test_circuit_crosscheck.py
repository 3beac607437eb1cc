"""Gate-level cross-validation of the behavioural router model.

The behavioural router charges composite delays (link cycle, forward
path, unlock path) from the :class:`TimingProfile`.  These tests rebuild
the same structures from the *circuit* primitives — latch stages,
mutexes, shareboxes — and verify the behavioural constants emerge, so the
two layers of the model cannot drift apart.
"""

import pytest

from repro.circuits.primitives import LatchStage, Mutex
from repro.circuits.sharebox import Sharebox, Unsharebox
from repro.circuits.timing import WORST_CASE
from repro.sim.kernel import Simulator


class TestShareLoopCycleTime:
    def test_single_vc_rate_emerges_from_primitives(self):
        """A share-controlled loop built from primitives reproduces the
        behavioural per-VC round trip (24 tau at 1.5 mm)."""
        sim = Simulator()
        profile = WORST_CASE
        d = profile.delays

        forward_ns = profile.ns(d.forward_path(1.5))
        unlock_ns = profile.ns(d.unlock_path(1.5))
        arb_ns = profile.ns(d.arbitration)
        transfer_ns = profile.ns(d.unshare_transfer)

        share = Sharebox(sim)
        unshare = Unsharebox(1, "ub")
        grants = []

        def move():
            # The mover: unsharebox -> buffer transfer frees the latch
            # and fires the unlock, whose toggle reaches the sharebox
            # unlock_ns later.
            flit = unshare.leave()
            sim.defer(unlock_ns, share.release)
            grants.append((sim.now, flit))

        def sender(n_flits):
            for index in range(n_flits):
                yield share.wait_ready()
                yield sim.timeout(arb_ns)      # re-arbitration
                share.admit()
                yield sim.timeout(forward_ns)  # media traversal
                unshare.accept(index)
                sim.defer(transfer_ns, move)

        n = 10
        sim.process(sender(n))
        sim.run()
        assert len(grants) == n
        periods = [b - a for (a, _), (b, _) in zip(grants, grants[1:])]
        predicted = profile.vc_round_trip_ns(1.5)
        for period in periods:
            assert period == pytest.approx(predicted, rel=1e-6)

    def test_behavioural_single_vc_utilization_consistent(self):
        """The circuit-level period and the behavioural utilization agree:
        utilization = link_cycle / round_trip."""
        profile = WORST_CASE
        predicted_util = profile.link_cycle_ns / profile.vc_round_trip_ns(1.5)
        assert profile.single_vc_utilization(1.5) == pytest.approx(
            predicted_util)


class TestArbiterStageFromPrimitives:
    def test_mutex_chain_grant_latency_matches_arbitration_budget(self):
        """Climbing a root mutex costs the structural mutex delay the
        behavioural arbiter charges on idle grants."""
        sim = Simulator()
        d = WORST_CASE.delays
        mutex = Mutex(sim, delay=WORST_CASE.ns(d.mutex))
        times = []
        mutex.request(0).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times[0] == pytest.approx(WORST_CASE.ns(d.mutex))

    def test_latch_stage_cycle_matches_link_budget(self):
        """A latch stage with the link-cycle budget sustains exactly the
        515 MHz port rate."""
        sim = Simulator()
        cycle = WORST_CASE.link_cycle_ns
        stage = LatchStage(sim, forward_delay=cycle / 4, cycle_time=cycle)
        pushes = []

        def producer():
            for index in range(8):
                yield from stage.push(index)
                pushes.append(sim.now)

        def consumer():
            for _ in range(8):
                yield from stage.pop()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        gaps = [b - a for a, b in zip(pushes, pushes[1:])]
        for gap in gaps:
            assert gap == pytest.approx(cycle, rel=1e-9)
        rate_mhz = 1e3 / gaps[0]
        assert rate_mhz == pytest.approx(WORST_CASE.port_speed_mhz,
                                         rel=1e-6)
