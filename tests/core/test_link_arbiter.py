"""Tests for the link arbiter engine and the three GS policies."""

import pytest

from repro.core.link_arbiter import (
    AlgPolicy,
    FairSharePolicy,
    LinkArbiter,
    StaticPriorityPolicy,
    make_policy,
)
from repro.sim.kernel import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def drain_grants(sim, arbiter, schedule):
    """Drive the arbiter: schedule is [(time, rid)] request times; returns
    the grant order [(grant_time, rid)]."""
    grants = []
    for time, rid in schedule:
        sim.defer(time, arbiter.request, rid,
                  lambda rid=rid: grants.append((sim.now, rid)))
    sim.run()
    return sorted(grants)


def request_repeatedly(arbiter, rid, grants, limit=None):
    """Keep ``rid`` backlogged: count each grant in ``grants[rid]`` and
    request again at once, up to ``limit`` grants (forever if None)."""
    def granted():
        grants[rid] += 1
        if limit is None or grants[rid] < limit:
            arbiter.request(rid, granted)
    arbiter.request(rid, granted)


class TestMakePolicy:
    def test_known_policies(self):
        assert isinstance(make_policy("fair_share", 8), FairSharePolicy)
        assert isinstance(make_policy("static_priority", 8),
                          StaticPriorityPolicy)
        assert isinstance(make_policy("alg", 8), AlgPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("lottery", 8)


class TestFairSharePolicy:
    def test_round_robin_rotation(self):
        policy = FairSharePolicy(4)
        pending = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
        order = []
        for _ in range(8):
            rid = policy.select(pending)
            policy.granted(rid)
            order.append(rid)
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_idle_requesters(self):
        policy = FairSharePolicy(4)
        assert policy.select({2: 0.0}) == 2
        policy.granted(2)
        assert policy.select({1: 0.0, 3: 0.0}) == 3

    def test_select_empty_raises(self):
        with pytest.raises(SimulationError):
            FairSharePolicy(4).select({})


class TestStaticPriorityPolicy:
    def test_lowest_id_wins(self):
        policy = StaticPriorityPolicy()
        assert policy.select({3: 0.0, 1: 0.0, 7: 0.0}) == 1


class TestAlgPolicy:
    def test_one_grant_per_round(self):
        """A requester served this round waits for the next round even if
        it re-requests immediately — the ALG admission rule."""
        policy = AlgPolicy(3)
        policy.enqueued(0)
        policy.enqueued(1)
        assert policy.select({0: 0.0, 1: 0.0}) == 0
        policy.granted(0)
        policy.enqueued(0)  # high priority comes straight back
        # Priority 1 (same round) beats priority 0 (next round).
        assert policy.select({0: 0.0, 1: 0.0}) == 1

    def test_priority_order_within_round(self):
        policy = AlgPolicy(4)
        for rid in (3, 1, 2):
            policy.enqueued(rid)
        assert policy.select({3: 0.0, 1: 0.0, 2: 0.0}) == 1

    def test_round_advances_when_all_served(self):
        policy = AlgPolicy(2)
        policy.enqueued(0)
        policy.enqueued(1)
        policy.granted(policy.select({0: 0.0, 1: 0.0}))
        policy.granted(policy.select({1: 0.0}))
        assert policy.round_no == 1


class TestLinkArbiterEngine:
    def test_cycle_validation(self, sim):
        with pytest.raises(ValueError):
            LinkArbiter(sim, FairSharePolicy(2), cycle_ns=0.0,
                        arbitration_ns=0.1)

    def test_single_request_pays_arbitration(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(4), cycle_ns=2.0,
                              arbitration_ns=0.5)
        grants = drain_grants(sim, arbiter, [(1.0, 0)])
        assert grants == [(pytest.approx(1.5), 0)]

    def test_back_to_back_grants_at_cycle(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(4), cycle_ns=2.0,
                              arbitration_ns=0.5)
        grants = drain_grants(sim, arbiter, [(0.0, 0), (0.0, 1), (0.0, 2)])
        times = [t for t, _ in grants]
        assert times[1] - times[0] == pytest.approx(2.0)
        assert times[2] - times[1] == pytest.approx(2.0)

    def test_double_request_same_rid_rejected(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(4), cycle_ns=2.0,
                              arbitration_ns=0.5)
        arbiter.request(0, lambda: None)
        with pytest.raises(SimulationError):
            arbiter.request(0, lambda: None)

    def test_fair_share_order_under_contention(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(4), cycle_ns=1.0,
                              arbitration_ns=0.1)
        grants = drain_grants(
            sim, arbiter, [(0.0, 3), (0.0, 1), (0.0, 0), (0.0, 2)])
        assert [rid for _, rid in grants] == [0, 1, 2, 3]

    def test_static_priority_order(self, sim):
        arbiter = LinkArbiter(sim, StaticPriorityPolicy(), cycle_ns=1.0,
                              arbitration_ns=0.1)
        grants = drain_grants(
            sim, arbiter, [(0.0, 3), (0.0, 1), (0.0, 2)])
        assert [rid for _, rid in grants] == [1, 2, 3]

    def test_idle_then_busy_transition(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(2), cycle_ns=2.0,
                              arbitration_ns=0.5)
        grants = drain_grants(sim, arbiter, [(0.0, 0), (10.0, 1)])
        assert grants[0][0] == pytest.approx(0.5)
        assert grants[1][0] == pytest.approx(10.5)  # idle again: pays arb

    def test_stats_track_grants_and_busy(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(2), cycle_ns=2.0,
                              arbitration_ns=0.5)
        drain_grants(sim, arbiter, [(0.0, 0), (0.0, 1), (5.0, 0)])
        assert arbiter.stats.grants == {0: 2, 1: 1}
        assert arbiter.stats.busy_ns == pytest.approx(6.0)

    def test_utilization_bounded(self, sim):
        arbiter = LinkArbiter(sim, FairSharePolicy(2), cycle_ns=2.0,
                              arbitration_ns=0.5)
        drain_grants(sim, arbiter, [(0.0, 0)])
        assert 0.0 <= arbiter.stats.utilization(sim.now) <= 1.0


class TestFairShareGuarantee:
    def test_every_backlogged_requester_gets_1_over_v(self, sim):
        """The headline fair-share property at the arbiter level: under
        continuous backlog, each of V requesters receives exactly one
        grant per V cycles."""
        vcs = 8
        arbiter = LinkArbiter(sim, FairSharePolicy(vcs), cycle_ns=1.0,
                              arbitration_ns=0.1)
        counts = {rid: 0 for rid in range(vcs)}
        rounds = 50
        for rid in range(vcs):
            request_repeatedly(arbiter, rid, counts, limit=rounds)
        sim.run(until=vcs * rounds * 1.0 - 1.0)
        observed = set(counts.values())
        assert max(observed) - min(observed) <= 1

    def test_work_conservation(self, sim):
        """An idle VC's bandwidth is automatically used by contenders
        (Section 4.4)."""
        arbiter = LinkArbiter(sim, FairSharePolicy(8), cycle_ns=1.0,
                              arbitration_ns=0.1)
        count = {5: 0}
        request_repeatedly(arbiter, 5, count, limit=20)
        sim.run()
        # 20 grants in ~20 cycles: no slot wasted on absent VCs.
        assert sim.now < 25.0
        assert count[5] == 20


class TestAlgGuarantee:
    def test_low_priority_not_starved(self, sim):
        """Under ALG the lowest priority still gets one grant per round —
        unlike static priority, where it starves."""
        vcs = 4
        for policy_name, expect_starved in (("alg", False),
                                            ("static_priority", True)):
            sim = Simulator()
            arbiter = LinkArbiter(sim, make_policy(policy_name, vcs),
                                  cycle_ns=1.0, arbitration_ns=0.1)
            counts = {rid: 0 for rid in range(vcs)}
            for rid in range(vcs):
                request_repeatedly(arbiter, rid, counts)
            sim.run(until=200.0)
            if expect_starved:
                assert counts[vcs - 1] <= 1
            else:
                assert counts[vcs - 1] >= 200 / vcs - 2
