"""Property-based tests for the link arbiter under random schedules."""

from hypothesis import given, settings, strategies as st

from repro.core.link_arbiter import LinkArbiter, make_policy
from repro.sim.kernel import Simulator

CYCLE = 2.0
ARB = 0.5


def requester(sim, arbiter, rid, repeats, grants, gap=None):
    """Request ``repeats`` grants for ``rid``, logging each as
    (grant_time, rid); after a grant, request again at once, or ``gap``
    ns later.  Returns the call that makes the first request."""
    left = repeats

    def granted():
        nonlocal left
        grants.append((sim.now, rid))
        left -= 1
        if not left:
            return
        if gap is None:
            arbiter.request(rid, granted)
        else:
            sim.defer(gap, arbiter.request, rid, granted)

    return lambda: arbiter.request(rid, granted)


def run_schedule(policy_name, n_requesters, schedule):
    """Drive an arbiter with (delay, rid, repeats) requesters; returns the
    grant log [(grant_time, rid)] sorted by time."""
    sim = Simulator()
    arbiter = LinkArbiter(sim, make_policy(policy_name, n_requesters),
                          cycle_ns=CYCLE, arbitration_ns=ARB)
    grants = []
    for delay, rid, repeats in schedule:
        # Model the share-based round trip before re-requesting.
        sim.defer(delay, requester(sim, arbiter, rid, repeats, grants,
                                   gap=CYCLE * 1.3))
    sim.run()
    return sorted(grants)


schedule_strategy = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=6,
    unique_by=lambda entry: entry[1],  # one process per requester id
)


class TestArbiterInvariants:
    @given(schedule_strategy,
           st.sampled_from(["fair_share", "alg", "static_priority"]))
    @settings(max_examples=60, deadline=None)
    def test_property_no_two_grants_inside_one_cycle(self, schedule,
                                                     policy):
        """The shared media carries one flit per link cycle — grants are
        never closer than the cycle time."""
        grants = run_schedule(policy, 4, schedule)
        for (t_a, _), (t_b, _) in zip(grants, grants[1:]):
            assert t_b - t_a >= CYCLE - 1e-9

    @given(schedule_strategy,
           st.sampled_from(["fair_share", "alg", "static_priority"]))
    @settings(max_examples=60, deadline=None)
    def test_property_every_request_eventually_granted(self, schedule,
                                                       policy):
        """With finite demand nothing is lost (work conservation): total
        grants equal total requests."""
        grants = run_schedule(policy, 4, schedule)
        expected = sum(repeats for _, _, repeats in schedule)
        assert len(grants) == expected

    @given(schedule_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_fair_share_spread_bounded(self, schedule):
        """Under fair-share, grant counts of simultaneously-backlogged
        requesters never diverge by more than the demand imbalance: with
        equal repeats they stay within one round of each other at any
        prefix of the log."""
        equalized = [(0.0, rid, 4) for _, rid, _ in schedule]
        grants = run_schedule("fair_share", 4, equalized)
        active = {rid for _, rid, _ in equalized}
        counts = {rid: 0 for rid in active}
        for _, rid in grants:
            counts[rid] += 1
            live = [c for r, c in counts.items() if c < 4]
            if len(live) > 1:
                assert max(live) - min(live) <= len(active)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_property_alg_one_grant_per_round(self, n_requesters):
        """ALG invariant: in any window of V consecutive grants with all
        requesters backlogged, every requester appears exactly once."""
        schedule = [(0.0, rid, 6) for rid in range(n_requesters)]
        sim = Simulator()
        arbiter = LinkArbiter(sim, make_policy("alg", n_requesters),
                              cycle_ns=CYCLE, arbitration_ns=ARB)
        grants = []
        for _, rid, repeats in schedule:
            requester(sim, arbiter, rid, repeats, grants)()
        sim.run()
        order = [rid for _, rid in sorted(grants)]
        for start in range(0, len(order) - n_requesters + 1,
                           n_requesters):
            window = order[start:start + n_requesters]
            assert sorted(window) == list(range(n_requesters))
