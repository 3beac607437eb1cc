"""Link access arbitration (paper Section 4.4).

Since the switching module is non-blocking and the share-based VC control
keeps flits from stalling on the shared media, **link access is the only
point of contention on a connection** — so the link arbiter is the element
that implements whatever service guarantee the router provides.  The
engine/policy split mirrors the paper's modularity claim: "it is an easy
and modular task to instantiate new GS schemes".

Policies provided:

* :class:`FairSharePolicy` — the scheme implemented in the paper's silicon
  ([5]): work-conserving round-robin, guaranteeing each of the V VCs at
  least 1/V of the link bandwidth, with unused allocations automatically
  picked up by other contenders.
* :class:`StaticPriorityPolicy` — prioritized VCs as in Felicijan/Furber
  [9]: improves latency for high-priority connections but gives **no hard
  guarantee** (low priorities starve under saturation) — the baseline the
  paper distinguishes itself from.
* :class:`AlgPolicy` — the ALG scheme of the companion paper [6]:
  round-structured admission (each VC is served at most once per round)
  with priority ordering inside a round, giving every VC a 1/V bandwidth
  guarantee *and* latency bounds proportional to priority.

Requester ids: GS VCs are 0..V-1 (id doubles as the ALG/static priority,
0 highest); BE channels are V..V+B-1 (lowest priority under priority
schemes, equal peers under fair-share).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..sim.kernel import Simulator, SimulationError
from ..sim.tracing import NULL_TRACER

__all__ = [
    "ArbiterPolicy",
    "FairSharePolicy",
    "StaticPriorityPolicy",
    "AlgPolicy",
    "LinkArbiter",
    "make_policy",
]


class ArbiterPolicy:
    """Strategy deciding which pending requester is granted next."""

    name = "abstract"

    def select(self, pending: Mapping[int, Any]) -> int:
        """Pick one id from ``pending``.

        ``pending`` is a mapping whose keys are the contending requester
        ids; policies must only inspect the keys (the arbiter passes its
        internal rid -> (grant callback, request time) table straight
        through to avoid rebuilding a dict per grant), so the values are
        opaque.
        """
        raise NotImplementedError

    def granted(self, rid: int) -> None:
        """Hook called when ``rid`` is actually granted."""


class FairSharePolicy(ArbiterPolicy):
    """Round-robin over the requester id space.

    A backlogged requester is served at least once per V grants, i.e. it
    receives at least 1/V of the link bandwidth; idle allocations go to
    whoever is contending (work conservation).
    """

    name = "fair_share"

    def __init__(self, n_requesters: int):
        if n_requesters < 1:
            raise ValueError("need at least one requester")
        self.n_requesters = n_requesters
        self._next = 0

    def select(self, pending: Mapping[int, Any]) -> int:
        if len(pending) == 1:  # uncontended link: nothing to rotate over
            for rid in pending:
                if rid < self.n_requesters:
                    return rid
            raise SimulationError("select() with unknown requester id")
        nxt = self._next
        for rid in range(nxt, self.n_requesters):
            if rid in pending:
                return rid
        for rid in range(nxt):
            if rid in pending:
                return rid
        raise SimulationError("select() with no pending requests")

    def granted(self, rid: int) -> None:
        self._next = (rid + 1) % self.n_requesters


class StaticPriorityPolicy(ArbiterPolicy):
    """Strict priority: lowest id wins.  No starvation protection."""

    name = "static_priority"

    def select(self, pending: Mapping[int, Any]) -> int:
        return min(pending)


class AlgPolicy(ArbiterPolicy):
    """ALG: rounds of admission + priority order within a round.

    Each requester is granted at most once per round; within a round the
    highest priority (lowest id) pending request goes first.  A request
    arriving from a requester already served this round waits for the next
    round.  Consequences (measured in `benchmarks/bench_alg_latency.py`):

    * bandwidth: every backlogged requester gets one grant per round, i.e.
      at least 1/V of the link — same hard floor as fair-share;
    * latency: a flit of priority p waits for at most the unserved
      higher-priority requesters of its round plus the residual grant, so
      worst-case latency grows with p instead of being uniform.
    """

    name = "alg"

    def __init__(self, n_requesters: int):
        if n_requesters < 1:
            raise ValueError("need at least one requester")
        self.n_requesters = n_requesters
        self.round_no = 0
        self._served: set = set()
        self._round_of: Dict[int, int] = {}

    def enqueued(self, rid: int) -> None:
        """Assign the arriving request to a round."""
        if rid in self._served:
            self._round_of[rid] = self.round_no + 1
        else:
            self._round_of[rid] = self.round_no

    def select(self, pending: Mapping[int, Any]) -> int:
        if not pending:
            raise SimulationError("select() with no pending requests")
        best = min(pending, key=lambda rid: (self._round_of[rid], rid))
        if self._round_of[best] > self.round_no:
            # Everyone still pending belongs to the next round: open it.
            self.round_no += 1
            self._served.clear()
        return best

    def granted(self, rid: int) -> None:
        self._served.add(rid)
        self._round_of.pop(rid, None)
        if len(self._served) >= self.n_requesters:
            self.round_no += 1
            self._served.clear()


def make_policy(name: str, n_requesters: int) -> ArbiterPolicy:
    if name == "fair_share":
        return FairSharePolicy(n_requesters)
    if name == "static_priority":
        return StaticPriorityPolicy()
    if name == "alg":
        return AlgPolicy(n_requesters)
    raise ValueError(f"unknown arbiter policy {name!r}")


@dataclass
class ArbiterStats:
    grants: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    busy_ns: float = 0.0
    first_grant: float = float("inf")
    last_release: float = 0.0

    def utilization(self, now: float) -> float:
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_ns / now)


class LinkArbiter:
    """Grant engine for one output link.

    The shared media accepts one flit per ``cycle_ns`` (the 18.5 τ link
    cycle that sets the 515 MHz port speed).  A request issued while the
    link is idle pays the ``arbitration_ns`` mutex+grant latency; requests
    queued while the link is busy overlap their arbitration with the
    ongoing transfer and are granted back-to-back.

    The engine is callback-driven: a grant decision is a deferred call
    scheduled for the exact moment the link can next be allocated, not a
    dispatcher process that sleeps and polls, and a grant is the
    requester's own continuation, called at grant time, not an event.
    Grant times are identical to the process formulation —
    ``max(selection time, request time + arbitration, link
    busy-until)`` — at a fraction of the kernel events.
    """

    def __init__(self, sim: Simulator, policy: ArbiterPolicy,
                 cycle_ns: float, arbitration_ns: float, name: str = "arb",
                 tracer=NULL_TRACER):
        if cycle_ns <= 0:
            raise ValueError("cycle time must be positive")
        self.sim = sim
        self.policy = policy
        self.cycle_ns = cycle_ns
        self.arbitration_ns = arbitration_ns
        self.name = name
        self.tracer = tracer
        # rid -> (grant callback, request time)
        self._pending: Dict[int, tuple] = {}
        self._busy_until = -float("inf")
        #: Time the queued dispatch fires at, or None when idle.  The
        #: schedule time never decreases, so one deferred call suffices.
        self._dispatch_at: Optional[float] = None
        self.stats = ArbiterStats()
        # Per-request hook some policies need; prebound so the hot
        # request path skips an isinstance check per flit.
        self._enqueued_hook = getattr(policy, "enqueued", None)

    def request(self, rid: int, on_grant: Callable[[], None]) -> None:
        """Contend for the link; ``on_grant()`` is called at grant time."""
        pending = self._pending
        if rid in pending:
            raise SimulationError(
                f"{self.name}: requester {rid} already pending (the share "
                "scheme allows one outstanding flit per VC)")
        now = self.sim._now
        pending[rid] = (on_grant, now)
        if self._enqueued_hook is not None:
            self._enqueued_hook(rid)
        when = self._busy_until
        if when < now:
            when = now
        self._schedule_dispatch(when)

    def _schedule_dispatch(self, when: float) -> None:
        at = self._dispatch_at
        if at is not None and at <= when:
            return  # a dispatch at or before `when` is already queued
        self._dispatch_at = when
        sim = self.sim
        sim.defer(when - sim._now, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_at = None
        pending = self._pending
        if not pending:
            return
        now = self.sim._now
        if now < self._busy_until:  # pragma: no cover - defensive
            self._schedule_dispatch(self._busy_until)
            return
        # Policies only look at the keys, so the internal table is
        # handed over as-is (no per-grant dict rebuild).
        rid = self.policy.select(pending)
        on_grant, req_time = pending.pop(rid)
        grant_time = req_time + self.arbitration_ns
        if grant_time < now:
            grant_time = now
        self.policy.granted(rid)
        stats = self.stats
        stats.grants[rid] += 1
        stats.busy_ns += self.cycle_ns
        if grant_time < stats.first_grant:
            stats.first_grant = grant_time
        self._busy_until = busy_until = grant_time + self.cycle_ns
        stats.last_release = busy_until
        if self.tracer.enabled:
            # Stamped at decision time (keeps the ring time-monotonic);
            # a backlogged link's grant takes effect at grant_ns.
            self.tracer.emit(now, self.name, "grant", rid=rid,
                             grant_ns=grant_time,
                             waited_ns=grant_time - req_time)
        if grant_time > now:
            # One heap entry calls the grant at grant_time.
            self.sim.defer(grant_time - now, on_grant)
        else:
            # Backlogged link: the grant is due right now — run the
            # sender's continuation synchronously.
            on_grant()
        if pending:
            # The media cycle must elapse before the next grant.
            self._schedule_dispatch(busy_until)
