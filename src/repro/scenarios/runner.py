"""Turn a :class:`~repro.scenarios.spec.ScenarioSpec` into a run.

The :class:`ScenarioRunner` is the *only* place in the repository that
constructs a network + workload + collectors from a description: the
integration tests, the benchmarks and the CLI all go through it, so a
new workload is a new spec, never a new driver.

The network itself is built through a pluggable
:class:`~repro.backends.base.RouterBackend` (``backend="mango"`` by
default): the same spec, sources, collectors, verdicts and fingerprint
machinery replay on the MANGO router, the generic arbitrated-VC router
of paper Figure 3, an ÆTHEREAL-style TDM network, or the prioritized-VC
router of ref [9] — the paper's comparative claims as an automated
matrix axis (see ``docs/backends.md``).

Construction order is part of the contract — connections are opened in
spec order, GS traffic attached per connection, then the BE workload is
built (collectors for every tile, then one source per tile with seed
``seed*1000 + tile_index``) — because the flit-hop fingerprints of the
registry scenarios are asserted in-repo and any reordering would shift
RNG draws and event sequence.  The ``mango`` backend performs exactly
the construction calls this module made before backends existed, so the
golden fingerprints are byte-for-byte stable.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..backends import (BackendCapabilityError, RouterBackend,
                        backend_for_topology, get_backend)
from ..core.config import RouterConfig
from ..network.connection import AdmissionError
from ..network.network import MangoNetwork
from ..network.topology import Coord, Direction, Mesh
from ..obs import MetricsRegistry, ObsConfig, build_registry
from ..traffic.generators import BurstySource, CbrSource
from ..traffic.patterns import (BitComplement, Hotspot, LocalUniform,
                                NearestNeighbor, Pattern, Transpose,
                                UniformRandom)
from ..traffic.stats import P2Quantile, RunningStats, percentile
from ..traffic.workload import UniformBeWorkload, run_until_processes_done
from .spec import BeTrafficSpec, ChurnSpec, FailureSpec, ScenarioSpec

__all__ = [
    "ChurnDriver",
    "ConnectionVerdict",
    "ScenarioResult",
    "ScenarioRunner",
    "build_pattern",
    "flit_hop_fingerprint",
]

#: Injection slack allowed on top of the contract's worst-case network
#: latency (the local interface adds a few cycles outside the contract;
#: same allowance as tests/integration/test_qos_contracts.py).
LATENCY_SLACK_CYCLES = 3

#: Result-level BE latency quantiles.
RESULT_QUANTILES = (50.0, 99.0)


def build_pattern(be: BeTrafficSpec, mesh: Mesh) -> Pattern:
    """Instantiate the spatial pattern a BE spec names."""
    seed = be.pattern_seed
    if be.pattern == "uniform":
        return UniformRandom(mesh, seed=seed)
    if be.pattern == "local_uniform":
        return LocalUniform(mesh, radius=be.radius, seed=seed)
    if be.pattern == "transpose":
        return Transpose(mesh, seed=seed)
    if be.pattern == "bit_complement":
        return BitComplement(mesh, seed=seed)
    if be.pattern == "nearest_neighbor":
        return NearestNeighbor(mesh, seed=seed)
    if be.pattern == "hotspot":
        hotspot = (Coord(*be.hotspot) if be.hotspot is not None
                   else Coord(mesh.cols // 2, mesh.rows // 2))
        return Hotspot(mesh, hotspot, fraction=be.fraction, seed=seed)
    raise ValueError(f"unknown pattern {be.pattern!r}")


def flit_hop_fingerprint(network: MangoNetwork) -> str:
    """A machine-independent digest of where every flit went.

    Hashes the per-link GS/BE traversal counts (router-router links and
    the local injection links) plus each open connection's delivered
    count and payload sum.  Pure integer state, so the digest is
    identical across hosts, Python versions and kernel drive styles —
    any change means the *simulated work* changed, which is exactly what
    the determinism regression tests want to catch.
    """
    parts: List[str] = []
    for (coord, direction), link in sorted(
            network.links.items(),
            key=lambda item: (item[0][0].x, item[0][0].y, item[0][1].name)):
        parts.append(f"L{coord.x},{coord.y},{direction.name}:"
                     f"{link.gs_flits},{link.be_flits}")
    for coord in sorted(network.adapters,
                        key=lambda c: (c.x, c.y)):
        local = network.adapters[coord].local_link
        parts.append(f"I{coord.x},{coord.y}:{local.gs_flits}")
    for cid in sorted(network.connection_manager.connections):
        sink = network.connection_manager.connections[cid].sink
        parts.append(f"C{cid}:{sink.count},{sum(sink.payloads)}")
    digest = hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
    return digest[:16]


class ChurnDriver:
    """Opens and closes GS connections at runtime, through the real
    programming protocol (:class:`~repro.scenarios.spec.ChurnSpec`).

    Runs as one deterministic kernel process: per cycle it requests
    every pair through ``ConnectionManager.open`` (admission rejections
    are counted, not fatal), streams ``flits_per_open`` flits over each
    admitted connection, polls the sinks until everything is delivered,
    settles, and closes each connection again — so the VC/interface
    pools breathe every cycle, which no build-time connection set
    exercises.
    """

    def __init__(self, net, churn: ChurnSpec):
        self.net = net
        self.churn = churn
        self.opened = 0
        self.rejected = 0
        self.closed = 0
        self.flits_sent = 0
        self.delivered = 0
        self.process = net.sim.process(self._run(), name="churn")

    def _run(self):
        sim = self.net.sim
        manager = self.net.connection_manager
        churn = self.churn
        payload = 0
        for _cycle in range(churn.cycles):
            conns = []
            for src, dst in churn.pairs:
                try:
                    conn = yield from manager.open(
                        Coord(*src), Coord(*dst), want_ack=churn.want_ack)
                except AdmissionError:
                    self.rejected += 1
                    continue
                self.opened += 1
                conns.append(conn)
            if not churn.want_ack:
                # Fire-and-forget setup: "open" returned before the
                # table writes landed; let the config packets program
                # the path before data chases them.
                yield sim.timeout(churn.settle_ns)
            for conn in conns:
                for index in range(churn.flits_per_open):
                    conn.send(payload,
                              last=index == churn.flits_per_open - 1)
                    payload += 1
                    self.flits_sent += 1
            # Poll the sinks up to the per-cycle delivery deadline: a
            # shortfall is *recorded* (failing the churn verdict via
            # delivered < flits_sent) rather than polled forever into
            # the runner's opaque max_ns timeout.
            deadline = sim.now + churn.deliver_timeout_ns
            for conn in conns:
                while conn.sink.count < churn.flits_per_open \
                        and sim.now < deadline:
                    yield sim.timeout(churn.poll_ns)
            # Let trailing unlock/credit signals settle before tearing
            # the tables down.
            yield sim.timeout(churn.settle_ns)
            for conn in conns:
                self.delivered += conn.sink.count
                if conn.sink.count < churn.flits_per_open:
                    # Undelivered flits may still sit in VC buffers;
                    # leave the connection open (closed < opened also
                    # fails the verdict) instead of tearing tables out
                    # from under in-flight traffic.
                    continue
                yield from manager.close(conn, want_ack=churn.want_ack)
                self.closed += 1

    def stats(self) -> Dict[str, int]:
        return {
            "opened": self.opened,
            "rejected": self.rejected,
            "closed": self.closed,
            "flits_sent": self.flits_sent,
            "delivered": self.delivered,
        }


@dataclass
class ConnectionVerdict:
    """Per-GS-connection QoS conformance against its contract."""

    label: str
    hops: int
    traffic: str
    offered: int
    delivered: int
    complete: bool
    in_order: bool
    latency_checked: bool
    observed_max_latency_ns: float
    latency_bound_ns: float
    latency_ok: Optional[bool]

    @property
    def ok(self) -> bool:
        return self.complete and self.in_order and self.latency_ok is not False

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__, ok=self.ok)


@dataclass
class ScenarioResult:
    """Everything a run measured, plus its determinism fingerprint."""

    name: str
    cols: int
    rows: int
    backend: str
    allocator: str
    topology: str
    retain_packets: bool
    sim_ns: float
    wall_s: float
    events: int
    flit_hops: int
    fingerprint: str
    be_sent: int
    be_received: int
    offered_load: float           # BE packets injected per ns
    accepted_load: float          # BE packets delivered per ns
    latency_mean_ns: float
    latency_p50_ns: float
    latency_p99_ns: float
    gs: List[ConnectionVerdict] = field(default_factory=list)
    failure_expected: bool = False
    failure_detected: bool = False
    failure_kind: str = ""
    churn: Optional[Dict[str, int]] = None
    #: JSON-safe ``MetricsSnapshot.to_dict()`` when the run was built
    #: with ``ObsConfig(metrics=True)``; ``None`` otherwise.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def be_lost(self) -> int:
        return self.be_sent - self.be_received

    @property
    def churn_ok(self) -> bool:
        """Every churned flit delivered and every admitted connection
        closed again (admission rejections are by design)."""
        if self.churn is None:
            return True
        return (self.churn["delivered"] == self.churn["flits_sent"]
                and self.churn["closed"] == self.churn["opened"])

    @property
    def passed(self) -> bool:
        """All QoS verdicts hold, nothing was lost, churn conserved its
        flits and connections, and an injected failure (if any) was
        loudly detected."""
        if self.failure_expected:
            return self.failure_detected
        return (self.be_lost == 0 and self.churn_ok
                and all(verdict.ok for verdict in self.gs))

    def failures(self) -> List[str]:
        """Human-readable list of everything that went wrong."""
        problems: List[str] = []
        if self.failure_expected:
            if not self.failure_detected:
                problems.append(
                    f"injected {self.failure_kind} was not detected")
            return problems
        if self.be_lost:
            problems.append(f"{self.be_lost} BE packets lost "
                            f"({self.be_received}/{self.be_sent})")
        if not self.churn_ok:
            problems.append(
                f"churn: {self.churn['delivered']}/"
                f"{self.churn['flits_sent']} flits delivered, "
                f"{self.churn['closed']}/{self.churn['opened']} "
                "connections closed")
        for verdict in self.gs:
            if not verdict.complete:
                problems.append(
                    f"GS {verdict.label}: {verdict.delivered}/"
                    f"{verdict.offered} flits delivered")
            if not verdict.in_order:
                problems.append(f"GS {verdict.label}: out-of-order or "
                                "repeated delivery")
            if verdict.latency_ok is False:
                problems.append(
                    f"GS {verdict.label}: max latency "
                    f"{verdict.observed_max_latency_ns:.2f} ns exceeds the "
                    f"contract bound {verdict.latency_bound_ns:.2f} ns")
        return problems

    def to_dict(self) -> Dict[str, Any]:
        # ``metrics`` rides along only when the run collected any, so
        # the serialized form of observability-off runs is unchanged.
        extra = {} if self.metrics is None else {"metrics": self.metrics}
        return {
            **extra,
            "name": self.name,
            "mesh": f"{self.cols}x{self.rows}",
            "backend": self.backend,
            "allocator": self.allocator,
            "topology": self.topology,
            "retain_packets": self.retain_packets,
            "sim_ns": self.sim_ns,
            "wall_s": self.wall_s,
            "events": self.events,
            "flit_hops": self.flit_hops,
            "fingerprint": self.fingerprint,
            "be_sent": self.be_sent,
            "be_received": self.be_received,
            "be_lost": self.be_lost,
            "offered_load": self.offered_load,
            "accepted_load": self.accepted_load,
            "latency_mean_ns": self.latency_mean_ns,
            "latency_p50_ns": self.latency_p50_ns,
            "latency_p99_ns": self.latency_p99_ns,
            "gs": [verdict.to_dict() for verdict in self.gs],
            "failure_expected": self.failure_expected,
            "failure_detected": self.failure_detected,
            "failure_kind": self.failure_kind,
            "churn": self.churn,
            "passed": self.passed,
        }


class ScenarioRunner:
    """Build and run one scenario; every workload goes through here."""

    def __init__(self, spec: ScenarioSpec,
                 config: Optional[RouterConfig] = None,
                 retain_packets: Optional[bool] = None,
                 backend: Union[None, str, RouterBackend] = None,
                 allocator: str = "xy",
                 obs: Optional[ObsConfig] = None):
        spec.validate(config)
        # No explicit backend -> the spec's topology picks its default
        # (mesh cells run on mango, fabric cells on their fabric's
        # backend), so one registry drives every fabric.
        if backend is None:
            self.backend = backend_for_topology(spec.topology)
        else:
            self.backend = get_backend(backend)
        self.backend.check_spec(spec)
        if obs is not None and obs.metrics_sample_ns is not None \
                and spec.be is None and spec.churn is None \
                and all(gs.traffic == "preload" for gs in spec.gs):
            # Nothing would bound the sampler: with no driving process
            # the run ends when the heap drains, and the sampler keeps
            # the heap alive.
            raise ValueError(
                f"metrics_sample_ns needs a driving process; scenario "
                f"{spec.name!r} has no BE traffic, churn or paced GS "
                "stream")
        self.spec = spec
        self.config = config
        self.retain_packets = (spec.retain_packets if retain_packets is None
                               else retain_packets)
        # The admission/route-search strategy (repro.alloc) the mango
        # network admits GS connections with; "xy" is the bit-identical
        # default the golden fingerprints pin.
        self.allocator = allocator
        # Observability choices for this run (metrics probes, a tracer
        # wired to the emit points, kernel profiling); None keeps every
        # hot path on the no-op branch.
        self.obs = obs
        self.metrics_registry: Optional[MetricsRegistry] = None
        if self._allocator_name() != "xy" and \
                not self.backend.supports_alternate_allocators:
            raise BackendCapabilityError(
                f"backend {self.backend.name!r} performs its own "
                f"admission control; the {self._allocator_name()!r} "
                "allocation strategy only applies to backends built on "
                "the MANGO connection manager")
        self.network: Optional[MangoNetwork] = None
        self.connections: List = []
        self.gs_sources: List = []
        self.churn_driver: Optional[ChurnDriver] = None
        self.workload: Optional[UniformBeWorkload] = None
        self._quantiles: Dict[float, P2Quantile] = {}
        self._expected_error: Optional[type] = None

    def _allocator_name(self) -> str:
        return getattr(self.allocator, "name", self.allocator)

    # -- construction ------------------------------------------------------

    def build(self):
        """Construct network, connections, sources and collectors
        (untimed) through the selected backend; see the module docstring
        for why the order is part of the determinism contract.

        Returns the backend's network — a :class:`MangoNetwork` for the
        ``mango``/``priority`` backends, otherwise whatever implements
        the duck-typed protocol of :mod:`repro.backends.base`."""
        spec = self.spec
        net = self.backend.build_network(spec, self.config, obs=self.obs)
        self.network = net
        if self._allocator_name() != "xy":
            # Capability-checked in __init__: this network exposes the
            # MANGO connection manager.
            net.connection_manager.allocator = self.allocator
        self.connections = [
            self.backend.open_connection(net, Coord(*gs.src),
                                         Coord(*gs.dst))
            for gs in spec.gs
        ]
        for gs, conn in zip(spec.gs, self.connections):
            if gs.traffic == "preload":
                for value in range(gs.flits):
                    conn.send(value, last=(value == gs.flits - 1))
            elif gs.traffic == "cbr":
                self.gs_sources.append(CbrSource(
                    net.sim, conn, period_ns=gs.period_ns, n_flits=gs.flits))
            elif gs.traffic == "bursty":
                self.gs_sources.append(BurstySource(
                    net.sim, conn, burst_len=gs.burst_len, gap_ns=gs.gap_ns,
                    n_bursts=gs.n_bursts, intra_ns=gs.intra_ns,
                    seed=gs.seed, jitter=gs.jitter))
        if spec.be is not None:
            # Result-level quantiles need one stream over every sink:
            # the runner's own P² estimators ride along as collector
            # observers (the simulation never reads them).
            self._quantiles = {q: P2Quantile(q) for q in RESULT_QUANTILES}
            self.workload = UniformBeWorkload(
                net, build_pattern(spec.be, net.mesh),
                slot_ns=spec.be.slot_ns, probability=spec.be.probability,
                payload_words=spec.be.payload_words,
                n_slots=spec.be.n_slots, seed=spec.be.seed,
                retain_packets=self.retain_packets,
                latency_observers=tuple(self._quantiles.values()))
        if spec.churn is not None:
            # After the static connections and the BE workload, so the
            # construction order (and with it every golden fingerprint
            # of the churn-free cells) is untouched.
            self.churn_driver = ChurnDriver(net, spec.churn)
        if spec.failure is not None:
            self._schedule_failure(net, spec.failure)
        if self.obs is not None and self.obs.metrics:
            # Last, so the probes (pure reads) and the optional sampler
            # process sit after every workload process — the relative
            # event order of the simulated work is untouched.
            self.metrics_registry = build_registry(
                net, sample_ns=self.obs.metrics_sample_ns)
        return net

    def _schedule_failure(self, net: MangoNetwork,
                          failure: FailureSpec) -> None:
        from ..core.programming import ConfigFormatError, OP_SETUP
        from ..core.connection_table import TableError
        if failure.kind == "malformed_config":
            self._expected_error = ConfigFormatError
            magic_only = [0xC0 << 24 | (OP_SETUP << 20)]

            def inject():
                net.send_be(Coord(*failure.src), Coord(*failure.dst),
                            magic_only)
        else:  # orphan_flit
            self._expected_error = TableError
            router = net.routers[Coord(*failure.src)]

            def inject():
                from ..network.packet import GsFlit
                steering = router.switching.steer_to(
                    Direction.LOCAL, Direction.EAST,
                    net.config.vcs_per_port - 1)
                router.accept_gs_flit(Direction.LOCAL, steering, GsFlit(1))

        net.sim.defer(failure.at_ns, inject)

    # -- driving -----------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Build (if needed) and drive the scenario to completion: run
        until every source process has finished, then drain."""
        if self.network is None:
            self.build()
        net = self.network
        spec = self.spec
        sources = list(self.workload.sources) if self.workload else []
        sources += self.gs_sources
        if self.churn_driver is not None:
            sources.append(self.churn_driver)
        processes = [source.process for source in sources]

        failure_detected = False
        events_before = net.sim.events_processed
        start = time.perf_counter()
        try:
            if processes:
                run_until_processes_done(net, processes,
                                         drain_ns=spec.drain_ns,
                                         max_ns=spec.max_ns)
            else:
                # Preload-only scenarios have no driving processes: the
                # heap drains by itself once all flits are delivered.
                net.sim.run()
        except Exception as error:
            if self._expected_error is not None and \
                    isinstance(error, self._expected_error):
                failure_detected = True
            else:
                raise
        wall_s = time.perf_counter() - start
        events = net.sim.events_processed - events_before
        return self._result(events, wall_s, failure_detected)

    # -- measurement -------------------------------------------------------

    def _be_quantile(self, q: float) -> float:
        if self.workload is None:
            return float("nan")
        if self.retain_packets:
            return percentile(self.workload.latencies(), q)
        return self._quantiles[q].value

    def _verdicts(self) -> List[ConnectionVerdict]:
        config = self.network.config
        slack = LATENCY_SLACK_CYCLES * config.timing.link_cycle_ns
        verdicts = []
        for gs, conn in zip(self.spec.gs, self.connections):
            delivered = conn.sink.count
            payloads = conn.sink.payloads
            # Sources send payloads 0..offered-1, so strictly increasing
            # payloads plus a complete count is exactly lossless
            # in-order delivery: a repeated flit hiding a lost one fails.
            in_order = all(a < b for a, b in zip(payloads, payloads[1:]))
            observed = (max(conn.sink.latencies)
                        if conn.sink.latencies else float("nan"))
            # The backend's own architectural bound when it has one, the
            # reference MANGO contract otherwise (how Section 4.1 turns
            # into an automated verdict: see docs/backends.md).
            bound = self.backend.latency_bound_ns(conn.n_hops,
                                                  config) + slack
            # Only paced, admissible streams carry a latency guarantee:
            # preloaded/bursty queues add source-side waiting the network
            # contract says nothing about.
            checked = gs.traffic == "cbr"
            latency_ok = None
            if checked and not math.isnan(observed):
                latency_ok = observed <= bound
            verdicts.append(ConnectionVerdict(
                label=f"{gs.src}->{gs.dst}",
                hops=conn.n_hops,
                traffic=gs.traffic,
                offered=gs.offered,
                delivered=delivered,
                complete=delivered == gs.offered,
                in_order=in_order,
                latency_checked=checked,
                observed_max_latency_ns=observed,
                latency_bound_ns=bound,
                latency_ok=latency_ok,
            ))
        return verdicts

    def _result(self, events: int, wall_s: float,
                failure_detected: bool) -> ScenarioResult:
        net = self.network
        spec = self.spec
        sim_ns = net.now
        flit_hops = sum(link.gs_flits + link.be_flits
                        for link in net.links.values())
        be_sent = self.workload.sent if self.workload else 0
        be_received = self.workload.received if self.workload else 0
        if self.workload:
            stats = self.workload.latency_stats
            mean = stats.mean
        else:
            mean = float("nan")
        span = sim_ns if sim_ns > 0 else float("nan")
        failure_interrupted = spec.failure is not None
        gs = [] if failure_interrupted else self._verdicts()
        return ScenarioResult(
            name=spec.name,
            cols=spec.cols,
            rows=spec.rows,
            backend=self.backend.name,
            allocator=self._allocator_name(),
            topology=spec.topology,
            retain_packets=self.retain_packets,
            sim_ns=sim_ns,
            wall_s=wall_s,
            events=events,
            flit_hops=flit_hops,
            fingerprint=flit_hop_fingerprint(net),
            be_sent=be_sent,
            be_received=be_received,
            offered_load=be_sent / span,
            accepted_load=be_received / span,
            latency_mean_ns=mean,
            latency_p50_ns=self._be_quantile(50.0),
            latency_p99_ns=self._be_quantile(99.0),
            gs=gs,
            failure_expected=spec.failure is not None,
            failure_detected=failure_detected,
            failure_kind=spec.failure.kind if spec.failure else "",
            churn=(self.churn_driver.stats()
                   if self.churn_driver is not None else None),
            metrics=(self.metrics_registry.snapshot().to_dict()
                     if self.metrics_registry is not None else None),
        )
