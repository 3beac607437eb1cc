"""Metrics registry: cheap counters and gauges over a built network.

The registry holds *probes* — zero-argument callables reading state the
simulation already maintains (``ActivityCounters``, link traversal
counts, arbiter grant tables, sharebox admit counts, VC buffer
occupancies) — registered once at network construction and read out into
a JSON-safe :class:`MetricsSnapshot` at run end.  Because probes only
*read*, enabling metrics never perturbs the simulated work: the flit-hop
fingerprint of a metrics-enabled run is byte-identical to a disabled
one, and the disabled path costs nothing at all (no probe objects exist,
no branch runs).

Gauges (occupancies, queue depths) are instantaneous, so the registry
can additionally *sample* them on a cadence: ``sample_ns`` starts a tiny
kernel process that reads every gauge each period and tracks the
high-water mark.  The sampler never stops by itself, so the run that
hosts it must be bounded by something else: the scenario runner only
allows it beside a driving process, whose run ends at ``max_ns`` plus
the drain.

:func:`instrument_network` wires the standard probe set for any of the
repo's network types by duck-typing — mango routers, the fair-share
graph fabrics, and the generic-VC mesh all expose different state, and
each contributes the probes it actually has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["MetricsRegistry", "MetricsSnapshot", "instrument_network",
           "build_registry"]


@dataclass
class MetricsSnapshot:
    """One JSON-safe read-out of every registered probe."""

    time_ns: float
    samples: int
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_ns": self.time_ns,
            "samples": self.samples,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def total(self, prefix: str) -> int:
        """Sum of all counters under a dotted name prefix."""
        prefix = prefix.rstrip(".") + "."
        return sum(v for k, v in self.counters.items()
                   if k.startswith(prefix))


class MetricsRegistry:
    """Probes registered at construction, read at run end (and on the
    optional sampling cadence for gauge high-water marks)."""

    def __init__(self, sim, sample_ns: Optional[float] = None):
        self.sim = sim
        self.sample_ns = sample_ns
        self._counters: List[Tuple[str, Callable[[], int]]] = []
        self._counter_groups: List[Tuple[str, Callable[[], Dict]]] = []
        self._gauges: List[Tuple[str, Callable[[], float]]] = []
        self._high_water: Dict[str, float] = {}
        self.samples_taken = 0
        if sample_ns is not None:
            if sample_ns <= 0:
                raise ValueError("metrics sample cadence must be positive")
            sim.process(self._sampler(), name="obs.metrics.sampler")

    # -- registration -----------------------------------------------------

    def add_counter(self, name: str, fn: Callable[[], int]) -> None:
        self._counters.append((name, fn))

    def add_counter_group(self, prefix: str,
                          fn: Callable[[], Dict[str, int]]) -> None:
        """A probe returning a whole ``{key: count}`` dict, flattened
        into the snapshot as ``prefix.key`` (e.g. an ``ActivityCounters``
        or an arbiter's per-requester grant table)."""
        self._counter_groups.append((prefix, fn))

    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        self._gauges.append((name, fn))

    # -- sampling ---------------------------------------------------------

    def _sampler(self):
        while True:
            yield self.sim.timeout(self.sample_ns)
            self.sample()

    def sample(self) -> None:
        """Read every gauge once, folding into the high-water marks."""
        self.samples_taken += 1
        high = self._high_water
        for name, fn in self._gauges:
            value = fn()
            if name not in high or value > high[name]:
                high[name] = value

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Read every probe now (gauges get one final sample first)."""
        self.sample()
        counters: Dict[str, int] = {}
        for name, fn in self._counters:
            counters[name] = int(fn())
        for prefix, fn in self._counter_groups:
            for key, value in fn().items():
                counters[f"{prefix}.{key}"] = int(value)
        return MetricsSnapshot(time_ns=self.sim.now,
                               samples=self.samples_taken,
                               counters=counters,
                               gauges=dict(self._high_water))


# -- standard probe sets (duck-typed per network family) ------------------

def _link_label(key) -> str:
    """Stable label for a ``(Coord, Direction|Port)`` link key."""
    coord, direction = key
    return f"{coord.x}.{coord.y}.{getattr(direction, 'name', direction)}"


def _instrument_mango(registry: MetricsRegistry, network) -> None:
    """Probes over MANGO state: per-router activity counters, per-port
    arbiter grants, per-VC sharebox rotations / flits-through /
    occupancy, BE credit levels and stall counts."""
    for coord in sorted(network.routers):
        router = network.routers[coord]
        name = router.name
        registry.add_counter_group(f"router.{name}",
                                   router.counters.as_dict)
        for direction in sorted(router.output_ports,
                                key=lambda d: d.name):
            port = router.output_ports[direction]
            if port.arbiter is not None:
                stats = port.arbiter.stats
                registry.add_counter_group(
                    f"arbiter.{port.name}.grants",
                    lambda s=stats: {f"rid{r}": c
                                     for r, c in s.grants.items()})
                registry.add_gauge(f"arbiter.{port.name}.busy_ns",
                                   lambda s=stats: s.busy_ns)
            for slot in port.slots:
                registry.add_counter(f"vc.{slot.name}.flits_through",
                                     lambda s=slot: s.flits_through)
                registry.add_counter(f"vc.{slot.name}.sharebox_rotations",
                                     lambda s=slot: s.flow.admitted)
                registry.add_gauge(f"vc.{slot.name}.occupancy",
                                   lambda s=slot: s.occupancy)
            for chan in port.be_tx:
                registry.add_counter(f"be.{chan.name}.flits_sent",
                                     lambda c=chan: c.flits_sent)
                registry.add_counter(f"be.{chan.name}.credit_stalls",
                                     lambda c=chan: c.credit_stalls)
                registry.add_gauge(f"be.{chan.name}.credits",
                                   lambda c=chan: c.flow.credits)
        local = getattr(router, "local_output", None)
        if local is not None:
            for slot in local.slots:
                registry.add_counter(f"vc.{slot.name}.flits_through",
                                     lambda s=slot: s.flits_through)
                registry.add_gauge(f"vc.{slot.name}.occupancy",
                                   lambda s=slot: s.occupancy)


def _instrument_links(registry: MetricsRegistry, network) -> None:
    """Per-link traversal counters — the same integers the flit-hop
    fingerprint digests, exposed by both the mango and graph networks."""
    for key in sorted(network.links,
                      key=lambda k: (k[0].x, k[0].y,
                                     getattr(k[1], "name", str(k[1])))):
        link = network.links[key]
        label = _link_label(key)
        registry.add_counter(f"link.{label}.gs_flits",
                             lambda l=link: l.gs_flits)
        if hasattr(link, "be_flits"):
            registry.add_counter(f"link.{label}.be_flits",
                                 lambda l=link: l.be_flits)
        if hasattr(link, "unlocks"):
            registry.add_counter(f"link.{label}.unlocks",
                                 lambda l=link: l.unlocks)


def _instrument_fair_share(registry: MetricsRegistry, network) -> None:
    """Fair-share graph fabrics: queue-depth gauges per transport link
    plus the hop-batching condensation counters."""
    registry.add_counter("fabric.batches", lambda n=network: n.batches)
    registry.add_counter("fabric.batched_hops",
                         lambda n=network: n.batched_hops)
    for key in sorted(network.fair_links,
                      key=lambda k: (k[0].x, k[0].y,
                                     getattr(k[1], "name", str(k[1])))):
        fair = network.fair_links[key]
        label = _link_label(key)
        registry.add_gauge(
            f"fabric.{label}.queue_depth",
            lambda f=fair: (len(f.be_queue)
                            + sum(len(q) for q in f.gs_queues.values())))


def _instrument_adapters(registry: MetricsRegistry, network) -> None:
    for coord in sorted(getattr(network, "adapters", {})):
        adapter = network.adapters[coord]
        local = getattr(adapter, "local_link", None)
        if local is not None and hasattr(local, "gs_flits"):
            registry.add_counter(
                f"na.{coord.x}.{coord.y}.gs_injects",
                lambda l=local: l.gs_flits)


def instrument_network(registry: MetricsRegistry, network) -> None:
    """Register the standard probe set for whatever ``network`` exposes."""
    if hasattr(network, "links"):
        _instrument_links(registry, network)
    _instrument_adapters(registry, network)
    routers = getattr(network, "routers", None)
    if routers:
        sample = next(iter(routers.values()))
        if hasattr(sample, "counters") and hasattr(sample, "output_ports"):
            _instrument_mango(registry, network)
    if hasattr(network, "fair_links"):
        _instrument_fair_share(registry, network)


def build_registry(network, sample_ns: Optional[float] = None
                   ) -> MetricsRegistry:
    """Convenience: a registry over ``network.sim`` with the standard
    probe set already registered."""
    registry = MetricsRegistry(network.sim, sample_ns=sample_ns)
    instrument_network(registry, network)
    return registry
