"""Metrics registry: cheap counters and gauges over a built network.

The registry holds *probes*: a handful of zero-argument callables, each
walking state the simulation already maintains (``ActivityCounters``,
link traversal counts, arbiter grant tables, sharebox admit counts, VC
buffer occupancies) and returning ``{name: value}``, read out into a
JSON-safe :class:`MetricsSnapshot` at run end.  Nothing is registered
per router, link or VC.  Because probes only *read*, enabling metrics
never perturbs the simulated work: the flit-hop fingerprint of a
metrics-enabled run is byte-identical to a disabled one, and the
disabled path costs nothing at all (no probe objects exist, no branch
runs).

Gauges (occupancies, queue depths) are instantaneous, so the registry
can additionally *sample* them on a cadence: ``sample_ns`` starts a tiny
kernel process that reads every gauge each period and tracks the
high-water mark.  The sampler never stops by itself, so the run that
hosts it must be bounded by something else: the scenario runner only
allows it beside a driving process, whose run ends at ``max_ns`` plus
the drain.

:func:`instrument_network` picks the standard probes for any of the
repo's network types by duck-typing — mango routers, the fair-share
graph fabrics, and the generic-VC mesh all expose different state, and
each contributes the probes it actually has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

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
    """Counter and gauge probes, read at run end (and the gauges on the
    optional sampling cadence for their high-water marks)."""

    def __init__(self, sim, sample_ns: Optional[float] = None):
        self.sim = sim
        self.sample_ns = sample_ns
        #: Probes: each reads the network now, returning ``{name: value}``.
        self.counter_probes: List[Callable[[], Dict[str, float]]] = []
        self.gauge_probes: List[Callable[[], Dict[str, float]]] = []
        self._high_water: Dict[str, float] = {}
        self.samples_taken = 0
        if sample_ns is not None:
            if sample_ns <= 0:
                raise ValueError("metrics sample cadence must be positive")
            sim.process(self._sampler(), name="obs.metrics.sampler")

    # -- sampling ---------------------------------------------------------

    def _sampler(self):
        while True:
            yield self.sim.timeout(self.sample_ns)
            self.sample()

    def sample(self) -> None:
        """Read every gauge once, folding into the high-water marks."""
        self.samples_taken += 1
        high = self._high_water
        for probe in self.gauge_probes:
            for name, value in probe().items():
                if name not in high or value > high[name]:
                    high[name] = value

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Read every probe now (gauges get one final sample first)."""
        self.sample()
        counters: Dict[str, int] = {}
        for probe in self.counter_probes:
            for name, value in probe().items():
                counters[name] = int(value)
        return MetricsSnapshot(time_ns=self.sim.now,
                               samples=self.samples_taken,
                               counters=counters,
                               gauges=dict(self._high_water))


# -- standard probes (duck-typed per network family) ----------------------

def _link_labels(links) -> List:
    """``(label, value)`` pairs of a ``(Coord, Direction|Port)``-keyed
    dict, in a stable order."""
    def name(key):
        return getattr(key[1], "name", str(key[1]))
    return [(f"{key[0].x}.{key[0].y}.{name(key)}", links[key])
            for key in sorted(links, key=lambda k: (k[0].x, k[0].y,
                                                    name(k)))]


def _mango_ports(network):
    """Each router's network ports (by direction name), then its local
    port, router by router in coordinate order."""
    for coord in sorted(network.routers):
        router = network.routers[coord]
        for direction in sorted(router.output_ports, key=lambda d: d.name):
            yield router.output_ports[direction]
        yield router.local_output


def _mango_counters(network) -> Dict[str, float]:
    """Per-router activity counters, per-port arbiter grants, per-VC
    flits-through and sharebox rotations, per-BE-channel flits sent and
    credit stalls."""
    out = {f"router.{router.name}.{key}": value
           for router in network.routers.values()
           for key, value in router.counters.as_dict().items()}
    for port in _mango_ports(network):
        if getattr(port, "arbiter", None) is not None:
            for rid, count in port.arbiter.stats.grants.items():
                out[f"arbiter.{port.name}.grants.rid{rid}"] = count
        for slot in port.slots:
            out[f"vc.{slot.name}.flits_through"] = slot.flits_through
            if slot.flow is not None:
                out[f"vc.{slot.name}.sharebox_rotations"] = slot.flow.admitted
        for chan in getattr(port, "be_tx", ()):
            out[f"be.{chan.name}.flits_sent"] = chan.flits_sent
            out[f"be.{chan.name}.credit_stalls"] = chan.credit_stalls
    return out


def _mango_gauges(network) -> Dict[str, float]:
    """Arbiter busy time, VC occupancies and BE credit levels."""
    out: Dict[str, float] = {}
    for port in _mango_ports(network):
        if getattr(port, "arbiter", None) is not None:
            out[f"arbiter.{port.name}.busy_ns"] = port.arbiter.stats.busy_ns
        for slot in port.slots:
            out[f"vc.{slot.name}.occupancy"] = slot.occupancy
        for chan in getattr(port, "be_tx", ()):
            out[f"be.{chan.name}.credits"] = chan.flow.credits
    return out


def _link_counters(network) -> Dict[str, float]:
    """Per-link traversal counters — the same integers the flit-hop
    fingerprint digests, exposed by both the mango and graph networks —
    and each NA's GS injections."""
    out: Dict[str, float] = {}
    for label, link in _link_labels(getattr(network, "links", {})):
        out[f"link.{label}.gs_flits"] = link.gs_flits
        for attr in ("be_flits", "unlocks"):
            if hasattr(link, attr):
                out[f"link.{label}.{attr}"] = getattr(link, attr)
    adapters = getattr(network, "adapters", {})
    for coord in sorted(adapters):
        local = getattr(adapters[coord], "local_link", None)
        if local is not None and hasattr(local, "gs_flits"):
            out[f"na.{coord.x}.{coord.y}.gs_injects"] = local.gs_flits
    return out


def _fabric_counters(network) -> Dict[str, float]:
    """The fair-share fabrics' hop-batching condensation counters."""
    return {"fabric.batches": network.batches,
            "fabric.batched_hops": network.batched_hops}


def _fabric_gauges(network) -> Dict[str, float]:
    """Queue depth per fair-share transport link."""
    return {f"fabric.{label}.queue_depth":
            len(fair.be_queue) + sum(len(q) for q in fair.gs_queues.values())
            for label, fair in _link_labels(network.fair_links)}


def instrument_network(registry: MetricsRegistry, network) -> None:
    """Register the standard probe set for whatever ``network`` exposes."""
    registry.counter_probes.append(partial(_link_counters, network))
    routers = getattr(network, "routers", None)
    if routers:
        sample = next(iter(routers.values()))
        if hasattr(sample, "counters") and hasattr(sample, "output_ports"):
            registry.counter_probes.append(partial(_mango_counters, network))
            registry.gauge_probes.append(partial(_mango_gauges, network))
    if hasattr(network, "fair_links"):
        registry.counter_probes.append(partial(_fabric_counters, network))
        registry.gauge_probes.append(partial(_fabric_gauges, network))


def build_registry(network, sample_ns: Optional[float] = None
                   ) -> MetricsRegistry:
    """Convenience: a registry over ``network.sim`` with the standard
    probe set already registered."""
    registry = MetricsRegistry(network.sim, sample_ns=sample_ns)
    instrument_network(registry, network)
    return registry
