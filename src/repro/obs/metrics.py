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
high-water mark.  A gauge probe names its gauges once, on the first
sample, and from then on reads their values only.  The sampler never
stops by itself, so the run that hosts it must be bounded by something
else: the scenario runner only allows it beside a driving process,
whose run ends at ``max_ns`` plus the drain.

:func:`instrument_network` picks the standard probes for any of the
repo's network types by duck-typing — mango routers, the fair-share
graph fabrics, and the generic-VC mesh all expose different state, and
each contributes the probes it actually has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
    """Counter and gauge probes, read at run end (and the gauges on the
    optional sampling cadence for their high-water marks)."""

    def __init__(self, sim, sample_ns: Optional[float] = None):
        self.sim = sim
        self.sample_ns = sample_ns
        #: Counter probes: each reads the network now, returning
        #: ``{name: value}``.
        self.counter_probes: List[Callable[[], Dict[str, float]]] = []
        #: Gauge probes: each returns ``(names, read)`` on the first
        #: sample: its gauge names, and a call that reads their values,
        #: in the same order, at every sample.
        self.gauge_probes: List[Callable[[], Tuple[
            List[str], Callable[[], List[float]]]]] = []
        # Per gauge probe from the first sample on: its names, its read
        # call and the high-water mark of each gauge.
        self._gauges: Optional[List[tuple]] = None
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
        if self._gauges is None:
            self._gauges = []
            for probe in self.gauge_probes:
                names, read = probe()
                self._gauges.append((names, read, read()))
            return
        for _names, read, high in self._gauges:
            high[:] = [value if value > mark else mark
                       for mark, value in zip(high, read())]

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Read every probe now (gauges get one final sample first)."""
        self.sample()
        counters: Dict[str, int] = {}
        for probe in self.counter_probes:
            for name, value in probe().items():
                counters[name] = int(value)
        gauges: Dict[str, float] = {}
        for names, _read, high in self._gauges:
            for name, value in zip(names, high):
                if name not in gauges or value > gauges[name]:
                    gauges[name] = value
        return MetricsSnapshot(time_ns=self.sim.now,
                               samples=self.samples_taken,
                               counters=counters,
                               gauges=gauges)


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


def _mango_gauges(network):
    """Arbiter busy time, VC occupancies and BE credit levels: their
    names, and the call that reads them."""
    arbiters, slots, channels = [], [], []
    for port in _mango_ports(network):
        if getattr(port, "arbiter", None) is not None:
            arbiters.append(port)
        slots.extend(port.slots)
        channels.extend(getattr(port, "be_tx", ()))
    names = ([f"arbiter.{port.name}.busy_ns" for port in arbiters]
             + [f"vc.{slot.name}.occupancy" for slot in slots]
             + [f"be.{chan.name}.credits" for chan in channels])

    def read() -> List[float]:
        return ([port.arbiter.stats.busy_ns for port in arbiters]
                + [slot.occupancy for slot in slots]
                + [chan.flow.credits for chan in channels])
    return names, read


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


def _fabric_gauges(network):
    """Queue depth per fair-share transport link: the names, and the
    call that reads them."""
    links = _link_labels(network.fair_links)
    names = [f"fabric.{label}.queue_depth" for label, _fair in links]
    fairs = [fair for _label, fair in links]

    def read() -> List[float]:
        return [len(fair.be_queue) + sum(map(len, fair.gs_queues.values()))
                for fair in fairs]
    return names, read


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
