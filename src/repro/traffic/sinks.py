"""Measurement sinks for BE traffic and link-level observation."""

from __future__ import annotations

from typing import List, Sequence

from ..network.packet import BePacket
from ..network.topology import Coord
from ..sim.kernel import Simulator
from .stats import RunningStats

__all__ = ["BeCollector", "GsBandwidthProbe"]


class BeCollector:
    """Drains a tile's BE inbox and records packet latencies.

    Every collector keeps the delivered ``count`` and Welford latency
    moments (``latency``).  With ``retain_packets=True`` (the default,
    right for tests and small runs) every packet object is kept as well,
    so exact percentiles can be taken from :attr:`packets`; with
    ``retain_packets=False`` memory stays constant however many flits a
    run delivers.
    """

    def __init__(self, sim: Simulator, network, coord: Coord,
                 retain_packets: bool = True,
                 observers: Sequence = ()):
        self.sim = sim
        self.network = network
        self.coord = coord
        self.retain_packets = retain_packets
        self.packets: List[BePacket] = []
        self.count = 0
        self.latency = RunningStats()
        # Shared accumulators (e.g. a workload-level P² estimator fed by
        # every sink): each gets .add(latency_sample).
        self.observers = tuple(observers)
        self.process = sim.process(self._run(), name=f"collect:{coord}")

    def _run(self):
        inbox = self.network.adapters[self.coord].be_inbox
        retain = self.retain_packets
        packets = self.packets
        latency = self.latency
        observers = self.observers
        while True:
            packet = yield inbox.get()
            self.count += 1
            if retain:
                packets.append(packet)
            if packet.inject_time >= 0:
                sample = packet.arrive_time - packet.inject_time
                latency.add(sample)
                for observer in observers:
                    observer.add(sample)


class GsBandwidthProbe:
    """Periodically samples a GS sink's delivered-flit count, giving a
    bandwidth-versus-time series (used to check guarantees hold in every
    window, not just on average)."""

    def __init__(self, sim: Simulator, sink, window_ns: float,
                 n_windows: int):
        if window_ns <= 0 or n_windows < 1:
            raise ValueError("window and count must be positive")
        self.sim = sim
        self.sink = sink
        self.window_ns = window_ns
        self.samples: List[int] = []
        self.process = sim.process(self._run(n_windows), name="bwprobe")

    def _run(self, n_windows: int):
        previous = self.sink.count
        for _ in range(n_windows):
            yield self.sim.timeout(self.window_ns)
            current = self.sink.count
            self.samples.append(current - previous)
            previous = current

    def min_rate(self) -> float:
        """Lowest per-window delivery rate (flits/ns) observed."""
        if not self.samples:
            return 0.0
        return min(self.samples) / self.window_ns

    def rates(self) -> List[float]:
        return [count / self.window_ns for count in self.samples]
