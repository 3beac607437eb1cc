"""Traffic generators.

GS streams are driven by rate-based sources (constant bit rate for the
media streams the paper's GS connections target, plus bursty variants);
BE traffic is driven by packet generators with configurable inter-arrival
processes and spatial patterns.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Optional

from ..network.connection import Connection
from ..network.topology import Coord
from ..sim.kernel import Simulator

__all__ = [
    "CbrSource",
    "BurstySource",
    "SaturatingSource",
    "PoissonBePackets",
    "BernoulliBePackets",
]


class CbrSource:
    """Constant bit-rate GS source: one flit every ``period_ns``."""

    def __init__(self, sim: Simulator, connection: Connection,
                 period_ns: float, n_flits: int,
                 payload: Optional[Callable[[int], int]] = None):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        if n_flits < 1:
            raise ValueError("need at least one flit")
        self.sim = sim
        self.connection = connection
        self.period_ns = period_ns
        self.n_flits = n_flits
        self.payload = payload or (lambda i: i & 0xFFFFFFFF)
        self.sent = 0
        self.process = sim.process(self._run(), name="cbr")

    def _run(self):
        for index in range(self.n_flits):
            self.connection.send(self.payload(index),
                                 last=(index == self.n_flits - 1))
            self.sent += 1
            if index != self.n_flits - 1:
                yield self.sim.timeout(self.period_ns)


class BurstySource:
    """On/off GS source: bursts of back-to-back flits, idle gaps between."""

    def __init__(self, sim: Simulator, connection: Connection,
                 burst_len: int, gap_ns: float, n_bursts: int,
                 intra_ns: float = 0.0, seed: int = 0,
                 jitter: float = 0.0):
        if burst_len < 1 or n_bursts < 1:
            raise ValueError("bursts must be non-empty")
        if gap_ns < 0 or intra_ns < 0:
            raise ValueError("gaps must be non-negative")
        self.sim = sim
        self.connection = connection
        self.burst_len = burst_len
        self.gap_ns = gap_ns
        self.n_bursts = n_bursts
        self.intra_ns = intra_ns
        self.jitter = jitter
        self.rng = random.Random(seed)
        self.sent = 0
        self.process = sim.process(self._run(), name="bursty")

    def _gap(self) -> float:
        if self.jitter <= 0:
            return self.gap_ns
        spread = self.gap_ns * self.jitter
        return max(0.0, self.gap_ns + self.rng.uniform(-spread, spread))

    def _run(self):
        value = 0
        for burst in range(self.n_bursts):
            for index in range(self.burst_len):
                self.connection.send(value,
                                     last=(index == self.burst_len - 1))
                value += 1
                self.sent += 1
                if self.intra_ns and index != self.burst_len - 1:
                    yield self.sim.timeout(self.intra_ns)
            if burst != self.n_bursts - 1:
                yield self.sim.timeout(self._gap())


class SaturatingSource:
    """Keeps the connection's source queue topped up — measures capacity."""

    def __init__(self, sim: Simulator, connection: Connection,
                 total_flits: int, chunk: int = 256):
        self.sim = sim
        self.connection = connection
        self.total_flits = total_flits
        self.chunk = chunk
        self.sent = 0
        self.process = sim.process(self._run(), name="saturate")

    def _run(self):
        na = self.connection.manager.network.adapters[self.connection.src]
        endpoint = na.tx_endpoints[self.connection.src_iface]
        while self.sent < self.total_flits:
            # Top up without growing the queue unboundedly.
            while len(endpoint.queue) < self.chunk \
                    and self.sent < self.total_flits:
                self.connection.send(self.sent)
                self.sent += 1
            yield self.sim.timeout(self.connection.manager.network
                                   .config.timing.link_cycle_ns * self.chunk
                                   / 4)


class PoissonBePackets:
    """BE packet source with exponential inter-arrival times."""

    def __init__(self, sim: Simulator, network, src: Coord,
                 destination: Callable[[Coord], Coord],
                 mean_gap_ns: float, payload_words: int, n_packets: int,
                 seed: int = 0, vc: int = 0,
                 on_sent: Optional[Callable[[int, Coord], None]] = None):
        if mean_gap_ns <= 0:
            raise ValueError("mean gap must be positive")
        self.sim = sim
        self.network = network
        self.src = src
        self.destination = destination
        self.mean_gap_ns = mean_gap_ns
        self.payload_words = payload_words
        self.n_packets = n_packets
        self.vc = vc
        self.on_sent = on_sent
        self.rng = random.Random(seed)
        self.sent = 0
        self.process = sim.process(self._run(), name=f"poisson:{src}")

    def _words(self, index: int) -> List[int]:
        return [(index << 8 | w) & 0xFFFFFFFF
                for w in range(self.payload_words)]

    def _run(self):
        adapter = self.network.adapters[self.src]
        for index in range(self.n_packets):
            dst = self.destination(self.src)
            yield from adapter.send_be(dst, self._words(index), vc=self.vc)
            self.sent += 1
            if self.on_sent is not None:
                self.on_sent(index, dst)
            if index != self.n_packets - 1:
                yield self.sim.timeout(
                    self.rng.expovariate(1.0 / self.mean_gap_ns))


class BernoulliBePackets:
    """Slotted BE source: each slot injects a packet with probability p."""

    def __init__(self, sim: Simulator, network, src: Coord,
                 destination: Callable[[Coord], Coord], slot_ns: float,
                 probability: float, payload_words: int, n_slots: int,
                 seed: int = 0, vc: int = 0):
        if not 0 <= probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        if slot_ns <= 0:
            raise ValueError("slot must be positive")
        self.sim = sim
        self.network = network
        self.src = src
        self.destination = destination
        self.slot_ns = slot_ns
        self.probability = probability
        self.payload_words = payload_words
        self.n_slots = n_slots
        self.vc = vc
        self.rng = random.Random(seed)
        self.sent = 0
        self.process = sim.process(self._run(), name=f"bernoulli:{src}")

    def _run(self):
        adapter = self.network.adapters[self.src]
        for slot in range(self.n_slots):
            if self.rng.random() < self.probability:
                dst = self.destination(self.src)
                words = [(slot << 4 | w) & 0xFFFFFFFF
                         for w in range(self.payload_words)]
                yield from adapter.send_be(dst, words, vc=self.vc)
                self.sent += 1
            yield self.sim.timeout(self.slot_ns)
