"""4-phase bundled-data handshake channels and pipelines.

The MANGO router is built from 4-phase bundled-data control (Section 6 of
the paper).  At the event level a handshake channel is characterised by two
numbers:

* ``forward_latency`` — request+data propagation from sender to receiver
  (how long a flit takes to appear at the far side), and
* ``cycle_time`` — the minimum time between successive handshakes on the
  same channel (request, acknowledge, return-to-zero of both).

A chain of such stages has throughput ``1 / max(stage cycle_time)`` and
forward latency ``sum(stage forward_latency)`` — the classic asynchronous
pipeline result, which is what lets MANGO keep link speed up by pipelining
long links (Section 3).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .kernel import Simulator, SimulationError
from .resources import Store

__all__ = ["HandshakeChannel", "PipelineStage", "PipelineChain"]


class HandshakeChannel:
    """Point-to-point 4-phase channel with one flit in flight.

    ``send`` (a sub-generator) completes once the handshake cycle finishes
    at the sender side; the data becomes available to ``recv`` after the
    forward latency.  Back-pressure is inherent: a sender blocks until the
    receiver has accepted the previous item.
    """

    def __init__(self, sim: Simulator, forward_latency: float,
                 cycle_time: float, name: str = ""):
        if forward_latency < 0 or cycle_time < 0:
            raise ValueError("latencies must be non-negative")
        if cycle_time < forward_latency:
            raise ValueError(
                f"cycle_time {cycle_time} < forward_latency {forward_latency}"
                " (the 4-phase return leg cannot be negative)")
        self.sim = sim
        self.forward_latency = forward_latency
        self.cycle_time = cycle_time
        self.name = name
        self._slot = Store(sim, capacity=1, name=f"{name}.slot")
        self._last_send_done = -float("inf")
        self.sent = 0
        self.received = 0

    def send(self, data: Any):
        """Sub-generator: complete one handshake transferring ``data``."""
        gap = self._last_send_done + self.cycle_time - self.sim.now
        # Enforce the RTZ spacing even if the receiver is fast.
        if gap > self.forward_latency:
            yield self.sim.timeout(gap - self.forward_latency)
        yield self.sim.timeout(self.forward_latency)
        yield self._slot.put(data)
        self._last_send_done = self.sim.now
        self.sent += 1

    def recv(self):
        """Sub-generator: yield until data arrives; returns the data."""
        data = yield self._slot.get()
        self.received += 1
        return data


class PipelineStage:
    """One bundled-data latch stage between an input and output channel."""

    def __init__(self, sim: Simulator, inp: HandshakeChannel,
                 out: HandshakeChannel, name: str = "",
                 transform: Optional[Callable[[Any], Any]] = None):
        self.sim = sim
        self.inp = inp
        self.out = out
        self.name = name
        self.transform = transform
        self.occupancy = 0
        self.process = sim.process(self._run(), name=f"stage:{name}")

    def _run(self):
        while True:
            data = yield from self.inp.recv()
            self.occupancy += 1
            if self.transform is not None:
                data = self.transform(data)
            yield from self.out.send(data)
            self.occupancy -= 1


class PipelineChain:
    """A chain of N identical stages — models a pipelined long link.

    ``feed`` and ``drain`` expose the end channels.  Forward latency and
    throughput follow the asynchronous pipeline laws; unit tests verify
    them against first principles.
    """

    def __init__(self, sim: Simulator, stages: int, forward_latency: float,
                 cycle_time: float, name: str = "chain"):
        if stages < 1:
            raise ValueError("need at least one stage")
        self.sim = sim
        self.name = name
        self.channels: List[HandshakeChannel] = [
            HandshakeChannel(sim, forward_latency, cycle_time,
                             name=f"{name}.ch{i}")
            for i in range(stages + 1)
        ]
        self.stages = [
            PipelineStage(sim, self.channels[i], self.channels[i + 1],
                          name=f"{name}.st{i}")
            for i in range(stages)
        ]

    @property
    def head(self) -> HandshakeChannel:
        return self.channels[0]

    @property
    def tail(self) -> HandshakeChannel:
        return self.channels[-1]

    @property
    def total_forward_latency(self) -> float:
        return sum(ch.forward_latency for ch in self.channels)

    @property
    def min_cycle_time(self) -> float:
        return max(ch.cycle_time for ch in self.channels)

    def send(self, data: Any):
        return self.head.send(data)

    def recv(self):
        return self.tail.recv()
