"""Workload orchestration: bind generators to a network and run to done.

Experiments in the benchmarks share this harness: build sources, run until
all have finished plus a drain period, and collect results.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..network.topology import Coord
from .patterns import Pattern
from .generators import BernoulliBePackets
from .sinks import BeCollector
from .stats import RunningStats

__all__ = ["UniformBeWorkload", "run_until_processes_done"]


def run_until_processes_done(network, processes, drain_ns: float = 2000.0,
                             max_ns: float = 5e6) -> float:
    """Advance the simulation until every process has finished, then let
    in-flight traffic drain.  Returns the finish time.

    The kernel runs flat out until an ``AllOf`` over the processes
    triggers; the scenario runner and the traffic harnesses share this
    one drive loop.
    """
    sim = network.sim
    done = sim.all_of(processes)
    if not sim.run_until_triggered(done, max_ns=max_ns):
        raise RuntimeError(
            f"workload did not finish within {max_ns} ns "
            "(possible deadlock or overload)")
    finish = network.now
    network.run(until=finish + drain_ns)
    return finish


class UniformBeWorkload:
    """Every tile injects Bernoulli BE packets under a spatial pattern.

    ``retain_packets=False`` keeps no packet objects in the collectors,
    so workload memory stays constant on million-flit runs;
    :meth:`latencies` is then unavailable but :attr:`latency_stats`
    aggregates all sinks, and ``latency_observers`` (e.g. P² estimators)
    see every sample.
    """

    def __init__(self, network, pattern: Pattern, slot_ns: float,
                 probability: float, payload_words: int, n_slots: int,
                 seed: int = 0, retain_packets: bool = True,
                 latency_observers=()):
        self.network = network
        self.retain_packets = retain_packets
        self.sources: List[BernoulliBePackets] = []
        self.collectors = {
            coord: BeCollector(network.sim, network, coord,
                               retain_packets=retain_packets,
                               observers=latency_observers)
            for coord in network.mesh.tiles()
        }
        for index, coord in enumerate(network.mesh.tiles()):
            self.sources.append(BernoulliBePackets(
                network.sim, network, coord, pattern.destination,
                slot_ns=slot_ns, probability=probability,
                payload_words=payload_words, n_slots=n_slots,
                seed=seed * 1000 + index))

    def run(self, drain_ns: float = 4000.0) -> None:
        run_until_processes_done(
            self.network, [src.process for src in self.sources],
            drain_ns=drain_ns)

    @property
    def sent(self) -> int:
        return sum(src.sent for src in self.sources)

    @property
    def received(self) -> int:
        return sum(col.count for col in self.collectors.values())

    @property
    def latency_stats(self) -> RunningStats:
        """Aggregate latency moments over every sink (streaming-safe)."""
        total = RunningStats()
        for collector in self.collectors.values():
            total.merge(collector.latency)
        return total

    def latencies(self) -> List[float]:
        if not self.retain_packets:
            raise RuntimeError(
                "per-sample latencies need retain_packets=True; in "
                "streaming mode use workload.latency_stats or pass "
                "latency_observers")
        samples: List[float] = []
        for collector in self.collectors.values():
            samples.extend(p.latency for p in collector.packets
                           if p.inject_time >= 0)
        return samples
