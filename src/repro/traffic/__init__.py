"""Workload substrate: generators, patterns, sinks, statistics."""

from .generators import (
    BernoulliBePackets,
    BurstySource,
    CbrSource,
    PoissonBePackets,
    SaturatingSource,
)
from .patterns import (
    BitComplement,
    Hotspot,
    NearestNeighbor,
    Pattern,
    LocalUniform,
    Transpose,
    UniformRandom,
)
from .sinks import BeCollector, GsBandwidthProbe
from .stats import Histogram, P2Quantile, RunningStats, percentile
from .workload import UniformBeWorkload, run_until_processes_done

__all__ = [
    "BeCollector",
    "BernoulliBePackets",
    "BitComplement",
    "BurstySource",
    "CbrSource",
    "GsBandwidthProbe",
    "Histogram",
    "Hotspot",
    "NearestNeighbor",
    "LocalUniform",
    "P2Quantile",
    "Pattern",
    "PoissonBePackets",
    "RunningStats",
    "SaturatingSource",
    "Transpose",
    "UniformBeWorkload",
    "UniformRandom",
    "percentile",
]
