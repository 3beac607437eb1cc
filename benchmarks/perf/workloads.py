"""The five perf workloads: registry cells, scaled and reseeded.

Each workload is a named cell of ``repro.scenarios.registry`` plus a
scale ``k`` and an optional transform.  ``make_spec`` is the only place
a workload turns into a :class:`~repro.scenarios.spec.ScenarioSpec`; the
program under test only ever receives that spec.

The scale ``k`` multiplies ``be.n_slots``, every GS connection's ``flits``,
``churn.cycles`` and ``max_ns``; ``drain_ns`` is unchanged.  Seed ``s``
adds ``s`` to ``be.seed`` and ``be.pattern_seed`` (seed 0 is the
registry's own seeds, whose outputs ``expected.json`` pins).  Why each
workload was chosen is recorded in ``BENCHMARK.json`` and the README.

This module imports nothing from ``repro`` at import time, so the rep
process can time ``import repro.scenarios`` itself.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, NamedTuple, Optional, Tuple


class Workload(NamedTuple):
    cell: str            # registry scenario the workload scales
    scale: int
    drop_be: bool        # remove the BE background (GS-only control)
    exact: Tuple[str, ...]   # simulated QoS metrics reported (seed-pinned)


WORKLOADS: Dict[str, Workload] = {
    "mesh-be-saturated": Workload(
        "gs-under-saturation-8x8", 2, False,
        ("gs_slack_min_ns", "be_latency_p50_ns", "be_latency_p99_ns")),
    "mesh-gs-streams": Workload(
        "corner-streams-8x8", 10, True,
        ("gs_throughput_flits_per_ns",)),
    "mesh-gs-churn": Workload(
        "gs-churn-8x8", 6, False,
        ("be_latency_p50_ns", "be_latency_p99_ns")),
    "mesh-wide-16x16": Workload(
        "be-uniform-16x16", 4, False,
        ("be_latency_p50_ns", "be_latency_p99_ns")),
    "ring-fabric": Workload(
        "ring-cbr-8x8", 10, False,
        ("gs_slack_min_ns", "be_latency_p50_ns", "be_latency_p99_ns")),
}


def make_spec(name: str, seed: int, get_cell: Callable,
              scale: Optional[int] = None):
    """The workload ``name`` at ``seed`` as a ``ScenarioSpec``, at the
    workload's own scale unless ``scale`` overrides it.

    ``get_cell`` is ``repro.scenarios.registry.get``; it is passed in so
    this module stays import-free of the program under test.
    """
    workload = WORKLOADS[name]
    spec = get_cell(workload.cell)
    k = workload.scale if scale is None else scale
    be = spec.be
    if be is not None and not workload.drop_be:
        be = dataclasses.replace(be, n_slots=be.n_slots * k,
                                 seed=be.seed + seed,
                                 pattern_seed=be.pattern_seed + seed)
    else:
        be = None
    gs = tuple(dataclasses.replace(g, flits=g.flits * k) for g in spec.gs)
    churn = spec.churn
    if churn is not None:
        churn = dataclasses.replace(churn, cycles=churn.cycles * k)
    return dataclasses.replace(spec, name=f"perf-{name}", be=be, gs=gs,
                               churn=churn, max_ns=spec.max_ns * k)
