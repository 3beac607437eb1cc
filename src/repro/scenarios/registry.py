"""The named scenario matrix.

Every entry is a full-duration :class:`ScenarioSpec`; ``spec.smoke()``
gives the CI-sized profile the conformance suite and ``python -m repro
scenario matrix --smoke`` run.  The matrix spans the evaluation axes of
the paper's claims (and of the related QoS-NoC literature): spatial
pattern (uniform, local-uniform, transpose, bit-complement,
nearest-neighbour, hotspot) x mesh size (4x4 / 6x6 / 8x8 / 16x16) x
service mix (BE-only, GS+BE, GS under BE saturation, runtime
connection churn, failure injection).

Scenarios tagged ``churn`` open and close GS connections *during* the
run through the real programming protocol (``ChurnSpec``); the
saturated 16x16 cell deterministically rejects part of each cycle's
opens under the default ``xy`` admission strategy — replay it with
``--allocator min-adaptive`` to watch the allocation layer admit them
(see ``docs/allocation.md``).

``corner-streams-6x6`` / ``corner-streams-8x8`` reproduce exactly the
workload the kernel-throughput benchmark has always measured — their
full-duration flit-hop totals (18 484 / 29 396) are asserted in
``benchmarks/bench_kernel_throughput.py`` and must not drift.

Scenarios tagged ``chained`` carry routes beyond 15 hops on chained
route headers — the 16x16 full-diameter cells (uniform / transpose /
hotspot BE and the 30-hop corner-to-corner GS-CBR pair) plus
``chained-route-17x1``, the cheap non-``slow`` cell that keeps the
extension path in every smoke run.

Scenarios tagged ``soak`` form the endurance tier: >=10^8 scheduler
events per cell at full duration, ``retain_packets=False``, streaming
stats only (see ``docs/kernel.md``).  They carry ``slow`` and run in CI
at smoke profile via the ``soak-smoke`` job.

Scenarios tagged ``slow`` (the 16x16 cells and the soak tier) are
deselected from quick local loops with ``-m "not slow"``; everything
else runs in well under a second at smoke duration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .spec import (BeTrafficSpec, ChurnSpec, FailureSpec, GsConnectionSpec,
                   ScenarioSpec)

__all__ = ["SCENARIOS", "register", "get", "names"]

SCENARIOS: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the matrix (validated; unique name)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    spec.validate()
    SCENARIOS[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(names())
        raise KeyError(f"unknown scenario {name!r} (known: {known})") \
            from None


def names(tags: Iterable[str] = ()) -> List[str]:
    """Registered scenario names (sorted); filter by requiring ``tags``."""
    wanted = set(tags)
    return sorted(name for name, spec in SCENARIOS.items()
                  if wanted.issubset(spec.tags))


def _corners(side: int) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    top = side - 1
    return [((0, 0), (top, top)), ((top, 0), (0, top)),
            ((0, top), (top, 0)), ((top, top), (0, 0))]


def _corner_preloads(side: int, flits: int) -> Tuple[GsConnectionSpec, ...]:
    return tuple(GsConnectionSpec(src=src, dst=dst, traffic="preload",
                                  flits=flits)
                 for src, dst in _corners(side))


# -- BE-only: every pattern, small and large meshes -------------------------

register(ScenarioSpec(
    name="be-uniform-4x4", cols=4, rows=4,
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=40, pattern_seed=7, seed=9),
    description="Uniform-random BE load on a 4x4 mesh.",
    tags=("be-only", "uniform")))

register(ScenarioSpec(
    name="be-uniform-8x8", cols=8, rows=8,
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.2,
                     payload_words=3, n_slots=30, pattern_seed=7, seed=9),
    description="Uniform-random BE load on an 8x8 mesh.",
    tags=("be-only", "uniform")))

register(ScenarioSpec(
    name="be-local-uniform-16x16", cols=16, rows=16,
    be=BeTrafficSpec("local_uniform", slot_ns=40.0, probability=0.1,
                     payload_words=2, n_slots=12, radius=14,
                     pattern_seed=41, seed=43),
    drain_ns=30000.0,
    description="256 routers under radius-14 local-uniform BE load.",
    tags=("be-only", "local_uniform", "slow")))

register(ScenarioSpec(
    name="be-uniform-16x16", cols=16, rows=16,
    be=BeTrafficSpec("uniform", slot_ns=40.0, probability=0.08,
                     payload_words=2, n_slots=12, pattern_seed=7, seed=9),
    drain_ns=40000.0,
    description="Full-diameter uniform-random BE load on a 16x16 mesh — "
                "routes up to 30 hops ride chained route headers.",
    tags=("be-only", "uniform", "chained", "slow")))

register(ScenarioSpec(
    name="be-transpose-4x4", cols=4, rows=4,
    be=BeTrafficSpec("transpose", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=40, pattern_seed=11, seed=13),
    description="Transpose (x,y)->(y,x) BE load on a 4x4 mesh.",
    tags=("be-only", "transpose")))

register(ScenarioSpec(
    name="be-transpose-8x8", cols=8, rows=8,
    be=BeTrafficSpec("transpose", slot_ns=25.0, probability=0.25,
                     payload_words=3, n_slots=30, pattern_seed=11, seed=17),
    drain_ns=30000.0,
    description="Diagonal-heavy transpose BE load on an 8x8 mesh.",
    tags=("be-only", "transpose")))

register(ScenarioSpec(
    name="be-transpose-16x16", cols=16, rows=16,
    be=BeTrafficSpec("transpose", slot_ns=40.0, probability=0.08,
                     payload_words=2, n_slots=12, pattern_seed=11,
                     seed=17),
    drain_ns=40000.0,
    description="Diagonal-heavy transpose BE load at 256-router scale; "
                "the (0,15)/(15,0) pairs cross the full 30-hop diameter "
                "on chained route headers.",
    tags=("be-only", "transpose", "chained", "slow")))

register(ScenarioSpec(
    name="be-bit-complement-4x4", cols=4, rows=4,
    be=BeTrafficSpec("bit_complement", slot_ns=20.0, probability=0.3,
                     payload_words=2, n_slots=40, pattern_seed=19, seed=21),
    description="Bit-complement BE load on a 4x4 mesh.",
    tags=("be-only", "bit_complement")))

register(ScenarioSpec(
    name="be-bit-complement-8x8", cols=8, rows=8,
    be=BeTrafficSpec("bit_complement", slot_ns=25.0, probability=0.2,
                     payload_words=2, n_slots=30, pattern_seed=19, seed=23),
    drain_ns=30000.0,
    description="Bit-complement BE load on an 8x8 mesh (max-distance "
                "bisection crossing).",
    tags=("be-only", "bit_complement")))

register(ScenarioSpec(
    name="be-nearest-neighbor-4x4", cols=4, rows=4,
    be=BeTrafficSpec("nearest_neighbor", slot_ns=15.0, probability=0.5,
                     payload_words=2, n_slots=50, pattern_seed=27, seed=29),
    description="High-rate single-hop nearest-neighbour BE load.",
    tags=("be-only", "nearest_neighbor")))

register(ScenarioSpec(
    name="be-nearest-neighbor-8x8", cols=8, rows=8,
    be=BeTrafficSpec("nearest_neighbor", slot_ns=15.0, probability=0.4,
                     payload_words=2, n_slots=40, pattern_seed=27, seed=31),
    description="Nearest-neighbour BE load at 8x8 scale.",
    tags=("be-only", "nearest_neighbor")))

register(ScenarioSpec(
    name="be-hotspot-4x4", cols=4, rows=4,
    be=BeTrafficSpec("hotspot", slot_ns=30.0, probability=0.2,
                     payload_words=2, n_slots=30, hotspot=(2, 2),
                     fraction=0.5, pattern_seed=3, seed=5),
    description="Half of all BE traffic converges on tile (2,2).",
    tags=("be-only", "hotspot")))

register(ScenarioSpec(
    name="be-hotspot-8x8", cols=8, rows=8,
    be=BeTrafficSpec("hotspot", slot_ns=30.0, probability=0.2,
                     payload_words=2, n_slots=30, hotspot=(4, 4),
                     fraction=0.5, pattern_seed=3, seed=5),
    drain_ns=30000.0,
    description="Half of all BE traffic converges on tile (4,4) of an "
                "8x8 mesh (credit backpressure, no drops).",
    tags=("be-only", "hotspot")))

register(ScenarioSpec(
    name="be-hotspot-16x16", cols=16, rows=16,
    be=BeTrafficSpec("hotspot", slot_ns=40.0, probability=0.08,
                     payload_words=2, n_slots=12, hotspot=(8, 8),
                     fraction=0.5, pattern_seed=3, seed=5),
    drain_ns=40000.0,
    description="Half of all BE traffic converges on tile (8,8) of a "
                "16x16 mesh; corner sources reach it (and their uniform "
                "fallback draws) over chained route headers.",
    tags=("be-only", "hotspot", "chained", "slow")))

# -- GS + BE: mixed service classes -----------------------------------------

register(ScenarioSpec(
    name="corner-streams-6x6", cols=6, rows=6,
    gs=_corner_preloads(6, 200),
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=60, pattern_seed=7, seed=9),
    drain_ns=12000.0,
    description="Four preloaded corner-to-corner GS streams over a "
                "uniform BE storm (the kernel-throughput reference "
                "workload).",
    tags=("gs+be", "uniform", "benchmark")))

register(ScenarioSpec(
    name="corner-streams-8x8", cols=8, rows=8,
    gs=_corner_preloads(8, 150),
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=50, pattern_seed=7, seed=9),
    drain_ns=12000.0,
    description="Four preloaded 14-hop GS streams over a uniform BE "
                "storm (the kernel-throughput reference workload).",
    tags=("gs+be", "uniform", "benchmark")))

register(ScenarioSpec(
    name="gs-many-conns-6x6", cols=6, rows=6,
    gs=tuple(GsConnectionSpec(src=src, dst=dst, traffic="preload", flits=60)
             for src, dst in [((0, 0), (5, 5)), ((5, 0), (0, 5)),
                              ((0, 5), (5, 0)), ((5, 5), (0, 0)),
                              ((2, 0), (2, 5)), ((0, 3), (5, 3))]),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.3,
                     payload_words=3, n_slots=40, pattern_seed=31, seed=37),
    drain_ns=25000.0,
    description="Six simultaneous GS connections under a uniform BE "
                "storm (ordering + conservation).",
    tags=("gs+be", "uniform")))

register(ScenarioSpec(
    name="gs-cbr-4x4-uniform", cols=4, rows=4,
    gs=(GsConnectionSpec(src=(0, 0), dst=(3, 3), traffic="cbr",
                         flits=100, period_ns=120.0),
        GsConnectionSpec(src=(3, 0), dst=(0, 3), traffic="cbr",
                         flits=100, period_ns=120.0)),
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=40, pattern_seed=7, seed=9),
    description="Two admissible 6-hop CBR streams with full latency "
                "verdicts under uniform BE background.",
    tags=("gs+be", "uniform", "cbr")))

register(ScenarioSpec(
    name="gs-cbr-8x8-transpose", cols=8, rows=8,
    gs=(GsConnectionSpec(src=(0, 3), dst=(7, 3), traffic="cbr",
                         flits=80, period_ns=140.0),
        GsConnectionSpec(src=(3, 0), dst=(3, 7), traffic="cbr",
                         flits=80, period_ns=140.0)),
    be=BeTrafficSpec("transpose", slot_ns=25.0, probability=0.25,
                     payload_words=3, n_slots=30, pattern_seed=11, seed=17),
    drain_ns=30000.0,
    description="Row/column CBR streams crossing the transpose "
                "diagonal's congestion.",
    tags=("gs+be", "transpose", "cbr")))

register(ScenarioSpec(
    name="gs-cbr-16x16-local", cols=16, rows=16,
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 7), traffic="cbr",
                         flits=60, period_ns=260.0),
        GsConnectionSpec(src=(15, 15), dst=(8, 8), traffic="cbr",
                         flits=60, period_ns=260.0)),
    be=BeTrafficSpec("local_uniform", slot_ns=40.0, probability=0.1,
                     payload_words=2, n_slots=12, radius=14,
                     pattern_seed=41, seed=43),
    drain_ns=30000.0,
    description="14-hop CBR streams with latency verdicts at 256-router "
                "scale.",
    tags=("gs+be", "local_uniform", "cbr", "slow")))

register(ScenarioSpec(
    name="gs-cbr-16x16-corners", cols=16, rows=16,
    gs=(GsConnectionSpec(src=(0, 0), dst=(15, 15), traffic="cbr",
                         flits=40, period_ns=260.0),
        GsConnectionSpec(src=(15, 0), dst=(0, 15), traffic="cbr",
                         flits=40, period_ns=260.0)),
    be=BeTrafficSpec("uniform", slot_ns=40.0, probability=0.08,
                     payload_words=2, n_slots=12, pattern_seed=41,
                     seed=43),
    drain_ns=60000.0,
    description="Corner-to-corner 30-hop CBR streams — GS connections "
                "set up through chained-route programming packets, with "
                "full latency verdicts — over full-diameter uniform BE.",
    tags=("gs+be", "uniform", "cbr", "chained", "slow")))

register(ScenarioSpec(
    name="chained-route-17x1", cols=17, rows=1,
    gs=(GsConnectionSpec(src=(0, 0), dst=(16, 0), traffic="preload",
                         flits=30),),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.2,
                     payload_words=2, n_slots=12, pattern_seed=7, seed=9),
    drain_ns=12000.0,
    description="A 17-tile line: the 16-hop corner stream and the "
                "longest BE draws all need a chained extension word — "
                "the cheap smoke cell that exercises the >15-hop path "
                "on every CI run.",
    tags=("gs+be", "uniform", "chained")))

register(ScenarioSpec(
    name="gs-bursty-video-8x8", cols=8, rows=8,
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 6), traffic="bursty",
                         burst_len=16, gap_ns=600.0, n_bursts=6,
                         intra_ns=6.0, jitter=0.3, seed=23),
        GsConnectionSpec(src=(7, 0), dst=(0, 6), traffic="bursty",
                         burst_len=16, gap_ns=600.0, n_bursts=6,
                         intra_ns=6.0, jitter=0.3, seed=24),
        GsConnectionSpec(src=(0, 7), dst=(6, 0), traffic="bursty",
                         burst_len=16, gap_ns=600.0, n_bursts=6,
                         intra_ns=6.0, jitter=0.3, seed=25)),
    be=BeTrafficSpec("uniform", slot_ns=40.0, probability=0.15,
                     payload_words=2, n_slots=25, pattern_seed=29, seed=31),
    drain_ns=40000.0,
    description="Bursty video-frame GS sources over long routes with a "
                "BE storm underneath.",
    tags=("gs+be", "uniform", "bursty")))

register(ScenarioSpec(
    name="gs-bursty-hotspot-4x4", cols=4, rows=4,
    gs=(GsConnectionSpec(src=(0, 0), dst=(3, 3), traffic="bursty",
                         burst_len=8, gap_ns=400.0, n_bursts=5,
                         intra_ns=4.0, seed=47),),
    be=BeTrafficSpec("hotspot", slot_ns=25.0, probability=0.25,
                     payload_words=2, n_slots=30, hotspot=(2, 2),
                     fraction=0.6, pattern_seed=3, seed=5),
    description="A bursty GS stream crossing a BE hotspot.",
    tags=("gs+be", "hotspot", "bursty")))

# -- GS under BE saturation: the paper's central isolation claim ------------

register(ScenarioSpec(
    name="gs-under-saturation-4x4", cols=4, rows=4,
    gs=(GsConnectionSpec(src=(0, 0), dst=(3, 3), traffic="cbr",
                         flits=80, period_ns=120.0),),
    be=BeTrafficSpec("uniform", slot_ns=12.0, probability=0.9,
                     payload_words=4, n_slots=60, pattern_seed=7, seed=9),
    drain_ns=30000.0, max_ns=2e6,
    description="An admissible CBR stream must keep its latency bound "
                "while every tile saturates the mesh with BE packets.",
    tags=("gs-under-saturation", "uniform", "cbr")))

register(ScenarioSpec(
    name="gs-under-saturation-8x8", cols=8, rows=8,
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 7), traffic="cbr",
                         flits=60, period_ns=260.0),
        GsConnectionSpec(src=(7, 0), dst=(0, 7), traffic="cbr",
                         flits=60, period_ns=260.0)),
    be=BeTrafficSpec("uniform", slot_ns=15.0, probability=0.8,
                     payload_words=4, n_slots=40, pattern_seed=7, seed=9),
    drain_ns=40000.0, max_ns=2e6,
    description="14-hop CBR streams under a near-saturating uniform BE "
                "storm: the isolation claim at scale.",
    tags=("gs-under-saturation", "uniform", "cbr")))

register(ScenarioSpec(
    name="gs-under-saturation-hotspot-8x8", cols=8, rows=8,
    gs=(GsConnectionSpec(src=(0, 4), dst=(7, 4), traffic="cbr",
                         flits=60, period_ns=140.0),),
    be=BeTrafficSpec("hotspot", slot_ns=15.0, probability=0.7,
                     payload_words=3, n_slots=40, hotspot=(4, 4),
                     fraction=0.6, pattern_seed=3, seed=5),
    drain_ns=40000.0, max_ns=2e6,
    description="A CBR stream routed straight through a saturated BE "
                "hotspot column.",
    tags=("gs-under-saturation", "hotspot", "cbr")))

# -- connection churn: the pools must breathe at runtime ---------------------

register(ScenarioSpec(
    name="gs-churn-8x8", cols=8, rows=8,
    churn=ChurnSpec(
        pairs=(((0, 0), (7, 7)), ((7, 0), (0, 7)),
               ((0, 7), (7, 0)), ((3, 3), (4, 4))),
        cycles=3, flits_per_open=8),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.15,
                     payload_words=2, n_slots=30, pattern_seed=7, seed=9),
    drain_ns=12000.0,
    description="Four GS connections opened, streamed and closed every "
                "cycle through real programming packets (with acks) "
                "while uniform BE load shares the mesh — the VC and "
                "interface pools must return to idle every cycle.",
    tags=("gs+be", "churn", "uniform")))

register(ScenarioSpec(
    name="gs-churn-saturated-16x16", cols=16, rows=16,
    churn=ChurnSpec(
        pairs=tuple(((x, y), (15, 12 + y))
                    for y in range(3) for x in range(4)),
        cycles=2, flits_per_open=6),
    be=BeTrafficSpec("uniform", slot_ns=40.0, probability=0.08,
                     payload_words=2, n_slots=12, pattern_seed=7, seed=9),
    drain_ns=40000.0,
    description="Twelve churned pairs whose XY routes all funnel down "
                "column 15 (links (15,2..11)->SOUTH carry all twelve): "
                "with 8 VCs per link the default xy strategy "
                "deterministically admits 8 and rejects 4 every cycle "
                "— runtime admission rejections under churn, at "
                "256-router scale over chained route headers.",
    tags=("gs+be", "churn", "uniform", "chained", "slow")))

# -- non-mesh fabrics: ring and routerless cells, scored against their ------
# -- own architectural bounds (docs/topologies.md) --------------------------

register(ScenarioSpec(
    name="ring-cbr-8x8", cols=8, rows=8, topology="ring",
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 0), traffic="cbr",
                         flits=80, period_ns=140.0),
        GsConnectionSpec(src=(0, 7), dst=(7, 7), traffic="cbr",
                         flits=80, period_ns=140.0)),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.2,
                     payload_words=3, n_slots=30, pattern_seed=7, seed=9),
    drain_ns=30000.0,
    description="Two 7-hop CBR streams on the bidirectional 64-node "
                "snake ring, scored against the ring-hop fair-share "
                "bound, under uniform BE riding the same arcs.",
    tags=("gs+be", "uniform", "cbr", "fabric", "ring")))

register(ScenarioSpec(
    name="ring-uni-cbr-4x4", cols=4, rows=4, topology="ring-uni",
    gs=(GsConnectionSpec(src=(0, 0), dst=(3, 0), traffic="cbr",
                         flits=100, period_ns=120.0),
        GsConnectionSpec(src=(3, 3), dst=(0, 0), traffic="cbr",
                         flits=100, period_ns=120.0)),
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=40, pattern_seed=7, seed=9),
    description="CBR streams on the unidirectional 16-node ring: every "
                "route winds clockwise, wrap-around pairs pay the full "
                "arc and the bound prices it.",
    tags=("gs+be", "uniform", "cbr", "fabric", "ring")))

register(ScenarioSpec(
    name="hring-cbr-8x8", cols=8, rows=8, topology="hring",
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 7), traffic="cbr",
                         flits=60, period_ns=200.0),
        GsConnectionSpec(src=(7, 1), dst=(1, 6), traffic="cbr",
                         flits=60, period_ns=200.0)),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.2,
                     payload_words=2, n_slots=30, pattern_seed=7, seed=9),
    drain_ns=30000.0,
    description="CBR streams climbing local row rings onto the global "
                "column ring and back down (Wu's hierarchical-ring "
                "router), with uniform BE sharing every ring.",
    tags=("gs+be", "uniform", "cbr", "fabric", "hring")))

register(ScenarioSpec(
    name="routerless-cbr-8x8", cols=8, rows=8, topology="routerless",
    gs=(GsConnectionSpec(src=(0, 3), dst=(7, 3), traffic="cbr",
                         flits=80, period_ns=140.0),
        GsConnectionSpec(src=(3, 0), dst=(3, 7), traffic="cbr",
                         flits=80, period_ns=140.0)),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.2,
                     payload_words=3, n_slots=30, pattern_seed=7, seed=9),
    drain_ns=30000.0,
    description="Row-loop and column-loop CBR streams on the "
                "routerless overlapping-loop fabric, scored against the "
                "Indrusiak-Burns per-loop real-time bound.",
    tags=("gs+be", "uniform", "cbr", "fabric", "routerless")))

register(ScenarioSpec(
    name="routerless-hotspot-4x4", cols=4, rows=4, topology="routerless",
    gs=(GsConnectionSpec(src=(0, 0), dst=(3, 3), traffic="cbr",
                         flits=80, period_ns=120.0),),
    be=BeTrafficSpec("hotspot", slot_ns=30.0, probability=0.2,
                     payload_words=2, n_slots=30, hotspot=(2, 2),
                     fraction=0.5, pattern_seed=3, seed=5),
    description="A corner-to-corner CBR stream riding the global snake "
                "loop while half of all BE traffic converges on tile "
                "(2,2) over the row/column loops.",
    tags=("gs+be", "hotspot", "cbr", "fabric", "routerless")))

# -- soak tier: >=1e8-event endurance runs (kernel speed round 2) -----------
#
# Full-duration soak cells stream ~10^8 scheduler events each with
# ``retain_packets=False`` (the spec default), so memory stays bounded
# and all statistics come from the streaming Welford / P^2
# estimators.  They are tagged ``slow`` (several minutes each at full
# duration) and run in CI only at smoke profile; drive the real thing
# with ``python -m repro scenario run soak-uniform-8x8``.  Calibration:
# the mesh cell generates ~1.4k events per BE slot, the ring cell ~0.9k,
# so the slot counts below land both comfortably past 10^8 events.

register(ScenarioSpec(
    name="soak-uniform-8x8", cols=8, rows=8,
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 7), traffic="cbr",
                         flits=14000, period_ns=140.0),
        GsConnectionSpec(src=(7, 0), dst=(0, 7), traffic="cbr",
                         flits=14000, period_ns=140.0)),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.1,
                     payload_words=3, n_slots=80000,
                     pattern_seed=7, seed=9),
    drain_ns=30000.0,
    description="Endurance run on the 8x8 mesh: two crossing CBR "
                "streams held open for the whole 2 ms injection window "
                "under 10% uniform BE load — ~10^8 events with bounded "
                "memory and streaming stats only.",
    tags=("gs+be", "uniform", "cbr", "soak", "slow")))

register(ScenarioSpec(
    name="soak-ring-8x8", cols=8, rows=8, topology="ring",
    gs=(GsConnectionSpec(src=(0, 0), dst=(7, 0), traffic="cbr",
                         flits=21000, period_ns=140.0),
        GsConnectionSpec(src=(0, 7), dst=(7, 7), traffic="cbr",
                         flits=21000, period_ns=140.0)),
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.1,
                     payload_words=3, n_slots=120000,
                     pattern_seed=7, seed=9),
    drain_ns=30000.0,
    description="Endurance run on the 64-node bidirectional ring: two "
                "row-hugging CBR streams held open for the 3 ms "
                "injection window under 10% uniform BE load — ~10^8 "
                "events exercising the fabric backend at soak scale.",
    tags=("gs+be", "uniform", "cbr", "fabric", "ring", "soak", "slow")))

# -- failure injection: errors must never pass silently ---------------------

register(ScenarioSpec(
    name="failure-malformed-config-2x2", cols=2, rows=2,
    be=BeTrafficSpec("uniform", slot_ns=25.0, probability=0.2,
                     payload_words=2, n_slots=20, pattern_seed=7, seed=9),
    failure=FailureSpec("malformed_config", at_ns=200.0,
                        src=(0, 0), dst=(1, 0)),
    description="A truncated config packet under light BE load must "
                "raise ConfigFormatError at the target router.",
    tags=("failure-injection", "uniform")))

register(ScenarioSpec(
    name="failure-malformed-config-4x4-under-load", cols=4, rows=4,
    gs=(GsConnectionSpec(src=(0, 0), dst=(3, 3), traffic="preload",
                         flits=40),),
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.3,
                     payload_words=3, n_slots=30, pattern_seed=7, seed=9),
    failure=FailureSpec("malformed_config", at_ns=400.0,
                        src=(0, 1), dst=(3, 2)),
    description="The malformed-config detection must fire even while GS "
                "and BE traffic load the mesh.",
    tags=("failure-injection", "uniform")))

register(ScenarioSpec(
    name="failure-orphan-flit-4x4", cols=4, rows=4,
    be=BeTrafficSpec("uniform", slot_ns=20.0, probability=0.2,
                     payload_words=2, n_slots=20, pattern_seed=7, seed=9),
    failure=FailureSpec("orphan_flit", at_ns=300.0, src=(1, 1)),
    description="A flit steered into an unprogrammed VC buffer must "
                "raise TableError, not vanish.",
    tags=("failure-injection", "uniform")))
