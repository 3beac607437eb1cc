"""K1 — Simulation-kernel event throughput at mesh scale.

Not a paper experiment: this guards the *simulator's* hot path, the
substrate every router/link/traffic model spins on.  It drives the
``corner-streams-6x6`` / ``corner-streams-8x8`` registry scenarios —
corner GS streams plus a uniform-random Bernoulli BE storm, the same
mixed workload the large-mesh integration tests use — through the
:class:`~repro.scenarios.runner.ScenarioRunner` and reports the
run-phase (construction excluded) rates:

* kernel events/sec — logical events dispatched per wall-clock second
  (``Simulator.events_processed``: heap entries, synchronous
  deliveries, and condensed batched hops all counted);
* flit-hops/sec — physical link traversals per second, a
  kernel-version-independent measure of simulated work, so regressions
  are comparable even when a kernel change alters the event count for
  the same workload.

``test_hop_batching_ab`` replays a fabric cell (mango is excluded from
link-segment hop batching, ``backends/graphnet.py``) with batching on
and off and asserts the fingerprint, hop total and verdicts are
identical.  Batching is not fully exact: it can reorder same-timestamp
events, which moves the streaming BE latency quantiles
(``docs/kernel.md``).

The rates are machine-dependent and informational (simulator speed is
gated by ``benchmarks/perf/``); the flit-hop counts are not (asserted
below, stable since the scenarios were hand-rolled here — the runner
reproduces the original construction order exactly).
"""

import contextlib
import os

from repro.analysis.report import Table

from .common import record, run_once, run_scenario

#: (registry scenario, expected full-duration flit hops).  The totals
#: predate the scenario engine: any drift means the workload itself
#: changed, not just the kernel.
SCENARIOS = (("corner-streams-6x6", 18_484),
             ("corner-streams-8x8", 29_396))

#: Fabric cell for the batching A/B — ring backend, where uncontended
#: link segments actually condense (mango keeps per-hop events).
BATCHING_CELL = "ring-cbr-8x8"


@contextlib.contextmanager
def _env(name, value):
    """Temporarily pin one environment variable (``FairShareNetwork``
    reads its knob at construction time)."""
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def run_experiment():
    table = Table(["mesh", "kernel events", "flit hops", "wall s",
                   "events/s", "flit-hops/s", "sim ns/wall s"],
                  title="Kernel throughput, mixed GS+BE workload "
                        "(run phase, construction excluded)")
    results = []
    for name, _expected in SCENARIOS:
        result = run_scenario(name)
        results.append(result)
        table.add_row(f"{result.cols}x{result.rows}", result.events,
                      result.flit_hops, round(result.wall_s, 3),
                      round(result.events / result.wall_s),
                      round(result.flit_hops / result.wall_s),
                      round(result.sim_ns / result.wall_s))
    return results, table


def test_kernel_throughput(benchmark):
    results, table = run_once(benchmark, run_experiment)
    record("K1", "simulation-kernel event throughput", table.render())

    for (name, expected), result in zip(SCENARIOS, results):
        assert result.passed, f"{name}: {result.failures()}"
        # Real progress was simulated and measured.
        assert result.events > 50_000
        assert result.events / result.wall_s > 0
        # The workload is deterministic: flit-hop totals are exact
        # machine-independent fingerprints of the simulated work (a
        # change here means the workload — not just the kernel —
        # changed).
        assert result.flit_hops == expected, name


def run_batching_ab():
    table = Table(["hop batching", "kernel events", "flit hops",
                   "batches", "wall s", "fingerprint"],
                  title=f"Hop batching on/off, {BATCHING_CELL} "
                        "(identical fingerprints asserted)")
    results = {}
    for setting in ("0", "1"):
        with _env("REPRO_HOP_BATCHING", setting):
            result = run_scenario(BATCHING_CELL)
        results[setting] = result
        table.add_row("off" if setting == "0" else "on", result.events,
                      result.flit_hops, "-", round(result.wall_s, 3),
                      result.fingerprint)
    return results, table


def test_hop_batching_ab(benchmark):
    results, table = run_once(benchmark, run_batching_ab)
    record("K1c", "link-segment hop batching A/B", table.render())

    off, on = results["0"], results["1"]
    # Every flit crosses the same links at the same cycles either way;
    # only the order of same-timestamp events may differ.
    assert off.fingerprint == on.fingerprint
    assert off.flit_hops == on.flit_hops
    assert off.passed and on.passed
