"""Link-segment hop batching on the fair-share fabrics.

Kernel speed round 2 lets a flit whose next K links are provably
uncontended cross them all on a single scheduled event
(``backends/graphnet.py``).  Every flit still crosses every link at
exactly the cycle the unbatched simulation would have used, so
fingerprints, hop totals, per-packet latencies and verdicts are
identical with batching on or off — these tests pin that, plus the
reservation bookkeeping (conflicting traffic truncates a reserved
segment and the remainder reverts to real per-hop simulation).

Batching is *not* fully exact: the condensed arrival is scheduled, and
takes its seq, when the first hop fires, so same-timestamp events can
dispatch in another order.  Order-sensitive outputs such as the
streaming P^2 BE latency quantiles can differ (``docs/kernel.md``).

``REPRO_HOP_BATCHING=0`` is the kill switch; ``FairShareNetwork`` takes
``batch_hops`` directly for in-process A/B.
"""

import dataclasses

import pytest

from repro.backends import FairShareNetwork
from repro.network import build_topology
from repro.scenarios import ScenarioRunner, get, registry
from repro.scenarios.golden import SMOKE_FINGERPRINTS

FABRIC_CELLS = sorted(registry.names(tags=("fabric",)))


def run_cell(name, monkeypatch, batching, smoke=True, retain=None):
    monkeypatch.setenv("REPRO_HOP_BATCHING", "1" if batching else "0")
    spec = get(name)
    if smoke:
        spec = spec.smoke()
    runner = ScenarioRunner(spec, retain_packets=retain)
    result = runner.run()
    return result, runner


class TestEnvResolution:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOP_BATCHING", raising=False)
        topology = build_topology("ring", 2, 2)
        assert FairShareNetwork(topology).batch_hops is True

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOP_BATCHING", "0")
        topology = build_topology("ring", 2, 2)
        assert FairShareNetwork(topology).batch_hops is False
        # The explicit parameter beats the environment.
        assert FairShareNetwork(topology, batch_hops=True).batch_hops

    def test_counters_start_zero(self):
        topology = build_topology("ring", 2, 2)
        net = FairShareNetwork(topology)
        assert net.batches == 0
        assert net.batched_hops == 0


class TestExactCondensation:
    @pytest.mark.parametrize("name", FABRIC_CELLS)
    def test_smoke_fingerprint_identical_on_off(self, name, monkeypatch):
        on, _ = run_cell(name, monkeypatch, batching=True)
        off, _ = run_cell(name, monkeypatch, batching=False)
        assert on.fingerprint == off.fingerprint
        assert on.flit_hops == off.flit_hops
        assert on.fingerprint == SMOKE_FINGERPRINTS[name]
        assert [v.ok for v in on.gs] == [v.ok for v in off.gs]

    def test_batching_off_creates_no_batches(self, monkeypatch):
        _, runner = run_cell("ring-cbr-8x8", monkeypatch, batching=False)
        net = runner.network
        assert net.batches == 0
        assert net.batched_hops == 0

    def test_full_duration_identical_with_real_condensation(self,
                                                           monkeypatch):
        """Full-duration ring cell: batches actually form (and some get
        truncated by contention — the loaded cell exercises both the
        commit and the conflict/truncation paths), yet the simulated
        work is byte-identical and every BE packet keeps its latency."""
        on, runner_on = run_cell("ring-cbr-8x8", monkeypatch,
                                 batching=True, smoke=False, retain=True)
        off, runner_off = run_cell("ring-cbr-8x8", monkeypatch,
                                   batching=False, smoke=False, retain=True)
        net_on, net_off = runner_on.network, runner_off.network
        assert on.fingerprint == off.fingerprint
        assert on.flit_hops == off.flit_hops
        assert on.passed and off.passed
        assert runner_on.workload.latencies() == \
            runner_off.workload.latencies()
        assert net_on.batches > 0          # condensation really happened
        assert net_on.batched_hops > 0
        assert net_off.batches == 0

    def test_light_traffic_condenses_aggressively(self, monkeypatch):
        """With BE load thinned, long uncontended segments dominate and
        most crossings condense — the payoff case."""
        spec = get("ring-cbr-8x8")
        light = dataclasses.replace(
            spec, name="ring-cbr-8x8-light",
            be=dataclasses.replace(spec.be, probability=0.02))
        monkeypatch.setenv("REPRO_HOP_BATCHING", "1")
        runner = ScenarioRunner(light)
        on = runner.run()
        net_on = runner.network
        monkeypatch.setenv("REPRO_HOP_BATCHING", "0")
        runner_off = ScenarioRunner(light)
        off = runner_off.run()
        assert on.fingerprint == off.fingerprint
        assert on.flit_hops == off.flit_hops
        assert net_on.batched_hops > 0
        # Condensed crossings never exceed physical crossings.
        assert net_on.batched_hops <= on.flit_hops


class TestPendingBookkeeping:
    def test_pending_counters_drain_to_zero(self, monkeypatch):
        """Per-link ``pending`` counts (the eligibility oracle) must be
        exact: after a run fully drains, every link is back to zero and
        holds no transit reservation."""
        _, runner = run_cell("ring-cbr-8x8", monkeypatch, batching=True,
                             smoke=False)
        for link in runner.network.fair_links.values():
            assert link.pending == 0, link.key
            assert link._transit is None, link.key
