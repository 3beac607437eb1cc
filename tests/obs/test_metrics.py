"""Tests for the metrics registry (``repro.obs.metrics``)."""

import gc
import hashlib
import json

import pytest

from repro import MangoNetwork
from repro.obs import (MetricsRegistry, MetricsSnapshot, ObsConfig,
                       build_registry)
from repro.scenarios import ScenarioRunner, get
from repro.sim.kernel import Simulator


def _run(name, obs=None):
    return ScenarioRunner(get(name).smoke(), obs=obs).run()


class TestSnapshot:
    def test_off_by_default(self):
        result = _run("be-uniform-4x4")
        assert result.metrics is None
        # The off path serializes without a metrics key at all, so
        # pre-observability consumers see byte-identical JSON.
        assert "metrics" not in result.to_dict()

    def test_snapshot_shape(self):
        result = _run("be-uniform-4x4", obs=ObsConfig(metrics=True))
        metrics = result.metrics
        assert metrics is not None
        assert set(metrics) >= {"time_ns", "samples", "counters",
                                "gauges"}
        assert metrics["counters"]
        assert metrics["gauges"]
        # Router activity made it into the standard probe set.
        assert any(key.startswith("router.") for key in
                   metrics["counters"])
        assert any(key.startswith("link.") for key in
                   metrics["counters"])
        # JSON-safe end to end.
        json.dumps(metrics)

    def test_snapshot_in_result_dict(self):
        result = _run("be-uniform-4x4", obs=ObsConfig(metrics=True))
        assert result.to_dict()["metrics"] == result.metrics

    def test_sampler_cadence(self):
        result = _run("be-uniform-4x4",
                      obs=ObsConfig(metrics=True,
                                    metrics_sample_ns=50.0))
        assert result.metrics["samples"] > 1

    def test_total_helper(self):
        snap = MetricsSnapshot(time_ns=1.0, samples=1,
                               counters={"a.x": 1, "a.y": 2, "b.z": 4},
                               gauges={})
        assert snap.total("a.") == 3
        assert snap.total("a") == 3  # trailing dot optional
        assert snap.total("b") == 4
        assert snap.total("nope") == 0


class TestNonPerturbation:
    def test_fingerprint_identical_with_metrics(self):
        for cell in ("be-uniform-4x4", "ring-cbr-8x8"):
            off = _run(cell)
            on = _run(cell, obs=ObsConfig(metrics=True))
            assert on.fingerprint == off.fingerprint, cell
            assert on.events == off.events, cell
            assert on.flit_hops == off.flit_hops, cell


class TestRegistry:
    def test_counters_flattened_with_prefix(self):
        runner = ScenarioRunner(get("be-uniform-4x4").smoke(),
                                obs=ObsConfig(metrics=True))
        runner.build()
        registry = runner.metrics_registry
        assert isinstance(registry, MetricsRegistry)
        snap = registry.snapshot()
        # Dotted probe names; serialized ordering is deterministic.
        assert all("." in key for key in snap.counters)
        payload = snap.to_dict()
        assert list(payload["counters"]) == sorted(payload["counters"])
        assert list(payload["gauges"]) == sorted(payload["gauges"])

    def test_probes_add_no_per_element_objects(self):
        """Each probe walks the network when read, so instrumenting a
        mesh registers a handful of callables, not one per VC, channel
        and link."""
        net = MangoNetwork(8, 8)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            registry = build_registry(net)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added <= 20
        assert len(registry.counter_probes) + len(registry.gauge_probes) == 3


    def test_gauge_probe_is_named_once_and_read_per_sample(self):
        """A gauge probe names its gauges on the first sample only;
        every sample after it reads values, folded into high-water
        marks."""
        calls = {"names": 0, "read": 0}
        values = iter([[1, 5], [3, 2], [2, 4]])

        def probe():
            calls["names"] += 1

            def read():
                calls["read"] += 1
                return next(values)
            return ["a.x", "a.y"], read

        registry = MetricsRegistry(Simulator())
        registry.gauge_probes.append(probe)
        registry.sample()
        registry.sample()
        snap = registry.snapshot()
        assert calls == {"names": 1, "read": 3}
        assert snap.samples == 3
        assert snap.gauges == {"a.x": 3, "a.y": 5}


class TestSnapshotValues:
    @pytest.mark.parametrize("cell, sample_ns, digest", [
        ("be-uniform-4x4", None, "46d49a543f216649"),
        ("gs-under-saturation-4x4", 25.0, "664cec0218651f92"),
        ("ring-cbr-8x8", None, "36a3990c9409f9d7"),
    ])
    def test_snapshot_is_pinned(self, cell, sample_ns, digest):
        """Every key and value of the smoke snapshot, recorded when each
        probe was a lambda registered per VC, channel and link."""
        result = _run(cell, obs=ObsConfig(metrics=True,
                                          metrics_sample_ns=sample_ns))
        blob = json.dumps(result.to_dict()["metrics"]).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest
