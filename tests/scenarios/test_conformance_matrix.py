"""The QoS conformance matrix: every registered scenario, one harness.

Each registry scenario runs at smoke duration and must (a) lose zero
flits, (b) satisfy every GS contract verdict, (c) loudly detect any
injected failure, and (d) reproduce its golden flit-hop fingerprint.
The 16x16 cells carry the ``slow`` marker (deselect locally with
``-m "not slow"``).
"""

import math

import pytest

from repro.scenarios import ScenarioRunner, get, registry
from repro.scenarios.golden import SMOKE_FINGERPRINTS

from scenario_params import matrix_params


class TestMatrixShape:
    def test_at_least_twenty_scenarios(self):
        assert len(registry.SCENARIOS) >= 20

    def test_every_family_represented(self):
        tags = {tag for spec in registry.SCENARIOS.values()
                for tag in spec.tags}
        assert {"be-only", "gs+be", "gs-under-saturation",
                "failure-injection"} <= tags

    def test_every_pattern_represented(self):
        patterns = {spec.be.pattern for spec in registry.SCENARIOS.values()
                    if spec.be is not None}
        assert patterns == {"uniform", "local_uniform", "transpose",
                            "bit_complement", "nearest_neighbor", "hotspot"}

    def test_every_scenario_has_a_golden_fingerprint(self):
        assert set(SMOKE_FINGERPRINTS) == set(registry.SCENARIOS)

    def test_get_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get("no-such-scenario")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(get("be-uniform-4x4"))

    def test_names_filter_by_tags(self):
        slow = registry.names(tags=("slow",))
        assert slow and all("slow" in get(name).tags for name in slow)

    def test_smoke_is_idempotent(self):
        for name in registry.names():
            smoke = get(name).smoke()
            assert smoke.smoke() == smoke


def _preload_only_spec():
    """One 12-flit GS preload and nothing else: no driving process."""
    from repro.scenarios import GsConnectionSpec, ScenarioSpec
    return ScenarioSpec(
        name="preload-only", cols=3, rows=2,
        gs=(GsConnectionSpec(src=(0, 0), dst=(2, 1), flits=12),))


class TestRunnerEdges:
    def test_preload_only_scenario_drains_by_itself(self):
        """No driving processes at all: the heap must drain cleanly
        once every preloaded flit is delivered."""
        result = ScenarioRunner(_preload_only_spec()).run()
        assert result.passed
        assert result.gs[0].delivered == 12
        assert result.fingerprint == "dc87f9a3da480928"

    def test_sampling_needs_a_driving_process(self):
        """The gauge sampler never stops by itself; without a driving
        process nothing would end the run, so it is refused up front."""
        from repro.obs import ObsConfig
        obs = ObsConfig(metrics=True, metrics_sample_ns=1000.0)
        with pytest.raises(ValueError, match="metrics_sample_ns"):
            ScenarioRunner(_preload_only_spec(), obs=obs)

    def test_repeated_flit_hiding_a_lost_one_fails_the_gs_verdict(
            self, monkeypatch):
        """A sink that sees payload 1 twice and never payload 2 still
        counts every flit, and its payloads stay sorted; the verdict
        must call that a failure, not lossless in-order delivery."""
        from repro.network.connection import GsSink
        record = GsSink.record

        def repeat_one(sink, flit, now):
            record(sink, flit, now)
            if sink.payloads[-1] == 2:
                sink.payloads[-1] = 1
        monkeypatch.setattr(GsSink, "record", repeat_one)
        result = ScenarioRunner(get("gs-cbr-4x4-uniform").smoke()).run()
        verdict = result.gs[0]
        assert verdict.complete
        assert not verdict.in_order
        assert not verdict.ok
        assert not result.passed
        assert (f"GS {verdict.label}: out-of-order or repeated delivery"
                in result.failures())

    def test_full_diameter_patterns_accepted_up_to_chain_capacity(self):
        """Chained route headers lifted the 15-hop ceiling: every
        pattern is legal on a 16x16 mesh (30-hop diameter), and the
        spec layer only refuses meshes whose diameter beats the whole
        header chain's capacity."""
        from repro.network.routing import max_route_hops
        from repro.scenarios import BeTrafficSpec, ScenarioError
        for pattern in ("bit_complement", "transpose", "hotspot",
                        "uniform", "nearest_neighbor", "local_uniform"):
            BeTrafficSpec(pattern).validate(16, 16)
        BeTrafficSpec("local_uniform", radius=30).validate(16, 16)
        cap = max_route_hops()
        with pytest.raises(ScenarioError, match="chained"):
            BeTrafficSpec("uniform").validate(cap + 2, 1)
        with pytest.raises(ScenarioError, match="chained"):
            BeTrafficSpec("local_uniform", radius=cap + 1).validate(4, 4)

    def test_chained_cells_cover_be_and_gs(self):
        """The chained tag spans BE full-diameter cells, a >15-hop
        GS-CBR pair, and one cheap non-slow smoke cell."""
        chained = registry.names(tags=("chained",))
        assert len(chained) >= 5
        assert any("slow" not in get(name).tags for name in chained)
        assert any(get(name).gs and max(
            g.hops() for g in get(name).gs) > 15 for name in chained)


@pytest.mark.parametrize("name", matrix_params())
def test_scenario_conformance(name):
    spec = get(name).smoke()
    result = ScenarioRunner(spec).run()
    assert result.passed, f"{name}: {result.failures()}"
    if result.failure_expected:
        assert result.failure_detected
        return
    # Zero lost flits, service class by service class.
    assert result.be_lost == 0
    for verdict in result.gs:
        assert verdict.complete, f"{name}: {verdict.label} incomplete"
        assert verdict.in_order, f"{name}: {verdict.label} out of order"
        if verdict.latency_checked:
            assert verdict.latency_ok, (
                f"{name}: {verdict.label} max latency "
                f"{verdict.observed_max_latency_ns:.2f} ns > bound "
                f"{verdict.latency_bound_ns:.2f} ns")
    if result.be_received:
        assert not math.isnan(result.latency_mean_ns)
        assert result.accepted_load == result.offered_load
    assert result.fingerprint == SMOKE_FINGERPRINTS[name], (
        f"{name}: fingerprint drifted — if the workload change is "
        "intentional, regenerate with `python -m repro scenario matrix "
        "--smoke --update-golden`")
