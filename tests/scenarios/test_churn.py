"""ChurnSpec validation and the runtime open/close churn scenarios."""

import dataclasses

import pytest

from repro.backends import BackendCapabilityError
from repro.scenarios import (ChurnSpec, ScenarioError, ScenarioRunner,
                             ScenarioSpec, get)
from repro.scenarios.spec import SMOKE_MAX_CYCLES


def churn_spec(**overrides):
    base = dict(pairs=(((0, 0), (2, 2)),), cycles=2, flits_per_open=4)
    base.update(overrides)
    return ChurnSpec(**base)


class TestChurnSpec:
    def test_validates_clean_spec(self):
        churn_spec().validate(3, 3)

    @pytest.mark.parametrize("overrides,match", [
        (dict(pairs=()), "at least one"),
        (dict(pairs=(((0, 0), (9, 9)),)), "outside"),
        (dict(pairs=(((1, 1), (1, 1)),)), "src == dst"),
        (dict(cycles=0), "at least one cycle"),
        (dict(flits_per_open=0), "must carry flits"),
        (dict(settle_ns=-1.0), "non-negative"),
        (dict(poll_ns=0.0), "positive"),
        (dict(deliver_timeout_ns=0.0), "deadline"),
    ])
    def test_rejects_bad_specs(self, overrides, match):
        with pytest.raises(ScenarioError, match=match):
            churn_spec(**overrides).validate(3, 3)

    def test_rejects_over_long_pairs(self):
        spec = churn_spec(pairs=(((0, 0), (129, 0)),))
        with pytest.raises(ScenarioError, match="chained"):
            spec.validate(130, 1)

    def test_round_trips_through_dict(self):
        spec = churn_spec(want_ack=False, settle_ns=321.0)
        assert ChurnSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_round_trips_with_churn(self):
        spec = ScenarioSpec(name="churny", cols=3, rows=3,
                            churn=churn_spec())
        spec.validate()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_churn_alone_counts_as_traffic(self):
        ScenarioSpec(name="churn-only", cols=3, rows=3,
                     churn=churn_spec()).validate()

    def test_smoke_caps_cycles_idempotently(self):
        spec = ScenarioSpec(name="churny", cols=3, rows=3,
                            churn=churn_spec(cycles=9))
        smoke = spec.smoke()
        assert smoke.churn.cycles == SMOKE_MAX_CYCLES
        assert smoke.smoke() == smoke


class TestChurnRunner:
    def test_pools_return_to_idle_after_the_run(self):
        spec = get("gs-churn-8x8").smoke()
        runner = ScenarioRunner(spec)
        result = runner.run()
        assert result.passed, result.failures()
        manager = runner.network.connection_manager
        assert not manager.connections
        assert not manager._pending_acks
        vcs = runner.network.config.vcs_per_port
        assert all(len(pool) == vcs
                   for pool in manager.vc_pools.values())

    def test_no_adapter_drops_a_flit(self):
        """The manager drains a connection before closing it, so no NA
        drops a straggler on either side."""
        runner = ScenarioRunner(get("gs-churn-8x8").smoke())
        assert runner.run().passed
        for adapter in runner.network.adapters.values():
            assert adapter.dropped_tx_flits == 0
            assert adapter.dropped_rx_flits == 0

    def test_churn_counts_are_conserved(self):
        spec = get("gs-churn-8x8").smoke()
        result = ScenarioRunner(spec).run()
        churn = result.churn
        expected_opens = len(spec.churn.pairs) * spec.churn.cycles
        assert churn["opened"] + churn["rejected"] == expected_opens
        assert churn["rejected"] == 0
        assert churn["closed"] == churn["opened"]
        assert churn["flits_sent"] == \
            churn["opened"] * spec.churn.flits_per_open
        assert churn["delivered"] == churn["flits_sent"]

    def test_saturated_cell_rejects_deterministically(self):
        """12 pairs funnel onto the 8-VC column links: exactly 4 opens
        are rejected every cycle, cycle after cycle."""
        spec = get("gs-churn-saturated-16x16").smoke()
        result = ScenarioRunner(spec).run()
        assert result.passed, result.failures()
        assert result.churn["opened"] == 8 * spec.churn.cycles
        assert result.churn["rejected"] == 4 * spec.churn.cycles

    def test_no_ack_churn_also_conserves(self):
        spec = ScenarioSpec(
            name="noack-churn", cols=3, rows=3,
            churn=ChurnSpec(pairs=(((0, 0), (2, 2)), ((2, 0), (0, 2))),
                            cycles=3, flits_per_open=5, want_ack=False,
                            settle_ns=400.0))
        result = ScenarioRunner(spec).run()
        assert result.passed, result.failures()
        assert result.churn["delivered"] == result.churn["flits_sent"] == 30

    def test_adaptive_allocator_admits_rejected_churn(self):
        """The saturated churn cell under min-adaptive admission: the
        opens xy deterministically rejects all go through."""
        spec = get("gs-churn-saturated-16x16").smoke()
        result = ScenarioRunner(spec, allocator="min-adaptive").run()
        assert result.passed, result.failures()
        assert result.churn["rejected"] == 0
        assert result.churn["opened"] == 12 * spec.churn.cycles

    def test_delivery_shortfall_recorded_not_hung(self, monkeypatch):
        """A lost churned flit must surface as a churn verdict failure
        with the shortfall in the counters — not hang the poll loop
        until the runner's opaque max_ns timeout."""
        from repro.network.connection import GsSink
        spec = ScenarioSpec(
            name="lossy-churn", cols=3, rows=3,
            churn=ChurnSpec(pairs=(((0, 0), (2, 2)),), cycles=1,
                            flits_per_open=4, deliver_timeout_ns=3000.0,
                            poll_ns=50.0))
        real_record = GsSink.record
        swallowed = []

        def lossy_record(self, flit, now):
            if not swallowed:
                swallowed.append(flit)  # drop exactly the first flit
                return
            real_record(self, flit, now)

        monkeypatch.setattr(GsSink, "record", lossy_record)
        result = ScenarioRunner(spec).run()
        assert swallowed, "the loss injection never fired"
        assert not result.passed
        churn = result.churn
        assert churn["flits_sent"] == 4 and churn["delivered"] == 3
        assert churn["opened"] == 1 and churn["closed"] == 0
        assert any("churn" in problem for problem in result.failures())

    def test_churn_refused_on_foreign_backends(self):
        """TDM and generic-vc model no runtime programming protocol;
        priority (a MANGO mesh with a different arbiter) does, so churn
        legitimately runs there."""
        spec = get("gs-churn-8x8").smoke()
        for backend in ("tdm", "generic-vc"):
            with pytest.raises(BackendCapabilityError, match="churn"):
                ScenarioRunner(spec, backend=backend)
        result = ScenarioRunner(spec, backend="priority").run()
        assert result.passed, result.failures()

    def test_allocator_refused_on_foreign_backends(self):
        spec = get("gs-cbr-4x4-uniform").smoke()
        with pytest.raises(BackendCapabilityError, match="admission"):
            ScenarioRunner(spec, backend="tdm", allocator="min-adaptive")

    def test_allocator_changes_paths_not_correctness(self):
        """Same cell, adaptive admission: all verdicts still hold (the
        xy golden fingerprint only pins the default strategy)."""
        spec = get("gs-cbr-4x4-uniform").smoke()
        result = ScenarioRunner(spec, allocator="min-adaptive").run()
        assert result.passed, result.failures()
