"""The sharded scenario fleet (``repro.scenarios.fleet``): per-cell
outcome capture, the result cache, and serial-vs-parallel determinism.

The determinism payoff is asserted two ways: a spawn-pool run with
``jobs=4`` must reproduce the serial loop's verdicts *and* the golden
smoke fingerprints (``scenarios/golden.py``) — the same digests the
serial conformance matrix pins — so sharding can never change what the
matrix measures.
"""

import json
import os

import pytest

from repro.scenarios import registry
from repro.scenarios.fleet import (CellOutcome, FleetCell, FleetCache,
                                   cache_key, code_fingerprint, run_cell,
                                   run_fleet)
from repro.scenarios.golden import SMOKE_FINGERPRINTS

#: Cheap, diverse subset for the parallel determinism check: mesh BE,
#: mesh GS+BE, a chained-route cell, a fabric cell and a churn cell.
PARALLEL_NAMES = ["be-uniform-4x4", "gs-cbr-4x4-uniform",
                  "chained-route-17x1", "ring-uni-cbr-4x4",
                  "gs-churn-8x8"]


class TestRunCell:
    def test_ok_outcome_carries_result_and_wall(self):
        outcome = run_cell(FleetCell(name="be-uniform-4x4"))
        assert outcome.status == "ok"
        assert outcome.verdict == "PASS"
        assert outcome.passed
        assert outcome.fingerprint == SMOKE_FINGERPRINTS["be-uniform-4x4"]
        assert outcome.result["wall_s"] > 0
        assert outcome.failures == []

    def test_metrics_cell_carries_a_snapshot(self):
        outcome = run_cell(FleetCell(name="be-uniform-4x4", metrics=True))
        assert outcome.status == "ok"
        assert outcome.result["metrics"]["counters"]

    def test_capability_gap_is_skip_not_error(self):
        outcome = run_cell(FleetCell(name="gs-churn-8x8", backend="tdm"))
        assert outcome.status == "skip"
        assert outcome.verdict == "SKIP"
        assert outcome.fingerprint is None
        assert outcome.reason  # names the incompatibility

    def test_crash_is_error_with_traceback(self, monkeypatch):
        from repro.scenarios import ScenarioRunner
        monkeypatch.setattr(
            ScenarioRunner, "run",
            lambda self, **kw: (_ for _ in ()).throw(
                RuntimeError("heap drained")))
        outcome = run_cell(FleetCell(name="be-uniform-4x4"))
        assert outcome.status == "error"
        assert outcome.verdict == "ERROR"
        assert "RuntimeError" in outcome.reason
        assert "heap drained" in outcome.traceback

    def test_unknown_scenario_is_error(self):
        outcome = run_cell(FleetCell(name="no-such-cell"))
        assert outcome.status == "error"
        assert "no-such-cell" in outcome.reason

    def test_outcome_round_trips_through_json(self):
        outcome = run_cell(FleetCell(name="be-uniform-4x4"))
        clone = CellOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict())))
        assert clone.cell == outcome.cell
        assert clone.status == outcome.status
        assert clone.fingerprint == outcome.fingerprint
        assert clone.failures == outcome.failures


class TestCellIdentity:
    def test_cache_key_distinguishes_every_axis(self):
        code = code_fingerprint()
        base = FleetCell(name="be-uniform-4x4")
        variants = [FleetCell(name="be-uniform-4x4", backend="tdm"),
                    FleetCell(name="be-uniform-4x4",
                              allocator="min-adaptive"),
                    FleetCell(name="be-uniform-4x4", topology="ring"),
                    FleetCell(name="be-uniform-4x4", smoke=False),
                    FleetCell(name="be-uniform-4x4", metrics=True),
                    FleetCell(name="gs-cbr-4x4-uniform")]
        keys = {cache_key(cell, code) for cell in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_cache_key_tracks_code_fingerprint(self):
        cell = FleetCell(name="be-uniform-4x4")
        assert cache_key(cell, "aaaa") != cache_key(cell, "bbbb")

    def test_code_fingerprint_is_stable_within_a_checkout(self):
        assert code_fingerprint() == code_fingerprint()


class TestFleetCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cells = [FleetCell(name="be-uniform-4x4")]
        first = run_fleet(cells, cache_dir=str(tmp_path))
        second = run_fleet(cells, cache_dir=str(tmp_path))
        assert not first[0].cached and second[0].cached
        assert second[0].fingerprint == first[0].fingerprint
        assert second[0].verdict == first[0].verdict

    def test_cached_replay_is_the_stored_outcome(self, tmp_path):
        """Outcomes carry no per-run stamps, so a replay is the fresh
        outcome's data exactly; only ``cached`` tells them apart."""
        cells = [FleetCell(name="be-uniform-4x4"),
                 FleetCell(name="gs-churn-8x8", backend="tdm")]
        first = run_fleet(cells, cache_dir=str(tmp_path))
        second = run_fleet(cells, cache_dir=str(tmp_path))
        assert all(outcome.cached for outcome in second)
        assert [o.to_dict() for o in second] == \
            [json.loads(json.dumps(o.to_dict())) for o in first]

    def test_entry_from_another_schema_is_a_miss(self, tmp_path):
        """An entry carrying a field outcomes no longer have (one written
        by an older outcome schema) is stale: rerun, then re-publish in
        the current shape."""
        cells = [FleetCell(name="be-uniform-4x4")]
        run_fleet(cells, cache_dir=str(tmp_path))
        path = tmp_path / (cache_key(cells[0], code_fingerprint()) + ".json")
        entry = json.loads(path.read_text())
        entry["retired_field"] = 0.5
        path.write_text(json.dumps(entry))
        rerun = run_fleet(cells, cache_dir=str(tmp_path))[0]
        assert rerun.status == "ok" and not rerun.cached
        assert "retired_field" not in json.loads(path.read_text())
        assert run_fleet(cells, cache_dir=str(tmp_path))[0].cached

    def test_skips_are_cached_errors_are_not(self, tmp_path, monkeypatch):
        skip_cell = FleetCell(name="gs-churn-8x8", backend="tdm")
        assert run_fleet([skip_cell],
                         cache_dir=str(tmp_path))[0].status == "skip"
        assert run_fleet([skip_cell], cache_dir=str(tmp_path))[0].cached

        from repro.scenarios import ScenarioRunner
        monkeypatch.setattr(
            ScenarioRunner, "run",
            lambda self, **kw: (_ for _ in ()).throw(RuntimeError("boom")))
        err_cell = FleetCell(name="be-uniform-4x4")
        assert run_fleet([err_cell],
                         cache_dir=str(tmp_path))[0].status == "error"
        monkeypatch.undo()
        # Nothing was cached for the erroring cell: the retry recomputes
        # (and now succeeds).
        retry = run_fleet([err_cell], cache_dir=str(tmp_path))[0]
        assert retry.status == "ok" and not retry.cached

    def test_truncated_cache_entry_is_a_miss(self, tmp_path):
        cells = [FleetCell(name="be-uniform-4x4")]
        run_fleet(cells, cache_dir=str(tmp_path))
        key = cache_key(cells[0], code_fingerprint())
        path = tmp_path / (key + ".json")
        path.write_text(path.read_text()[:40])  # a straggler died mid-write
        healed = run_fleet(cells, cache_dir=str(tmp_path))[0]
        assert healed.status == "ok" and not healed.cached
        # ...and the entry was re-published for the next run.
        assert run_fleet(cells, cache_dir=str(tmp_path))[0].cached

    def test_store_publishes_atomically(self, tmp_path):
        cache = FleetCache(str(tmp_path))
        cache.store("k", {"value": 1})
        cache.store("k", {"value": 2})
        assert cache.load("k") == {"value": 2}
        assert cache.load("missing") is None
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert not leftovers


class TestFleetDeterminism:
    def test_outcomes_keep_input_order(self):
        names = ["gs-cbr-4x4-uniform", "be-uniform-4x4"]
        outcomes = run_fleet([FleetCell(name=name) for name in names])
        assert [outcome.cell.name for outcome in outcomes] == names

    def test_parallel_jobs_match_serial_loop_and_goldens(self):
        """The tentpole contract: ``--jobs 4`` is the serial matrix,
        fingerprint for fingerprint, on the smoke registry subset."""
        cells = [FleetCell(name=name) for name in PARALLEL_NAMES]
        serial = run_fleet(cells, jobs=1)
        parallel = run_fleet(cells, jobs=4)
        for cell, ser, par in zip(cells, serial, parallel):
            assert par.cell.name == cell.name
            assert par.status == ser.status == "ok"
            assert par.verdict == ser.verdict == "PASS"
            assert par.fingerprint == ser.fingerprint \
                == SMOKE_FINGERPRINTS[cell.name]

    def test_parallel_skip_marshals_across_processes(self):
        outcomes = run_fleet(
            [FleetCell(name="gs-churn-8x8", backend="tdm"),
             FleetCell(name="be-uniform-4x4", backend="tdm")], jobs=2)
        assert outcomes[0].status == "skip"
        assert outcomes[0].reason
        assert outcomes[1].status == "ok"
        assert outcomes[1].verdict == "PASS"

    def test_full_registry_covered_by_conformance_suite(self):
        """The whole-registry serial/parallel equivalence is benchmark
        territory (benchmarks/bench_fleet.py); here we pin that the
        subset above keeps covering every cell *kind* as the registry
        grows."""
        kinds = {"be-uniform-4x4": lambda spec: spec.be is not None,
                 "gs-cbr-4x4-uniform": lambda spec: bool(spec.gs),
                 "chained-route-17x1":
                     lambda spec: "chained" in spec.tags,
                 "ring-uni-cbr-4x4": lambda spec: spec.topology != "mesh",
                 "gs-churn-8x8": lambda spec: spec.churn is not None}
        for name, predicate in kinds.items():
            assert predicate(registry.get(name)), \
                f"{name} no longer exercises its cell kind"
