"""The sharded scenario fleet (``repro.scenarios.fleet``): per-cell
outcome capture and serial-vs-parallel determinism.

The determinism payoff is asserted two ways: a spawn-pool run with
``jobs=4`` must reproduce the serial loop's verdicts *and* the golden
smoke fingerprints (``scenarios/golden.py``) — the same digests the
serial conformance matrix pins — so sharding can never change what the
matrix measures.
"""

import json

from repro.scenarios import registry
from repro.scenarios.fleet import (CellOutcome, FleetCell, code_fingerprint,
                                   run_cell, run_fleet)
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
    def test_code_fingerprint_is_stable_within_a_checkout(self):
        assert code_fingerprint() == code_fingerprint()


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
