"""Self-tests of the perf harness (run explicitly)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

They launch ``run.py`` as a user would, on small settings: the
workloads at scale 1 with two timed reps, the traced roll-up, and, in
copied checkouts, a corrupted pin, a broken import inside the program
and the refusal to run without the program; the compare verdicts run on
synthetic records.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as perf  # noqa: E402
from rep import LayerProfiler, module_of_file  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def test_every_workload_passes_at_scale_1_and_reps_agree(tmp_path):
    out = tmp_path / "perf.json"
    proc, result = bench("--scale", "1", "--seed", "1", "--seconds", "0",
                         "--trace", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, w in record["workloads"].items():
        assert w["attempted"] == 1 + perf.MIN_REPS, name
        assert w["failed"] == 0, w["failures"]
        metrics = w["metrics"]
        assert metrics["hops_per_s"]["n"] == perf.MIN_REPS
        assert metrics["fail_rate"]["median"] == 0
        for exact in WORKLOADS[name].exact:
            # Simulated numbers repeat exactly from rep to rep.
            assert metrics[exact]["q1"] == metrics[exact]["q3"], exact
        for metric in ("hops_per_s", "sim_ns_per_s", "wall_s", "setup_s",
                       "peak_rss_mb"):
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0


def copy_benchmark(tmp_path, with_program=True):
    """A checkout holding ``BENCHMARK.json``, the benchmark and, unless
    told otherwise, the program's sources; returns its ``run.py``."""
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path / "benchmarks" / "perf" / "run.py"


def test_corrupted_pin_fails_with_a_named_reason(tmp_path):
    script = copy_benchmark(tmp_path)
    pin = script.parent / "expected.json"
    expected = json.loads(pin.read_text())
    expected["mesh-wide-16x16"]["fingerprint"] = "0" * 16
    pin.write_text(json.dumps(expected))
    out = tmp_path / "perf.json"
    proc, result = bench("--workload", "mesh-wide-16x16", "--seed", "0",
                         "--seconds", "0", "--trace", "0",
                         "--out", str(out), cwd=tmp_path, script=script)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1 + perf.MIN_REPS
    w = json.loads(out.read_text())["workloads"]["mesh-wide-16x16"]
    assert w["metrics"]["fail_rate"]["median"] > 0
    assert all("fingerprint" in f and "pinned value" in f
               for f in w["failures"])


def test_import_error_inside_the_program_fails_the_reps(tmp_path):
    script = copy_benchmark(tmp_path)
    init = tmp_path / "src" / "repro" / "scenarios" / "__init__.py"
    init.write_text("import repro.no_such_module\n" + init.read_text())
    out = tmp_path / "perf.json"
    proc, result = bench("--workload", "ring-fabric", "--seconds", "0",
                         "--trace", "0", "--out", str(out),
                         cwd=tmp_path, script=script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1 + perf.MIN_REPS
    w = json.loads(out.read_text())["workloads"]["ring-fabric"]
    assert w["metrics"]["fail_rate"]["median"] > 0
    assert all("repro.no_such_module" in f for f in w["failures"])


def test_traced_rollup_names_every_site_and_writes_a_valid_trace(tmp_path):
    from repro.obs import validate_chrome_trace

    out, trace = tmp_path / "perf.json", tmp_path / "trace.json"
    proc, result = bench("--workload", "mesh-gs-churn", "--scale", "1",
                         "--seconds", "0", "--trace", "1",
                         "--out", str(out), "--chrome-trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    w = json.loads(out.read_text())["workloads"]["mesh-gs-churn"]
    per_layer = json.loads(perf.BENCHMARK.read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in per_layer}
    for module in w["modules"]:
        assert module.split(".")[:1] == ["repro"], module
    assert w["layers"]["layer.unattributed_share"] < 0.05
    assert w["layers"]["network.gs_opens"] > 0
    assert w["layers"]["core.config_commands"] > 0
    assert w["hooks_missing"] == []
    payload = json.loads(trace.read_text())
    assert validate_chrome_trace(payload) == []
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"rep", "import", "build", "run",
                                          "verdict", "build_network"}
    assert len({e["args"]["rep"] for e in spans}) == 1


def test_profiler_maps_sites_by_source_module():
    from repro.sim.kernel import Simulator

    profiler = LayerProfiler()
    sim = Simulator()

    def gen():
        yield sim.timeout(1.0)

    process = sim.process(gen())
    # Bound method -> owner's module; partial unwrapped; plain function
    # -> its module; process resume -> the generator's source file.
    assert profiler.site_module(functools.partial(sim.run)) == \
        "repro.sim.kernel"
    assert profiler.site_module(gen) == __name__
    assert profiler.site_module(process._resume) == __file__
    assert module_of_file("/x/src/repro/core/router.py") == \
        "repro.core.router"
    assert module_of_file("/x/src/repro/obs/__init__.py") == "repro.obs"
    profiler.record(sim.run, 0.5)
    profiler.overhead(0.25)
    assert profiler.layer_seconds() == {"sim": 0.75, "sim.kernel": 0.75}
    assert profiler.dispatches == 1


def test_refuses_to_run_without_the_program(tmp_path):
    script = copy_benchmark(tmp_path, with_program=False)
    proc, result = bench("--workload", "ring-fabric", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path, script=script)
    assert proc.returncode not in (0, 1)
    assert result is None


def metric(median, q1=None, q3=None, bound=0.1, better="higher"):
    """A synthetic perf.json metric; quartiles default to +-1% around the
    median."""
    return {"median": median, "q1": median * 0.99 if q1 is None else q1,
            "q3": median * 1.01 if q3 is None else q3, "n": 10,
            "unit": "x", "better": better, "bound": bound}


@pytest.mark.parametrize("change, want", [
    (89.0, "worse"),          # an 11% drop is flagged
    (91.0, "unchanged"),      # a 9% drop is not
    (111.0, "better"),
    (109.0, "unchanged"),
])
def test_verdict_flags_moves_beyond_the_bound(change, want):
    assert perf.verdict(metric(100.0), metric(change)) == want


def test_verdict_lower_is_better_and_unresolved_spread():
    assert perf.verdict(metric(1.0, better="lower"),
                        metric(1.11, better="lower")) == "worse"
    wide = metric(100.0, 90.0, 110.0)       # IQR 20% > bound 10%
    assert perf.verdict(wide, metric(80.0)) == "unresolved"


def test_verdict_exact_metrics_flag_any_change():
    slack = metric(244.4, bound=0.0)
    assert perf.verdict(slack, dict(slack)) == "unchanged"
    assert perf.verdict(slack, metric(244.0, bound=0.0)) == "worse"
    fails = metric(0.0, bound=0.0, better="lower")
    assert perf.verdict(fails, metric(0.1, bound=0.0,
                                      better="lower")) == "worse"


def test_compare_prints_one_row_per_workload_metric(tmp_path, capsys):
    def record(hops):
        return {"workloads": {"ring-fabric": {"metrics": {
            "hops_per_s": metric(hops),
            "fail_rate": metric(0.0, bound=0.0, better="lower")}}}}
    parent, change = tmp_path / "p.json", tmp_path / "c.json"
    parent.write_text(json.dumps(record(100.0)))
    change.write_text(json.dumps(record(85.0)))
    assert perf.main(["--compare", str(parent), str(change)]) == 1
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["worse", "unchanged"]
    change.write_text(json.dumps(record(95.0)))
    assert perf.main(["--compare", str(parent), str(change)]) == 0
