"""Trace exports are byte-deterministic across every equivalent drive.

The Chrome export's contract (``repro.obs.trace``): the same scenario
produces the *same bytes* no matter how the kernel was driven — the
plain vs the profiled drain loop, link-segment hop batching on or off,
and across repeated runs in one process (trace tags are run-relative,
never process-global ids).  Any drift here means emission order or
float arithmetic leaked into the artifact.
"""

import pytest

from repro.obs import CallSiteProfiler, ChromeTraceSink, ObsConfig
from repro.scenarios import ScenarioRunner, get
from repro.sim.tracing import Tracer

#: One mango mesh cell, one graph-fabric cell (the hop-batching path
#: lives in the fabrics).
CELLS = ("be-uniform-4x4", "ring-cbr-8x8")


def _export(name, profile=None):
    sink = ChromeTraceSink()
    tracer = Tracer(enabled=True, sink=sink)
    obs = ObsConfig(tracer=tracer, profile=profile)
    result = ScenarioRunner(get(name).smoke(), obs=obs).run()
    assert result.passed, result.failures()
    return sink.to_json(), result.fingerprint


@pytest.mark.parametrize("cell", CELLS)
def test_rerun_in_one_process(cell):
    first = _export(cell)
    second = _export(cell)
    assert first == second


@pytest.mark.parametrize("cell", CELLS)
def test_plain_vs_profiled_drain(cell):
    plain = _export(cell)
    profiled = _export(cell, profile=CallSiteProfiler())
    assert plain == profiled


def test_hop_batching_on_off(monkeypatch):
    # Mango is excluded from batching; the ring fabric actually
    # condenses uncontended segments — batched hops must re-expand to
    # the unbatched cycle boundaries in the export.  Batching may emit
    # same-timestamp records in another order; the export's total sort
    # absorbs that.
    monkeypatch.setenv("REPRO_HOP_BATCHING", "0")
    off = _export("ring-cbr-8x8")
    monkeypatch.setenv("REPRO_HOP_BATCHING", "1")
    on = _export("ring-cbr-8x8")
    assert off == on
