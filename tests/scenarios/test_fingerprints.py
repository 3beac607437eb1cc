"""Golden-fingerprint determinism regression.

The flit-hop fingerprint digests pure-integer link/sink state, so it is
machine-independent: every registry scenario must reproduce its recorded
golden bit-identically with full observability on (metrics probes, a
streaming trace sink and the call-site profiler) and whether collectors
retain packets or stream (P²/Welford) — telemetry and measurement mode
must never change the simulated work.

The observed run's trace is also checked offline: every BE record of a
packet carries that packet's run-relative ``p<n>`` key, and GS
``c<connection>.<payload>`` tags pair one to one.  The same trace is
hashed in emission order and must reproduce its golden order digest:
the fingerprint hashes link counts, so only the digest sees a run that
does the same hops in a different order.

Every non-soak cell is also pinned at full duration (``slow``-marked:
about half a minute for all of them); the four GS cells also pin their
full-duration order digest.
"""

import collections
import dataclasses
import functools

import pytest

from repro.obs import (CallSiteProfiler, ChromeTraceSink, ObsConfig,
                       OrderDigestSink)
from repro.scenarios import (ScenarioRunner, get, flit_hop_fingerprint,
                             registry)
from repro.scenarios.golden import (FULL_FINGERPRINTS, FULL_ORDER_DIGESTS,
                                    SMOKE_FINGERPRINTS, SMOKE_ORDER_DIGESTS)
from repro.sim.tracing import Tracer

from scenario_params import matrix_params


def _trace_keys(payload):
    """``{(service, kind): Counter(tag)}`` over a Chrome trace payload;
    GS tags start with ``c``, BE packet keys with ``p``."""
    keys = collections.defaultdict(collections.Counter)
    for event in payload["traceEvents"]:
        args = event.get("args", {})
        tag = args.get("flit")
        if tag is not None:
            service = "gs" if tag.startswith("c") else "be"
            keys[service, args["kind"]][tag] += 1
    return keys


def _order_drift(result, golden_fingerprint):
    """Failure text for an order digest that moved."""
    if result.fingerprint == golden_fingerprint:
        return "same hops, different order"
    return "different hops"


@functools.lru_cache(maxsize=None)
def _observed_run(name):
    """One smoke run of ``name`` with full observability (cached, so
    each cell runs once for every test below): the result, the trace's
    keys and its order digest."""
    chrome, digest = ChromeTraceSink(), OrderDigestSink()

    def sink(record):
        chrome(record)
        digest(record)

    obs = ObsConfig(metrics=True, tracer=Tracer(sink=sink),
                    profile=CallSiteProfiler())
    result = ScenarioRunner(get(name).smoke(), obs=obs).run()
    return result, _trace_keys(chrome.to_payload()), digest.hexdigest()


@pytest.mark.parametrize("name", matrix_params())
def test_full_observability_matches_golden(name):
    """Metrics, tracing and profiling all on: the run still passes and
    dispatches exactly the work of the plain run."""
    result, _keys, _digest = _observed_run(name)
    assert result.passed, result.failures()
    assert result.fingerprint == SMOKE_FINGERPRINTS[name]


@pytest.mark.parametrize("name", matrix_params())
def test_full_observability_matches_order_digest(name):
    """The same run emits its trace records in the golden order."""
    result, _keys, digest = _observed_run(name)
    assert digest == SMOKE_ORDER_DIGESTS[name], \
        _order_drift(result, SMOKE_FINGERPRINTS[name])


def test_every_non_soak_cell_has_a_full_fingerprint():
    assert set(FULL_FINGERPRINTS) == set(
        name for name in registry.names()
        if "soak" not in get(name).tags)


@functools.lru_cache(maxsize=None)
def _full_run(name):
    """One full-duration run of ``name`` (cached); the cells with a
    full-duration order digest run under a digest-only tracer.  Returns
    the result and the digest (``None`` when not traced)."""
    if name not in FULL_ORDER_DIGESTS:
        return ScenarioRunner(get(name)).run(), None
    digest = OrderDigestSink()
    obs = ObsConfig(tracer=Tracer(max_records=1, sink=digest))
    result = ScenarioRunner(get(name), obs=obs).run()
    return result, digest.hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FULL_FINGERPRINTS))
def test_full_duration_matches_golden(name):
    """The full-duration run, which the paper's claims rest on, passes
    and reproduces its golden."""
    result, _digest = _full_run(name)
    assert result.passed, result.failures()
    assert result.fingerprint == FULL_FINGERPRINTS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FULL_ORDER_DIGESTS))
def test_full_duration_matches_order_digest(name):
    result, digest = _full_run(name)
    assert digest == FULL_ORDER_DIGESTS[name], \
        _order_drift(result, FULL_FINGERPRINTS[name])


@pytest.mark.parametrize(
    "name", matrix_params(where=lambda spec: spec.failure is None))
def test_trace_keys_pair(name):
    """The BE keys injected are exactly the keys that reach a terminal
    record (the NA eject, or ``config_packet`` for a programming
    packet), each terminal key once; every hop names an injected key;
    every GS tag is ejected once for its one inject."""
    _result, keys, _digest = _observed_run(name)
    injected = set(keys["be", "inject"])
    terminal = keys["be", "eject"] + keys["be", "config_packet"]
    assert injected
    assert set(terminal) == injected
    assert set(terminal.values()) == {1}
    assert set(keys["be", "hop"]) <= injected
    assert keys["gs", "eject"] == keys["gs", "inject"]
    assert set(keys["gs", "inject"].values()) <= {1}


@pytest.mark.parametrize("name", matrix_params())
def test_retain_packets_flip_matches_golden(name):
    """Streaming vs retained collectors are measurement-only: flipping
    the flag must not perturb a single flit hop."""
    spec = get(name).smoke()
    result = ScenarioRunner(
        spec, retain_packets=not spec.retain_packets).run()
    assert result.fingerprint == SMOKE_FINGERPRINTS[name]


class TestFingerprintSensitivity:
    """The digest must actually react to changed work (no vacuous pass)."""

    def test_different_seed_different_fingerprint(self):
        spec = get("be-uniform-4x4").smoke()
        reference = ScenarioRunner(spec).run().fingerprint
        reseeded = dataclasses.replace(
            spec, be=dataclasses.replace(spec.be, seed=spec.be.seed + 1))
        assert ScenarioRunner(reseeded).run().fingerprint != reference

    def test_different_load_different_fingerprint(self):
        spec = get("be-uniform-4x4").smoke()
        reference = ScenarioRunner(spec).run().fingerprint
        lighter = dataclasses.replace(
            spec, be=dataclasses.replace(spec.be, probability=0.05))
        assert ScenarioRunner(lighter).run().fingerprint != reference

    def test_order_digest_sees_what_the_fingerprint_cannot(
            self, monkeypatch):
        """Hop batching off moves no link crossing on ring-cbr-8x8, only
        the order of same-timestamp deliveries: the fingerprint holds,
        the order digest moves."""
        name = "ring-cbr-8x8"
        monkeypatch.setenv("REPRO_HOP_BATCHING", "0")
        digest = OrderDigestSink()
        obs = ObsConfig(tracer=Tracer(max_records=1, sink=digest))
        result = ScenarioRunner(get(name).smoke(), obs=obs).run()
        assert result.fingerprint == SMOKE_FINGERPRINTS[name]
        assert digest.hexdigest() == "5715948222ebabc3"
        assert digest.hexdigest() != SMOKE_ORDER_DIGESTS[name]

    def test_idle_network_fingerprint_is_stable_constant(self):
        """Same geometry, no traffic -> identical digests; different
        geometry -> different digests (the link set is hashed)."""
        from repro import MangoNetwork
        assert flit_hop_fingerprint(MangoNetwork(3, 2)) == \
            flit_hop_fingerprint(MangoNetwork(3, 2))
        assert flit_hop_fingerprint(MangoNetwork(3, 2)) != \
            flit_hop_fingerprint(MangoNetwork(2, 3))
