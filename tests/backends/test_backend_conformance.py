"""Backend conformance: the scenario engine across router architectures.

Three layers of guarantees:

* **registry** — the four paper backends are registered and reachable
  from the top-level package;
* **determinism** — each backend reproduces its golden flit-hop
  fingerprint bit-identically with full observability on and across
  retained-vs-streaming collectors, and emits its trace records in the
  golden order (the same contract the MANGO goldens have);
* **the Section 4.1 verdict** — the same saturation cell passes its GS
  contract on ``mango`` and measurably violates it on ``generic-vc``:
  the paper's central comparative claim as an executable assertion.
"""

import collections
import functools

import pytest

from repro import BACKENDS, backend_names, get_backend
from repro.analysis.qos import tdm_contract_for_path
from repro.backends import (BackendCapabilityError, RouterBackend,
                            TdmBackend, TdmNetwork)
from repro.core.config import RouterConfig
from repro.network.connection import AdmissionError
from repro.network.topology import Coord
from repro.obs import (CallSiteProfiler, ChromeTraceSink, ObsConfig,
                       OrderDigestSink)
from repro.scenarios import ScenarioRunner, get
from repro.scenarios.golden import (BACKEND_SMOKE_FINGERPRINTS,
                                    BACKEND_SMOKE_ORDER_DIGESTS,
                                    SMOKE_FINGERPRINTS)
from repro.scenarios.runner import LATENCY_SLACK_CYCLES
from repro.sim.tracing import Tracer

#: The cheap cells every backend is pinned on (see scenarios/golden.py).
CONFORMANCE_CELLS = ("be-uniform-4x4", "gs-cbr-4x4-uniform")

#: A non-``slow`` saturation cell where the Section 4.1 contrast is
#: unambiguous (generic-vc exceeds the bound by >60%).
SATURATION_CELL = "gs-under-saturation-hotspot-8x8"


def _run(name, backend, **kwargs):
    return ScenarioRunner(get(name).smoke(), backend=backend).run(**kwargs)


@functools.lru_cache(maxsize=None)
def _observed_run(backend, name):
    """One smoke run with metrics, tracing and profiling all on (cached,
    so each cell runs once for every test below): the result, the trace
    tags as ``{(service, kind): Counter(tag)}`` and the order digest."""
    chrome, digest = ChromeTraceSink(), OrderDigestSink()
    keys = collections.defaultdict(collections.Counter)

    def sink(record):
        chrome(record)
        digest(record)
        tag = record.info.get("flit")
        if tag is not None:
            service = "gs" if tag.startswith("c") else "be"
            keys[service, record.kind][tag] += 1

    obs = ObsConfig(metrics=True, tracer=Tracer(sink=sink),
                    profile=CallSiteProfiler())
    result = ScenarioRunner(get(name).smoke(), backend=backend,
                            obs=obs).run()
    return result, keys, digest.hexdigest()


class TestRegistry:
    def test_paper_backends_registered(self):
        assert set(backend_names()) >= {"mango", "generic-vc", "tdm",
                                        "priority"}

    def test_get_backend_resolves_names_and_instances(self):
        backend = get_backend("tdm")
        assert isinstance(backend, RouterBackend)
        assert get_backend(backend) is backend

    def test_get_backend_unknown_lists_known(self):
        with pytest.raises(KeyError, match="mango"):
            get_backend("no-such-backend")

    def test_every_backend_documents_itself(self):
        for backend in BACKENDS.values():
            assert backend.description, backend.name
            assert backend.paper_section, backend.name


class TestGoldenFingerprints:
    """Per-backend determinism, pinned the same way as the MANGO set."""

    @pytest.mark.parametrize("name", CONFORMANCE_CELLS)
    def test_mango_backend_is_the_default_path(self, name):
        """Routing construction through the backend layer must not move
        a single MANGO flit: the pre-backend goldens still hold."""
        result = _run(name, "mango")
        assert result.backend == "mango"
        assert result.fingerprint == SMOKE_FINGERPRINTS[name]

    @pytest.mark.parametrize("backend", sorted(BACKEND_SMOKE_FINGERPRINTS))
    @pytest.mark.parametrize("name", CONFORMANCE_CELLS)
    def test_event_drive_matches_golden(self, backend, name):
        result = _run(name, backend)
        assert result.passed, result.failures()
        assert result.fingerprint == \
            BACKEND_SMOKE_FINGERPRINTS[backend][name]

    @pytest.mark.parametrize("backend", sorted(BACKEND_SMOKE_FINGERPRINTS))
    @pytest.mark.parametrize("name", CONFORMANCE_CELLS)
    def test_full_observability_matches_golden(self, backend, name):
        """Metrics, tracing and profiling all on must still pass and
        dispatch exactly the same work on every backend, not just on
        MANGO."""
        result, _keys, _digest = _observed_run(backend, name)
        assert result.passed, result.failures()
        assert result.fingerprint == \
            BACKEND_SMOKE_FINGERPRINTS[backend][name]

    @pytest.mark.parametrize("backend", sorted(BACKEND_SMOKE_FINGERPRINTS))
    @pytest.mark.parametrize("name", CONFORMANCE_CELLS)
    def test_full_observability_matches_order_digest(self, backend, name):
        """The same run emits its trace records in the golden order."""
        result, _keys, digest = _observed_run(backend, name)
        same_hops = (result.fingerprint ==
                     BACKEND_SMOKE_FINGERPRINTS[backend][name])
        assert digest == BACKEND_SMOKE_ORDER_DIGESTS[backend][name], \
            "same hops, different order" if same_hops else "different hops"

    @pytest.mark.parametrize("name", CONFORMANCE_CELLS)
    def test_tdm_trace_pairs_keys_and_counts_every_hop(self, name):
        """Every injected BE key reaches one eject, every GS tag is
        ejected once for its one inject, and there is one ``hop`` record
        per link crossing the fingerprint counts."""
        result, keys, _digest = _observed_run("tdm", name)
        injected = set(keys["be", "inject"])
        assert injected
        assert set(keys["be", "eject"]) == injected
        assert set(keys["be", "eject"].values()) == {1}
        assert set(keys["be", "hop"]) <= injected
        assert keys["gs", "eject"] == keys["gs", "inject"]
        assert set(keys["gs", "inject"].values()) <= {1}
        hops = sum(keys["be", "hop"].values()) + \
            sum(keys["gs", "hop"].values())
        assert hops == result.flit_hops

    @pytest.mark.parametrize("backend", sorted(BACKEND_SMOKE_FINGERPRINTS))
    def test_retain_packets_flip_matches_golden(self, backend):
        name = CONFORMANCE_CELLS[0]
        spec = get(name).smoke()
        result = ScenarioRunner(
            spec, retain_packets=not spec.retain_packets,
            backend=backend).run()
        assert result.fingerprint == \
            BACKEND_SMOKE_FINGERPRINTS[backend][name]


class TestSection41Verdict:
    """The payoff: guarantees hold on MANGO, break on the Figure 3
    router — same spec, same verdict machinery."""

    def test_mango_keeps_the_contract_under_saturation(self):
        result = _run(SATURATION_CELL, "mango")
        assert result.passed, result.failures()
        assert all(v.latency_ok for v in result.gs if v.latency_checked)

    def test_generic_vc_violates_the_same_contract(self):
        result = _run(SATURATION_CELL, "generic-vc")
        assert not result.passed
        violations = [v for v in result.gs if v.latency_ok is False]
        assert violations, "expected a latency-bound violation"
        # Unbounded queueing, not loss: the architecture delivers
        # everything, just arbitrarily late — Section 4.1's point.
        assert result.be_lost == 0
        assert all(v.complete for v in result.gs)

    def test_tdm_holds_its_quantised_bound(self):
        result = _run(SATURATION_CELL, "tdm")
        assert result.passed, result.failures()

    def test_priority_meets_the_reference_level_here(self):
        """Ref [9]: differentiated service *happens* to protect the GS
        stream on this cell (BE is the lowest priority requester) —
        but it is scored against the reference contract, not a bound of
        its own (has_hard_guarantees is False)."""
        assert not get_backend("priority").has_hard_guarantees
        result = _run(SATURATION_CELL, "priority")
        assert result.passed, result.failures()


class TestBackendSemantics:
    def test_tdm_verdict_bound_is_the_slot_revolution_contract(self):
        config = RouterConfig()
        backend = get_backend("tdm")
        result = _run("gs-cbr-4x4-uniform", "tdm")
        contract = tdm_contract_for_path(
            result.gs[0].hops, table_size=backend.table_size,
            slot_ns=config.timing.link_cycle_ns)
        slack = LATENCY_SLACK_CYCLES * config.timing.link_cycle_ns
        assert result.gs[0].latency_bound_ns == pytest.approx(
            contract.max_latency_ns + slack)
        # The quantised bound is far tighter than the MANGO fair-share
        # worst case on the same path — and TDM still meets it.
        mango_bound = _run("gs-cbr-4x4-uniform", "mango"
                           ).gs[0].latency_bound_ns
        assert result.gs[0].latency_bound_ns < mango_bound

    def test_tdm_admission_rejects_unalignable_requests(self):
        """A one-slot table can host exactly one connection per link:
        the second request over a shared link must be *rejected* (TDM's
        admission control), never silently degraded."""
        spec = get("gs-cbr-4x4-uniform").smoke()
        backend = TdmBackend(table_size=1)
        net = TdmNetwork(4, 4, table_size=1)
        backend.open_connection(net, Coord(0, 0), Coord(3, 0))
        with pytest.raises(AdmissionError, match="slot"):
            backend.open_connection(net, Coord(0, 0), Coord(2, 0))

    def test_tdm_link_rearms_for_an_earlier_reserved_slot(self):
        """Regression: two connections share a link (slots 0 and 1).
        When the link is already armed for B's later slot and A's flit
        arrives with its own *earlier* reserved slot still ahead, the
        link must re-arm — otherwise A idles through its slot and waits
        a whole extra revolution, breaking the bound TDM is scored
        against."""
        net = TdmNetwork(2, 1, table_size=8)
        backend = TdmBackend()
        a = backend.open_connection(net, Coord(0, 0), Coord(1, 0))
        b = backend.open_connection(net, Coord(0, 0), Coord(1, 0))
        assert a.tdm.slots == [0] and b.tdm.slots == [1]
        slot_ns = net.slot_ns
        # Mid-revolution (inside slot 1): B's next reserved boundary is
        # slot index 9, A's is 8.  B enqueues first and arms the link
        # for 9; A must supersede that with 8.
        net.sim.defer(1.5 * slot_ns, b.send, 1)
        net.sim.defer(1.5 * slot_ns, a.send, 2)
        net.sim.run()
        assert a.sink.count == b.sink.count == 1
        contract = tdm_contract_for_path(1, table_size=8, slot_ns=slot_ns)
        assert a.sink.latencies[0] <= contract.max_latency_ns
        assert b.sink.latencies[0] <= contract.max_latency_ns

    @pytest.mark.parametrize("backend", ("generic-vc", "tdm"))
    def test_failure_injection_cells_are_rejected_loudly(self, backend):
        with pytest.raises(BackendCapabilityError, match="failure"):
            ScenarioRunner(get("failure-orphan-flit-4x4").smoke(),
                           backend=backend)

    @pytest.mark.parametrize("backend", ("mango", "priority"))
    def test_mango_based_backends_keep_failure_injection(self, backend):
        result = _run("failure-orphan-flit-4x4", backend)
        assert result.failure_detected

    def test_generic_vc_flit_hops_count_serialized_flits(self):
        """The packet-granular transfer unit must still account one
        flit-hop per serialized flit per link, so loads are comparable
        across backends."""
        mango = _run("be-uniform-4x4", "mango")
        generic = _run("be-uniform-4x4", "generic-vc")
        assert generic.be_sent == mango.be_sent
        assert generic.flit_hops > 0
        # Same draws, same XY discipline: totals are in the same regime
        # (routes differ only through pattern-RNG call order).
        assert generic.flit_hops == pytest.approx(mango.flit_hops,
                                                  rel=0.35)

    def test_result_records_backend_name(self):
        result = _run("be-uniform-4x4", "tdm")
        assert result.backend == "tdm"
        assert result.to_dict()["backend"] == "tdm"
