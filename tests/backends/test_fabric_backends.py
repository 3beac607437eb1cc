"""The ring and routerless fabric backends.

The fabric cells are first-class matrix citizens: resolved from their
spec's topology with no ``--backend`` flag, golden-pinned like every
other cell, scored against their own architectural bound (the
fair-share loop contract — not the mesh VC contract), and
capability-gated both ways: a mesh backend refuses a fabric cell and a
fabric backend refuses a mesh cell, loudly.
"""

import pytest

from repro.analysis.qos import loop_contract_for_path
from repro.backends import (BackendCapabilityError, FairShareNetwork,
                            backend_for_topology, get_backend)
from repro.core.config import RouterConfig
from repro.network import Coord, build_topology
from repro.network.connection import AdmissionError
from repro.scenarios import ScenarioRunner, get, registry
from repro.scenarios.golden import SMOKE_FINGERPRINTS

FABRIC_CELLS = sorted(registry.names(tags=("fabric",)))


class TestResolution:
    def test_fabric_cells_registered(self):
        assert len(FABRIC_CELLS) >= 4
        topologies = {get(name).topology for name in FABRIC_CELLS}
        assert {"ring", "ring-uni", "routerless"} <= topologies

    def test_topology_resolves_default_backend(self):
        assert backend_for_topology("mesh").name == "mango"
        assert backend_for_topology("ring").name == "ring"
        assert backend_for_topology("ring-uni").name == "ring"
        assert backend_for_topology("hring").name == "ring"
        assert backend_for_topology("routerless").name == "routerless"
        with pytest.raises(KeyError, match="no default backend"):
            backend_for_topology("torus")

    def test_capability_gate_cuts_both_ways(self):
        with pytest.raises(BackendCapabilityError, match="topology"):
            ScenarioRunner(get("be-uniform-4x4"), backend="ring")
        with pytest.raises(BackendCapabilityError, match="topology"):
            ScenarioRunner(get("ring-cbr-8x8"), backend="mango")
        with pytest.raises(BackendCapabilityError, match="topology"):
            ScenarioRunner(get("routerless-cbr-8x8"), backend="tdm")


class TestFabricCells:
    @pytest.mark.parametrize("name", FABRIC_CELLS)
    def test_cell_passes_and_matches_golden(self, name):
        result = ScenarioRunner(get(name).smoke()).run()
        assert result.passed, result.failures()
        assert result.fingerprint == SMOKE_FINGERPRINTS[name]
        assert result.topology == get(name).topology
        assert result.backend in ("ring", "routerless")

    def test_verdicts_use_the_loop_bound(self):
        """GS verdicts price the fabric's own contract over the route's
        *loop* hops — not the mesh manhattan distance."""
        from repro.scenarios.runner import LATENCY_SLACK_CYCLES
        config = RouterConfig()
        slack = LATENCY_SLACK_CYCLES * config.timing.link_cycle_ns
        result = ScenarioRunner(get("ring-uni-cbr-4x4").smoke()).run()
        backend = get_backend("ring")
        assert result.gs
        for verdict in result.gs:
            expected = loop_contract_for_path(
                verdict.hops, gs_capacity=config.vcs_per_port,
                config=config).max_latency_ns
            assert verdict.latency_bound_ns == pytest.approx(
                expected + slack)
            assert verdict.latency_bound_ns == pytest.approx(
                backend.latency_bound_ns(verdict.hops) + slack)
        # The wrap-around pair pays the full clockwise arc.
        assert {verdict.hops for verdict in result.gs} == {3, 4}


class TestFairShareAdmission:
    def test_uni_ring_link_rejects_the_ninth_connection(self):
        config = RouterConfig()
        topology = build_topology("ring-uni", 4, 4)
        net = FairShareNetwork(topology, config=config)
        src, dst = Coord(0, 0), Coord(1, 0)
        for _ in range(config.vcs_per_port):
            net.allocate_connection(src, dst)
        with pytest.raises(AdmissionError,
                           match="free GS queue"):
            net.allocate_connection(src, dst)

    def test_bidirectional_ring_falls_back_to_the_other_arc(self):
        config = RouterConfig()
        topology = build_topology("ring", 4, 4)
        net = FairShareNetwork(topology, config=config)
        src, dst = Coord(0, 0), Coord(1, 0)
        for _ in range(config.vcs_per_port):
            conn = net.allocate_connection(src, dst)
            assert conn.n_hops == 1
        # The shortest arc is full; admission reroutes the long way.
        conn = net.allocate_connection(src, dst)
        assert conn.n_hops == topology.n_tiles - 1

    def test_routerless_overlapping_loops_absorb_row_traffic(self):
        config = RouterConfig()
        topology = build_topology("routerless", 4, 4)
        net = FairShareNetwork(topology, config=config)
        src, dst = Coord(3, 0), Coord(0, 0)
        hops = [net.allocate_connection(src, dst).n_hops
                for _ in range(config.vcs_per_port + 1)]
        # The row loop's wrap link serves the first eight (1 hop);
        # the ninth rides the global snake the long way round — the
        # overlap is the fabric's whole point.
        assert hops == [1] * config.vcs_per_port + [13]
