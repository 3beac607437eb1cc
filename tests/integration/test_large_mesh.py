"""Large-mesh stress: 8x8 and 16x16 MANGO NoCs with mixed GS + BE traffic.

Exercises long XY routes (up to 14 hops), many simultaneous connections,
heterogeneous link lengths with pipelining, standard traffic scenarios
(hotspot, transpose, bursty video) and full-network accounting
invariants (flit conservation).

Workload construction goes through the declarative scenario engine —
registry specs where the scenario is a named matrix cell, inline
:class:`ScenarioSpec` otherwise — never hand-rolled drivers; the specs
reproduce the parameters (and therefore the exact event sequences) these
tests have always run.
"""

import pytest

from repro import AdmissionError, MangoNetwork, Coord, Mesh, RouterConfig
from repro.network.topology import Direction, LinkSpec
from repro.scenarios import (BeTrafficSpec, GsConnectionSpec,
                             ScenarioRunner, ScenarioSpec, get)


class TestLargeMesh:
    def test_corner_to_corner_gs(self):
        """A 14-hop connection across the full 8x8 diagonal."""
        net = MangoNetwork(8, 8)
        conn = net.open_connection_instant(Coord(0, 0), Coord(7, 7))
        assert conn.n_hops == 14
        for value in range(100):
            conn.send(value)
        net.run(until=20000.0)
        assert conn.sink.payloads == list(range(100))

    def test_programmed_setup_at_14_hops(self):
        """Setup packets at the 15-hop route limit still work (14 hops +
        acknowledgements back)."""
        net = MangoNetwork(8, 8)
        conn = net.open_connection(Coord(0, 0), Coord(7, 7))
        assert conn.state == "open"
        conn.send(42)
        net.run(until=net.now + 3000.0)
        assert conn.sink.payloads == [42]

    def test_many_connections_with_be_storm(self):
        runner = ScenarioRunner(get("gs-many-conns-6x6"))
        result = runner.run()
        assert result.be_received == result.be_sent
        assert result.passed, result.failures()
        for conn in runner.connections:
            assert conn.sink.payloads == list(range(60))

    def test_flit_conservation(self):
        """Every GS flit injected is delivered exactly once; link counters
        agree with hop counts."""
        net = MangoNetwork(5, 5)
        conns = [net.open_connection_instant(Coord(0, 0), Coord(4, 4)),
                 net.open_connection_instant(Coord(4, 0), Coord(0, 4))]
        per_conn = 40
        for conn in conns:
            for value in range(per_conn):
                conn.send(value)
        net.run(until=30000.0)
        delivered = sum(conn.sink.count for conn in conns)
        assert delivered == per_conn * len(conns)
        # Each flit crosses n_hops links.
        expected_link_flits = sum(conn.n_hops * per_conn for conn in conns)
        measured = sum(link.gs_flits for link in net.links.values())
        assert measured == expected_link_flits
        assert net.total_gs_occupancy() == 0

    def test_heterogeneous_long_column_links(self):
        """A mesh where one column's links are 6 mm and pipelined: GS
        still delivers in order and the port speed is preserved."""
        overrides = {}
        for y in range(3):
            key = (Coord(1, y), Direction.SOUTH)
            overrides[key] = LinkSpec(Coord(1, y), Direction.SOUTH,
                                      length_mm=6.0, stages=4)
        mesh = Mesh(3, 4, link_overrides=overrides)
        net = MangoNetwork(3, 4, mesh=mesh)
        conn = net.open_connection_instant(Coord(1, 0), Coord(1, 3))
        for value in range(50):
            conn.send(value)
        net.run(until=20000.0)
        assert conn.sink.payloads == list(range(50))
        for key in overrides:
            link = net.links[key]
            assert link.media_cycle_ns == pytest.approx(
                net.config.timing.link_cycle_ns)

    def test_hotspot_traffic_8x8(self):
        """Hotspot pattern: half of all BE traffic converges on one tile.
        The hot tile must receive every packet (credits backpressure, no
        drops) and see the bulk of the load."""
        runner = ScenarioRunner(get("be-hotspot-8x8"), retain_packets=True)
        result = runner.run()
        assert result.be_received == result.be_sent
        hotspot = Coord(4, 4)
        collectors = runner.workload.collectors
        hot_count = collectors[hotspot].count
        others = [col.count for coord, col in collectors.items()
                  if coord != hotspot]
        # ~50% of all packets target the hotspot; any other tile gets
        # ~0.8% — an order of magnitude is a safe, non-flaky margin.
        assert hot_count > 5 * max(others)

    def test_transpose_traffic_8x8(self):
        """Transpose: (x, y) -> (y, x); diagonal-heavy load with
        deterministic destinations for off-diagonal tiles."""
        runner = ScenarioRunner(get("be-transpose-8x8"), retain_packets=True)
        result = runner.run()
        assert result.be_received == result.be_sent
        # An off-diagonal tile receives every packet of its transpose
        # partner (plus possibly uniform fallback spill from diagonal
        # tiles, whose destinations are random).
        src = Coord(1, 6)
        partner = Coord(6, 1)
        workload = runner.workload
        sent_by_partner = next(s for s in workload.sources
                               if s.src == partner).sent
        assert workload.collectors[src].count >= sent_by_partner

    def test_bursty_video_streams_8x8(self):
        """Bursty "video frame" GS sources over long routes with a BE
        storm underneath: GS delivery must stay complete and in order."""
        runner = ScenarioRunner(get("gs-bursty-video-8x8"))
        result = runner.run()
        assert result.be_received == result.be_sent
        assert result.passed, result.failures()
        for source, conn in zip(runner.gs_sources, runner.connections):
            assert source.sent == 16 * 6
            assert conn.sink.payloads == list(range(16 * 6))

    def test_local_uniform_16x16(self):
        """A 16x16 mesh (256 routers): plain uniform-random would exceed
        the 15-hop source-route limit, so the workload draws uniformly
        within a 14-hop radius.  Conservation must hold at this scale."""
        spec = ScenarioSpec(
            name="local-uniform-16x16-with-gs", cols=16, rows=16,
            gs=(GsConnectionSpec(src=(0, 0), dst=(7, 7), flits=40),
                GsConnectionSpec(src=(15, 15), dst=(8, 8), flits=40)),
            be=BeTrafficSpec("local_uniform", slot_ns=40.0,
                             probability=0.1, payload_words=2, n_slots=12,
                             radius=14, pattern_seed=41, seed=43),
            drain_ns=30000.0, retain_packets=False)
        runner = ScenarioRunner(spec)
        result = runner.run()
        workload = runner.workload
        assert result.be_received == result.be_sent
        for conn in runner.connections:
            assert conn.sink.payloads == list(range(40))
        assert runner.network.total_gs_occupancy() == 0
        # Streaming stats stay usable without per-packet lists.
        stats = workload.latency_stats
        assert stats.n == workload.received
        assert stats.mean > 0
        assert result.latency_p99_ns >= result.latency_p50_ns > 0
        with pytest.raises(RuntimeError):
            workload.latencies()

    def test_run_until_slices_equal_one_run(self):
        """Pumping the same workload through run(until=...) slices must
        give identical results to a single run() — slicing is pure
        driving, not different semantics."""
        def build():
            net = MangoNetwork(4, 4)
            conn = net.open_connection_instant(Coord(0, 0), Coord(3, 3))
            for value in range(30):
                conn.send(value)
            return net, conn

        net_a, conn_a = build()
        net_a.run(until=20000.0)

        net_b, conn_b = build()
        for until in range(97, 20000, 97):
            net_b.sim.run(until=float(until))
        net_b.sim.run(until=20000.0)
        assert net_b.now == 20000.0
        assert conn_a.sink.payloads == conn_b.sink.payloads
        assert (net_a.sim.events_processed ==
                net_b.sim.events_processed)

    def test_sixteen_hop_connection_opens_on_chained_headers(self):
        """A 9x9 corner-to-corner needs 16 hops — beyond the single-word
        ceiling that used to make ConnectionManager refuse it.  With
        chained route headers the real programming path opens it."""
        net = MangoNetwork(9, 9)
        conn = net.open_connection(Coord(0, 0), Coord(8, 8))
        assert conn.state == "open"
        assert conn.n_hops == 16

    def test_route_longer_than_chain_capacity_rejected_without_leak(self):
        """Beyond the header chain's capacity: clean AdmissionError, and
        no VCs leak (a connection over the same first link still
        opens)."""
        from repro.network.routing import max_route_hops
        cap = max_route_hops()
        net = MangoNetwork(cap + 2, 1)
        with pytest.raises(AdmissionError):
            net.open_connection(Coord(0, 0), Coord(cap + 1, 0))
        pools = net.connection_manager.vc_pools
        assert all(len(pool) == 8 for pool in pools.values())
        conn = net.open_connection_instant(Coord(0, 0), Coord(cap, 0))
        assert conn.state == "open"
