"""Tests for traffic generators and sinks."""

import pytest

from repro import MangoNetwork, Coord
from repro.traffic.generators import (
    BurstySource,
    CbrSource,
    PoissonBePackets,
    SaturatingSource,
)
from repro.traffic.sinks import BeCollector, GsBandwidthProbe
from repro.traffic.stats import percentile
from repro.traffic.patterns import UniformRandom
from repro.traffic.workload import run_until_processes_done


@pytest.fixture
def net():
    return MangoNetwork(2, 2)


class TestCbrSource:
    def test_validation(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        with pytest.raises(ValueError):
            CbrSource(net.sim, conn, period_ns=0.0, n_flits=5)
        with pytest.raises(ValueError):
            CbrSource(net.sim, conn, period_ns=1.0, n_flits=0)

    def test_delivers_all_flits(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        source = CbrSource(net.sim, conn, period_ns=10.0, n_flits=25)
        run_until_processes_done(net, [source.process])
        assert conn.sink.count == 25
        assert source.sent == 25

    def test_rate_matches_period(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        source = CbrSource(net.sim, conn, period_ns=20.0, n_flits=40)
        run_until_processes_done(net, [source.process])
        measured = conn.sink.throughput_flits_per_ns()
        assert measured == pytest.approx(1 / 20.0, rel=0.05)

    def test_custom_payload(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        source = CbrSource(net.sim, conn, period_ns=5.0, n_flits=4,
                           payload=lambda i: 100 + i)
        run_until_processes_done(net, [source.process])
        assert conn.sink.payloads == [100, 101, 102, 103]


class TestBurstySource:
    def test_all_bursts_delivered(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        source = BurstySource(net.sim, conn, burst_len=6, gap_ns=50.0,
                              n_bursts=5)
        run_until_processes_done(net, [source.process])
        assert conn.sink.count == 30

    def test_tail_bit_per_burst(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        tails = []
        original = conn.sink.record

        def spy(flit, now):
            tails.append(flit.last)
            original(flit, now)

        conn.sink.record = spy
        net.adapters[Coord(1, 1)].unbind_rx(conn.dst_iface)
        net.adapters[Coord(1, 1)].bind_rx(conn.dst_iface, spy)
        source = BurstySource(net.sim, conn, burst_len=3, gap_ns=20.0,
                              n_bursts=2)
        run_until_processes_done(net, [source.process])
        assert tails == [False, False, True, False, False, True]

    def test_jitter_stays_positive(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        source = BurstySource(net.sim, conn, burst_len=2, gap_ns=10.0,
                              n_bursts=10, jitter=0.5, seed=3)
        run_until_processes_done(net, [source.process])
        assert conn.sink.count == 20


class TestSaturatingSource:
    def test_sends_total(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        source = SaturatingSource(net.sim, conn, total_flits=300)
        run_until_processes_done(net, [source.process], drain_ns=3000.0)
        assert conn.sink.count == 300


class TestPoissonBePackets:
    def test_sends_n_packets(self, net):
        collector = BeCollector(net.sim, net, Coord(1, 1))
        source = PoissonBePackets(
            net.sim, net, Coord(0, 0), lambda src: Coord(1, 1),
            mean_gap_ns=30.0, payload_words=2, n_packets=20, seed=9)
        run_until_processes_done(net, [source.process])
        assert source.sent == 20
        assert collector.count == 20

    def test_latency_stats_collected(self, net):
        collector = BeCollector(net.sim, net, Coord(1, 1))
        source = PoissonBePackets(
            net.sim, net, Coord(0, 0), lambda src: Coord(1, 1),
            mean_gap_ns=50.0, payload_words=1, n_packets=10, seed=2)
        run_until_processes_done(net, [source.process])
        assert collector.latency.n == 10
        assert collector.latency.mean > 0
        samples = [packet.latency for packet in collector.packets]
        assert percentile(samples, 99) >= percentile(samples, 50)


class TestGsBandwidthProbe:
    def test_probe_windows(self, net):
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 1))
        probe = GsBandwidthProbe(net.sim, conn.sink, window_ns=100.0,
                                 n_windows=5)
        source = CbrSource(net.sim, conn, period_ns=10.0, n_flits=60)
        run_until_processes_done(net, [source.process, probe.process])
        assert len(probe.samples) == 5
        # Roughly 10 flits per 100 ns window during steady state.
        assert probe.min_rate() > 0.05
