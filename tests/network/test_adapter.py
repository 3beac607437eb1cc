"""Tests for network adapters and the GALS clock boundary."""

import hashlib

import pytest

from repro import ClockDomain, MangoNetwork, Coord
from repro.obs import ChromeTraceSink
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer


class TestClockDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClockDomain(period_ns=0)
        with pytest.raises(ValueError):
            ClockDomain(period_ns=1.0, sync_cycles=0)

    def test_frequency(self):
        assert ClockDomain(period_ns=2.0).frequency_mhz == pytest.approx(500.0)

    def test_next_edge_strictly_after_now(self):
        sim = Simulator()
        clock = ClockDomain(period_ns=3.0)

        def proc():
            yield sim.timeout(clock.next_edge(sim.now))
            first = sim.now
            yield sim.timeout(clock.next_edge(sim.now))
            return first, sim.now

        first, second = sim.run_process(proc())
        assert first == pytest.approx(3.0)
        assert second == pytest.approx(6.0)

    def test_offset(self):
        sim = Simulator()
        clock = ClockDomain(period_ns=4.0, offset_ns=1.0)

        def proc():
            yield sim.timeout(clock.next_edge(sim.now))
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(1.0)

    @pytest.mark.parametrize("period", [1.1, 3.3, 1 / 3])
    def test_every_wait_from_an_edge_is_one_period(self, period):
        """Periods that are not exact in binary: the quotient at an edge
        can round down onto the edge itself, which once made the wait
        zero (a 3.3 ns clock stuck at 9.899999999999999 ns)."""
        clock = ClockDomain(period_ns=period)
        now = 0.0
        for _ in range(5000):
            wait = clock.next_edge(now)
            assert wait == pytest.approx(period)
            now += wait

    def test_sync_latency(self):
        clock = ClockDomain(period_ns=2.5, sync_cycles=2)
        assert clock.sync_latency_ns == pytest.approx(5.0)


class TestEndpointBinding:
    def test_double_tx_bind_rejected(self):
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        na = net.adapters[Coord(0, 0)]
        endpoint = na.tx_endpoints[conn.src_iface]
        with pytest.raises(ValueError):
            na.bind_tx(conn.src_iface, endpoint.steering, 99)

    def test_send_on_unbound_interface_rejected(self):
        net = MangoNetwork(2, 1)
        from repro.network.packet import GsFlit
        with pytest.raises(ValueError):
            net.adapters[Coord(0, 0)].gs_send(0, GsFlit(1))

    def test_double_rx_bind_rejected(self):
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        with pytest.raises(ValueError):
            net.adapters[Coord(1, 0)].bind_rx(conn.dst_iface, lambda f, t: None)


class TestDroppedFlits:
    def test_straggler_after_unbind_tx_is_a_transmit_drop(self):
        """Flits still queued at the source when its interface is
        unbound are dropped there, as transmit drops: the source NA
        received nothing."""
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        for value in range(3):
            conn.send(value)
        net.run(until=0.5)
        src = net.adapters[Coord(0, 0)]
        src.unbind_tx(conn.src_iface)
        net.run(until=200.0)
        assert conn.sink.payloads == [0]
        assert src.dropped_tx_flits == 2
        assert src.dropped_rx_flits == 0

    def test_a_long_straggler_queue_is_dropped_in_one_step(self):
        """An unclocked NA drops every straggler in the step that finds
        the interface unbound, however long the queue is."""
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        for value in range(5000):
            conn.send(value)
        net.run(until=0.5)
        src = net.adapters[Coord(0, 0)]
        src.unbind_tx(conn.src_iface)
        net.run(until=200.0)
        assert conn.sink.payloads == [0]
        assert src.dropped_tx_flits == 4999
        assert not src.tx_endpoints[conn.src_iface].queue


class TestGalsBoundary:
    @pytest.mark.parametrize("periods, n_flits, on_edge, digest", [
        ({Coord(0, 0): 5.0}, 5, 5, "b89b6df5b1bb87e0"),
        ({Coord(0, 0): 2.0, Coord(1, 0): 4.0}, 40, 10, "51a8e7c9c49e943d"),
    ], ids=["source", "both-ends"])
    def test_clocked_na_quantizes_injection(self, periods, n_flits, on_edge,
                                            digest):
        """With a clocked core, flits enter the network on clock edges —
        the NA performs the synchronization (paper Section 3).  Behind a
        slower clocked sink the source waits for its window after the
        edge, so from the eighth flit on most injections follow an
        unlock instead.  The exported timelines were recorded with the
        transmit endpoints running as kernel processes."""
        clocks = {coord: ClockDomain(period_ns=period)
                  for coord, period in periods.items()}
        sink = ChromeTraceSink()
        net = MangoNetwork(2, 1, clocks=clocks, tracer=Tracer(sink=sink))
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        src_na = net.adapters[Coord(0, 0)]
        inject_times = []
        original = src_na.local_link.transmit_inject

        def spy(steering, flit):
            inject_times.append(net.sim.now)
            original(steering, flit)

        src_na.local_link.transmit_inject = spy
        for value in range(n_flits):
            conn.send(value)
        net.run(until=net.now + 400.0)
        assert conn.sink.payloads == list(range(n_flits))
        assert len(inject_times) == n_flits
        period = periods[Coord(0, 0)]
        assert sum(time % period == pytest.approx(0.0, abs=1e-9)
                   for time in inject_times) == on_edge
        export = sink.to_json().encode()
        assert hashlib.sha256(export).hexdigest()[:16] == digest

    def test_clocked_receiver_adds_sync_latency(self):
        """The receive path pays the 2-cycle synchronizer."""
        results = {}
        for name, clocks in (("async", {}),
                             ("clocked", {Coord(1, 0):
                                          ClockDomain(period_ns=2.0)})):
            net = MangoNetwork(2, 1, clocks=clocks)
            conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
            conn.send(1)
            net.run(until=net.now + 500.0)
            results[name] = conn.sink.mean_latency
        assert results["clocked"] >= results["async"] + 4.0

    def test_clocked_na_still_delivers_everything(self):
        clocks = {coord: ClockDomain(period_ns=3.0)
                  for coord in (Coord(0, 0), Coord(1, 0))}
        net = MangoNetwork(2, 1, clocks=clocks)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        for value in range(30):
            conn.send(value)
        net.run(until=net.now + 3000.0)
        assert conn.sink.payloads == list(range(30))

    @pytest.mark.parametrize("period", [3.3, 1.1, 0.7])
    def test_clocked_sink_with_an_inexact_period_delivers(self, period):
        """A 303 MHz core clock is an ordinary input: the clocked receive
        once polled edge after edge at a standing time and never
        returned from the run."""
        net = MangoNetwork(2, 1,
                           clocks={Coord(1, 0): ClockDomain(period_ns=period)})
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        for value in range(20):
            conn.send(value)
        net.run(until=2000.0)
        assert conn.sink.payloads == list(range(20))


class TestBeDispatch:
    def test_packet_handler_claims(self):
        net = MangoNetwork(2, 1)
        claimed = []
        net.adapters[Coord(1, 0)].add_packet_handler(
            lambda p: claimed.append(p) or True)
        net.send_be(Coord(0, 0), Coord(1, 0), [1, 2])
        net.run(until=200.0)
        assert len(claimed) == 1
        assert net.adapters[Coord(1, 0)].be_inbox.is_empty

    def test_unclaimed_packets_reach_inbox(self):
        net = MangoNetwork(2, 1)
        net.adapters[Coord(1, 0)].add_packet_handler(lambda p: False)
        net.send_be(Coord(0, 0), Coord(1, 0), [1])
        net.run(until=200.0)
        assert len(net.adapters[Coord(1, 0)].be_inbox.items) == 1

    def test_counters(self):
        net = MangoNetwork(2, 1)
        net.send_be(Coord(0, 0), Coord(1, 0), [1])
        net.run(until=200.0)
        assert net.adapters[Coord(0, 0)].be_packets_sent == 1
        assert net.adapters[Coord(1, 0)].be_packets_received == 1
