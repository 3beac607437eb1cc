"""Tests for the BE source router (paper Section 5, Figure 7)."""

import hashlib

import pytest

from repro import MangoNetwork, Coord, RouterConfig
from repro.network.packet import BeFlit
from repro.network.routing import MAX_HOPS, encode_source_route, route_for
from repro.network.topology import Direction
from repro.obs import ChromeTraceSink
from repro.sim.tracing import Tracer


def collect_inbox(net, coord):
    inbox = net.adapters[coord].be_inbox
    packets = []
    while True:
        packet = inbox.try_get()
        if packet is None:
            return packets
        packets.append(packet)


class TestDelivery:
    def test_single_hop(self):
        net = MangoNetwork(2, 1)
        net.send_be(Coord(0, 0), Coord(1, 0), [0xAA, 0xBB])
        net.run(until=100.0)
        packets = collect_inbox(net, Coord(1, 0))
        assert len(packets) == 1
        assert packets[0].words == [0xAA, 0xBB]

    def test_multi_hop_with_turn(self):
        net = MangoNetwork(3, 3)
        net.send_be(Coord(0, 0), Coord(2, 2), [1, 2, 3, 4])
        net.run(until=300.0)
        packets = collect_inbox(net, Coord(2, 2))
        assert len(packets) == 1
        assert packets[0].words == [1, 2, 3, 4]

    def test_empty_payload_packet(self):
        """Variable-length packets include single-flit ones."""
        net = MangoNetwork(2, 1)
        net.send_be(Coord(0, 0), Coord(1, 0), [])
        net.run(until=100.0)
        assert len(collect_inbox(net, Coord(1, 0))) == 1

    def test_no_misdelivery(self):
        net = MangoNetwork(3, 1)
        net.send_be(Coord(0, 0), Coord(1, 0), [11])
        net.send_be(Coord(0, 0), Coord(2, 0), [22])
        net.run(until=300.0)
        mid = collect_inbox(net, Coord(1, 0))
        far = collect_inbox(net, Coord(2, 0))
        assert [p.words for p in mid] == [[11]]
        assert [p.words for p in far] == [[22]]

    def test_bidirectional_traffic(self):
        net = MangoNetwork(2, 1)
        net.send_be(Coord(0, 0), Coord(1, 0), [1])
        net.send_be(Coord(1, 0), Coord(0, 0), [2])
        net.run(until=200.0)
        assert collect_inbox(net, Coord(1, 0))[0].words == [1]
        assert collect_inbox(net, Coord(0, 0))[0].words == [2]

    def test_same_tile_loopback(self):
        """Same-tile BE traffic cannot use the rotation header; the NA
        loops it back locally (DESIGN.md)."""
        net = MangoNetwork(2, 1)
        net.send_be(Coord(0, 0), Coord(0, 0), [99])
        net.run(until=10.0)
        assert collect_inbox(net, Coord(0, 0))[0].words == [99]


class TestWormhole:
    def test_packet_coherency_under_contention(self):
        """Once an input port has gained access it retains it until the
        last flit: flits of competing packets never interleave."""
        net = MangoNetwork(3, 1)
        # Two long packets from both sides cross at the middle router
        # towards the same destination column... send both to tile (2,0).
        net.send_be(Coord(0, 0), Coord(2, 0), list(range(16)))
        net.send_be(Coord(1, 0), Coord(2, 0), list(range(100, 116)))
        net.run(until=1000.0)
        packets = collect_inbox(net, Coord(2, 0))
        assert len(packets) == 2
        bodies = sorted(tuple(p.words) for p in packets)
        assert bodies == [tuple(range(16)), tuple(range(100, 116))]

    def test_many_packets_from_many_sources(self):
        net = MangoNetwork(3, 3)
        expected = {}
        for index, src in enumerate(net.mesh.tiles()):
            if src == Coord(1, 1):
                continue
            words = [index * 10 + w for w in range(5)]
            expected[tuple(words)] = True
            net.send_be(src, Coord(1, 1), words)
        net.run(until=2000.0)
        packets = collect_inbox(net, Coord(1, 1))
        assert len(packets) == len(expected)
        for packet in packets:
            assert tuple(packet.words) in expected

    def test_local_port_rejects_a_body_flit_without_a_head(self):
        router = MangoNetwork(2, 1).routers[Coord(1, 0)]
        with pytest.raises(RuntimeError, match="body flit without a head"):
            router.assemble_local_be(BeFlit(7, is_tail=True))

    def test_local_port_rejects_a_head_inside_a_packet(self):
        router = MangoNetwork(2, 1).routers[Coord(1, 0)]
        router.assemble_local_be(BeFlit(7, is_head=True))
        with pytest.raises(RuntimeError, match="head flit inside a packet"):
            router.assemble_local_be(BeFlit(8, is_head=True))


class TestRoutingRules:
    def test_fifteen_hop_path_on_big_mesh(self):
        net = MangoNetwork(8, 8)
        src, dst = Coord(0, 0), Coord(7, 7)  # 14 hops
        net.send_be(src, dst, [7])
        net.run(until=2000.0)
        assert collect_inbox(net, dst)[0].words == [7]

    def test_sixteen_hop_route_uses_a_chained_header(self):
        """Past the single-word ceiling the header spills into a chained
        extension word; the packet still arrives intact."""
        net = MangoNetwork(9, 9)
        src, dst = Coord(0, 0), Coord(8, 8)  # 16 hops: 2 route words
        net.send_be(src, dst, [0xBEEF])
        net.run(until=4000.0)
        assert collect_inbox(net, dst)[0].words == [0xBEEF]
        stripped = sum(r.be_router.route_words_stripped
                       for r in net.routers.values())
        assert stripped == 1  # exactly one chunk boundary on a 16-hop route

    def test_route_beyond_chain_capacity_rejected_at_source(self):
        from repro.network.routing import max_route_hops
        net = MangoNetwork(max_route_hops() + 2, 1)
        with pytest.raises(Exception):
            net.run_process(
                net.adapters[Coord(0, 0)].send_be(
                    Coord(max_route_hops() + 1, 0), [1]))

    def test_min_hops_latency_scales(self):
        """Farther destinations take proportionally longer."""
        net = MangoNetwork(4, 1)
        times = {}
        for dst in (Coord(1, 0), Coord(2, 0), Coord(3, 0)):
            net.send_be(Coord(0, 0), dst, [1])
        net.run(until=500.0)
        for dst in (Coord(1, 0), Coord(2, 0), Coord(3, 0)):
            packet = collect_inbox(net, dst)[0]
            times[dst] = packet.arrive_time - packet.inject_time
        assert times[Coord(1, 0)] < times[Coord(2, 0)] < times[Coord(3, 0)]


class TestBeVcExtension:
    def test_two_be_vcs_deliver_independently(self):
        """The spare header bit supports two BE VCs (Section 5 extension,
        'not used in the present implementation')."""
        config = RouterConfig(be_channels=2)
        net = MangoNetwork(2, 1, config=config)
        net.send_be(Coord(0, 0), Coord(1, 0), [1], vc=0)
        net.send_be(Coord(0, 0), Coord(1, 0), [2], vc=1)
        net.run(until=200.0)
        packets = collect_inbox(net, Coord(1, 0))
        assert sorted(p.words[0] for p in packets) == [1, 2]

    def test_two_vcs_stream_into_the_local_port_at_once(self):
        """Each BE VC has its own output lock, so packets on both VCs
        can stream into one local port at the same time; the port
        assembles one packet per VC instead of refusing the second
        head."""
        net = MangoNetwork(3, 1, config=RouterConfig(be_channels=2))
        net.send_be(Coord(0, 0), Coord(2, 0), [0xA0, 0xA1, 0xA2], vc=0)
        net.send_be(Coord(1, 0), Coord(2, 0), [0xB0, 0xB1], vc=1)
        net.run(until=5000.0)
        packets = collect_inbox(net, Coord(2, 0))
        assert [p.words for p in packets] == [[0xB0, 0xB1],
                                              [0xA0, 0xA1, 0xA2]]
        assert [p.arrive_time for p in packets] == [
            pytest.approx(9.9225), pytest.approx(13.8075)]

    def test_two_vc_timeline_is_pinned(self):
        """No golden cell uses two BE channels, so this timeline pins
        the per-VC output locks, channels and senders: 16 adaptive
        packets from one tile spread evenly over both VCs of the first
        link.  Recorded when the BE inputs and senders were kernel
        processes on Stores and Resources."""
        sink = ChromeTraceSink()
        net = MangoNetwork(3, 1, config=RouterConfig(be_channels=2),
                           tracer=Tracer(sink=sink))
        for _ in range(16):
            net.send_be(Coord(0, 0), Coord(2, 0), list(range(6)),
                        vc="adaptive")
        net.run(until=5000.0)
        assert len(collect_inbox(net, Coord(2, 0))) == 16
        port = net.routers[Coord(0, 0)].output_ports[Direction.EAST]
        assert [chan.flits_sent for chan in port.be_tx] == [56, 56]
        export = sink.to_json().encode()
        assert hashlib.sha256(export).hexdigest()[:16] == "b0accda3f6c4564f"

    def test_zero_be_channels_forbids_be(self):
        config = RouterConfig(be_channels=0)
        net = MangoNetwork(2, 1, config=config)
        net.send_be(Coord(0, 0), Coord(1, 0), [1])
        with pytest.raises(RuntimeError):
            net.run(until=200.0)


class TestCreditFlowControl:
    def test_long_packet_respects_buffer_depth(self):
        """A 40-flit packet through depth-4 BE buffers must still deliver
        (credits throttle, never deadlock)."""
        net = MangoNetwork(3, 1, config=RouterConfig(be_buffer_depth=4))
        words = list(range(40))
        net.send_be(Coord(0, 0), Coord(2, 0), words)
        net.run(until=2000.0)
        packets = collect_inbox(net, Coord(2, 0))
        assert packets[0].words == words

    def test_counters_track_flits(self):
        net = MangoNetwork(2, 1)
        net.send_be(Coord(0, 0), Coord(1, 0), [1, 2, 3])
        net.run(until=200.0)
        source_router = net.routers[Coord(0, 0)]
        assert source_router.counters["be_local_injected"] == 4  # + header
        assert net.routers[Coord(1, 0)].counters["be_packets_delivered"] == 1
