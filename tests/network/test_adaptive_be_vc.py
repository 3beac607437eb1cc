"""Tests for the adaptive BE-VC selection extension (paper Section 5).

"The remaining bit can be used to indicate one of two BE VCs ... can be
used to extend the BE router to provide more complex deadlock free
routing, adaptive VC allocation, etc."
"""

import pytest

from repro import MangoNetwork, Coord, RouterConfig


@pytest.fixture
def net():
    return MangoNetwork(3, 1, config=RouterConfig(be_channels=2))


def drain(net, coord):
    inbox = net.adapters[coord].be_inbox
    packets = []
    while True:
        packet = inbox.try_get()
        if packet is None:
            return packets
        packets.append(packet)


class TestAdaptiveSelection:
    def test_single_vc_router_always_vc0(self):
        net = MangoNetwork(2, 1)  # be_channels = 1
        assert net.adapters[Coord(0, 0)]._pick_be_vc(Coord(1, 0)) == 0

    def test_idle_network_prefers_vc0(self, net):
        assert net.adapters[Coord(0, 0)]._pick_be_vc(Coord(2, 0)) == 0

    def test_congested_vc0_diverts_to_vc1(self, net):
        """Fill VC 0's output queue and credits: the picker must choose
        VC 1."""
        from repro.network.topology import Direction
        port = net.routers[Coord(0, 0)].output_ports[Direction.EAST]
        chan0 = port.be_tx[0]
        for _ in range(chan0.config.be_buffer_depth):
            chan0.flow.admit()
        assert net.adapters[Coord(0, 0)]._pick_be_vc(Coord(2, 0)) == 1

    def test_adaptive_packets_delivered(self, net):
        for index in range(10):
            net.send_be(Coord(0, 0), Coord(2, 0), [index], vc="adaptive")
        net.run(until=2000.0)
        packets = drain(net, Coord(2, 0))
        assert sorted(p.words[0] for p in packets) == list(range(10))

    def test_adaptive_spreads_under_backlog(self, net):
        """When many packets queue at once, adaptive selection uses both
        VCs (an explicit-VC sender would serialize on one)."""
        seen_vcs = set()
        # Observe link arrivals at the middle router (local injection at
        # the source does not pass through accept()).
        original = net.routers[Coord(1, 0)].be_router.accept

        def spy(in_dir, flit):
            seen_vcs.add(flit.vc)
            original(in_dir, flit)

        net.routers[Coord(1, 0)].be_router.accept = spy
        for index in range(16):
            net.send_be(Coord(0, 0), Coord(2, 0), list(range(6)),
                        vc="adaptive")
        net.run(until=5000.0)
        packets = drain(net, Coord(2, 0))
        assert len(packets) == 16
        assert seen_vcs == {0, 1}
