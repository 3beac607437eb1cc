"""Failure injection: the router must detect protocol violations loudly.

"Errors should never pass silently" — the kernel surfaces unhandled
process failures, and every protocol layer (steering, share control,
credits, config packets) raises typed errors on violations instead of
corrupting state.
"""

import pytest

from repro import MangoNetwork, Coord, RouterConfig
from repro.circuits.sharebox import ShareProtocolError
from repro.core.programming import (
    ConfigFormatError,
    OP_SETUP,
    pack_command,
    unpack_command,
)
from repro.network.packet import GsFlit, Steering, SteeringError
from repro.network.topology import Direction


class TestMalformedConfigPackets:
    def test_garbage_config_payload_raises_at_router(self):
        """A packet that carries the config magic but a truncated body
        must fail the programming interface, not corrupt the table."""
        net = MangoNetwork(2, 1)
        magic_only = [0xC0 << 24 | (OP_SETUP << 20)]
        net.send_be(Coord(0, 0), Coord(1, 0), magic_only)
        with pytest.raises(ConfigFormatError):
            net.run(until=500.0)
        assert len(net.routers[Coord(1, 0)].table) == 0

    def test_conflicting_setup_raises(self):
        """Programming a VC buffer already owned by another connection is
        a table error (double allocation bug upstream)."""
        net = MangoNetwork(2, 1)
        words_a = pack_command(OP_SETUP, seq=1, out_port=Direction.LOCAL,
                               out_vc=0, unlock_dir=Direction.WEST,
                               unlock_vc=0, connection_id=1)
        words_b = pack_command(OP_SETUP, seq=2, out_port=Direction.LOCAL,
                               out_vc=0, unlock_dir=Direction.WEST,
                               unlock_vc=1, connection_id=2)
        net.send_be(Coord(0, 0), Coord(1, 0), words_a)
        net.run(until=300.0)
        net.send_be(Coord(0, 0), Coord(1, 0), words_b)
        from repro.core.connection_table import TableError
        with pytest.raises(TableError):
            net.run(until=600.0)

    def test_roundtrip_fuzz_of_non_config_words(self):
        """Random words that don't carry the magic must never be
        interpreted as commands."""
        import random
        rng = random.Random(7)
        for _ in range(200):
            word = rng.randrange(1 << 32)
            if (word >> 24) & 0xFF == 0xC0:
                continue
            with pytest.raises(ConfigFormatError):
                unpack_command([word])


class TestDataPathViolations:
    def test_flit_to_unprogrammed_buffer_is_orphan_unlock(self):
        """A flit steered into a VC buffer with no table entry cannot
        route its unlock (counted) and cannot be forwarded (the sender
        hits the missing table entry loudly)."""
        net = MangoNetwork(2, 1)
        router = net.routers[Coord(0, 0)]
        steering = router.switching.steer_to(Direction.LOCAL,
                                             Direction.EAST, 5)
        router.accept_gs_flit(Direction.LOCAL, steering, GsFlit(1))
        from repro.core.connection_table import TableError
        with pytest.raises(TableError):
            net.run(until=100.0)
        assert router.vc_control.orphan_unlocks == 1

    def test_invalid_steering_code_raises(self):
        net = MangoNetwork(2, 1)
        router = net.routers[Coord(0, 0)]
        with pytest.raises(SteeringError):
            router.accept_gs_flit(Direction.NORTH, Steering(7, 3),
                                  GsFlit(1))

    def test_unsharebox_overflow_detected(self):
        """Two flits arriving at one unsharebox = the share protocol was
        violated upstream; the model refuses to lose a flit silently."""
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        hop = conn.hops[0]
        slot = net.routers[hop.coord].output_ports[hop.out_dir].slots[hop.vc]
        slot.unsharebox.accept(GsFlit(1))
        with pytest.raises(ShareProtocolError):
            slot.unsharebox.accept(GsFlit(2))

    def test_be_input_overflow_detected(self):
        """More BE flits than credits = a credit protocol violation."""
        net = MangoNetwork(2, 1)
        router = net.routers[Coord(1, 0)]
        from repro.network.packet import BeFlit
        depth = net.config.be_buffer_depth
        for index in range(depth):
            router.be_router.accept(Direction.WEST,
                                    BeFlit(index, is_head=(index == 0)))
        with pytest.raises(RuntimeError, match="credit"):
            router.be_router.accept(Direction.WEST, BeFlit(99))

    def test_be_input_overflow_counts_the_flit_it_holds(self):
        """On a running network the input takes the head at once; the
        head still holds its upstream credit while it decodes, so the
        window is full after as many flits as credits."""
        net = MangoNetwork(2, 1)
        net.run(until=1.0)
        router = net.routers[Coord(1, 0)]
        from repro.network.packet import BeFlit
        depth = net.config.be_buffer_depth
        for index in range(depth):
            router.be_router.accept(Direction.WEST,
                                    BeFlit(index, is_head=(index == 0)))
        with pytest.raises(RuntimeError, match="credit"):
            router.be_router.accept(Direction.WEST, BeFlit(99))


class TestKernelErrorSurfacing:
    def test_crash_inside_traffic_process_reaches_caller(self):
        net = MangoNetwork(2, 1)

        def broken_source():
            yield net.sim.timeout(10.0)
            raise ZeroDivisionError("injected fault")

        net.sim.process(broken_source())
        with pytest.raises(ZeroDivisionError):
            net.run(until=100.0)

    def test_simulation_survives_handled_faults(self):
        net = MangoNetwork(2, 1)
        log = []

        def fragile():
            yield net.sim.timeout(10.0)
            raise ValueError("inner")

        def supervisor():
            try:
                yield net.sim.process(fragile())
            except ValueError:
                log.append("recovered")

        net.sim.process(supervisor())
        net.run(until=100.0)
        assert log == ["recovered"]
