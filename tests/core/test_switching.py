"""Tests for the non-blocking switching module."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.core.switching import SwitchingModule
from repro.network.packet import Steering, SteeringError
from repro.network.topology import Direction, NETWORK_DIRECTIONS


@pytest.fixture
def switch():
    return SwitchingModule(RouterConfig())


class TestRouting:
    def test_route_decodes_steering(self, switch):
        steering = switch.steer_to(Direction.WEST, Direction.EAST, 6)
        assert switch.route(Direction.WEST, steering) == (Direction.EAST, 6)

    def test_bad_code_raises(self, switch):
        with pytest.raises(SteeringError):
            switch.route(Direction.NORTH, Steering(7, 3))

    def test_reachable_ports(self, switch):
        assert Direction.NORTH not in switch.reachable(Direction.NORTH)
        assert len(switch.reachable(Direction.LOCAL)) == 4

    @given(st.sampled_from(list(Direction)), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_property_every_buffer_addressable_once(self, in_dir, vc):
        """Every (output port, VC) pair reachable from an input has exactly
        one steering code — the structural basis of the non-blocking
        property (one connection, one buffer, one path)."""
        switch = SwitchingModule(RouterConfig())
        seen = {}
        for split in range(8):
            for code in range(4):
                try:
                    target = switch.route(in_dir, Steering(split, code))
                except SteeringError:
                    continue
                assert target not in seen, "two codes hit one buffer"
                seen[target] = (split, code)
        out_ports = switch.reachable(in_dir)
        expected = 0
        for port in out_ports:
            expected += 4 if port is Direction.LOCAL else 8
        assert len(seen) == expected


class TestReducedVcConfigs:
    def test_four_vc_router(self):
        switch = SwitchingModule(RouterConfig(vcs_per_port=4))
        steering = switch.steer_to(Direction.NORTH, Direction.SOUTH, 3)
        assert switch.route(Direction.NORTH, steering) == (Direction.SOUTH, 3)
        with pytest.raises(SteeringError):
            switch.steer_to(Direction.NORTH, Direction.SOUTH, 4)

    def test_one_local_interface(self):
        switch = SwitchingModule(RouterConfig(local_gs_interfaces=1))
        switch.steer_to(Direction.NORTH, Direction.LOCAL, 0)
        with pytest.raises(SteeringError):
            switch.steer_to(Direction.NORTH, Direction.LOCAL, 1)


class TestInventory:
    def test_default_inventory(self, switch):
        inv = switch.inventory()
        assert inv.split_modules == 5
        assert inv.split_targets == 8
        # 4 network ports x 2 halves + 1 local half.
        assert inv.switches_4x4 == 9
        assert inv.switch_width_bits == 34
        assert inv.split_width_bits == 36

    def test_switch_count_scales_with_vcs(self):
        """Section 4.2: the switching module scales linearly with the
        number of VCs."""
        four = SwitchingModule(RouterConfig(vcs_per_port=4)).inventory()
        eight = SwitchingModule(RouterConfig(vcs_per_port=8)).inventory()
        assert eight.switches_4x4 - four.switches_4x4 == 4
