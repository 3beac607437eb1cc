"""The non-blocking switching module (paper Section 4.2, Figure 5).

The switching module steers incoming flits to any VC buffer at any output
port *without any arbitration*: because a VC buffer belongs to exactly one
connection, at most one input ever routes to a given buffer, so no
congestion can occur inside the switch and its latency is constant.

Structure per input port: a **split** stage consumes the first three
steering bits and directs the flit to one of two 4x4 switches at each
reachable output port (or to the BE router); each **4x4 switch** consumes
two more steering bits to select one of four VC buffers.  Steering bits are
stripped as they are used.

This module is the structural model: it performs the decode each hop (so
the Figure 5 logic really executes) and reports the mux inventory used by
the area model.  The switching module "scales linearly with the number of
VCs" — verified in `benchmarks/bench_scaling.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..network.packet import (
    Steering,
    SteeringError,
    allowed_output_ports,
    decode_steering,
    encode_steering,
)
from ..network.topology import Direction
from .config import RouterConfig

__all__ = ["SwitchingModule", "SwitchInventory"]


@dataclass(frozen=True)
class SwitchInventory:
    """Structural cell counts for the area model."""

    split_modules: int       # one per input port
    split_targets: int       # fan-out of each split
    switches_4x4: int        # two per output port half in use
    switch_width_bits: int   # body bits entering a 4x4 switch
    split_width_bits: int    # body + 2 remaining steering bits


class SwitchingModule:
    """Per-router instance of the Figure 5 fabric."""

    def __init__(self, config: RouterConfig):
        self.config = config
        # Steering bits are static per connection per hop, so the decode
        # (which rebuilds the reachable-port tuple every call) is cached;
        # the Figure 5 structure is validated on the first flit of each
        # (input, steering) pair.
        self._decode_cache: Dict[tuple, Tuple[Direction, int]] = {}

    def route(self, in_dir: Direction, steering: Steering
              ) -> Tuple[Direction, int]:
        """Decode the steering bits of a flit entering on ``in_dir``.

        Returns the (output port, VC buffer index) the split + 4x4 stages
        deliver to.  Raises :class:`SteeringError` for codes that address
        hardware that does not exist.
        """
        key = (in_dir, steering)
        decoded = self._decode_cache.get(key)
        if decoded is None:
            decoded = decode_steering(
                in_dir, steering, vcs_per_port=self.config.vcs_per_port,
                local_interfaces=self.config.local_gs_interfaces)
            self._decode_cache[key] = decoded
        return decoded

    def steer_to(self, in_dir: Direction, out_port: Direction, out_vc: int
                 ) -> Steering:
        """Steering bits an upstream node must append so that a flit
        entering this router on ``in_dir`` lands in (out_port, out_vc)."""
        return encode_steering(
            in_dir, out_port, out_vc, vcs_per_port=self.config.vcs_per_port,
            local_interfaces=self.config.local_gs_interfaces)

    def reachable(self, in_dir: Direction) -> Tuple[Direction, ...]:
        return allowed_output_ports(in_dir)

    def inventory(self) -> SwitchInventory:
        """Cell inventory for the 5x5 fabric (area model input)."""
        cfg = self.config
        halves_per_port = (cfg.vcs_per_port + 3) // 4
        # 4 network output ports carry `halves_per_port` switches each;
        # the local output needs switches for its GS interfaces.
        local_halves = (cfg.local_gs_interfaces + 3) // 4
        return SwitchInventory(
            split_modules=5,
            split_targets=8,
            switches_4x4=4 * halves_per_port + local_halves,
            switch_width_bits=cfg.flit_width + 2,
            split_width_bits=cfg.flit_width + 4,
        )
