"""Flit and packet formats.

On a MANGO link a flit is 39 bits: 5 steering bits (3 split + 2 switch,
stripped stage by stage inside the next router, paper Figure 5) plus a
34-bit body — 32 data bits, one tail/control bit ("last flit") and one
BE-VC bit (unused for GS; selects one of two BE VCs when the BE router is
extended, paper Section 5).

Steering encoding: an input port never routes back out the way it came, so
its split module has eight targets — {four allowed output ports} x {two
4x4-switch halves}.  The 3-bit split code indexes those; the 2-bit switch
code picks the VC inside the half.  BE flits are identified on the link and
consume only the 3-bit split stage before entering the BE router ("three
steering bits have been stripped, and a total of 34 bits remain").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .routing import as_route_words
from .topology import Coord, Direction, NETWORK_DIRECTIONS

__all__ = [
    "FLIT_DATA_BITS",
    "FLIT_BODY_BITS",
    "STEERING_BITS",
    "LINK_FLIT_BITS",
    "SteeringError",
    "Steering",
    "allowed_output_ports",
    "encode_steering",
    "decode_steering",
    "GsFlit",
    "BeFlit",
    "BePacket",
    "make_be_packet",
]

FLIT_DATA_BITS = 32
#: data + tail bit + BE-VC bit
FLIT_BODY_BITS = FLIT_DATA_BITS + 2
#: 3-bit split code + 2-bit switch code
STEERING_BITS = 5
LINK_FLIT_BITS = FLIT_BODY_BITS + STEERING_BITS

_DATA_MASK = (1 << FLIT_DATA_BITS) - 1


class SteeringError(ValueError):
    """Raised for unroutable steering combinations."""


@dataclass(frozen=True)
class Steering:
    """Raw steering bits as they travel on the link."""

    split_code: int   # 3 bits: {allowed output port} x {switch half}
    switch_code: int  # 2 bits: VC within the half

    def __post_init__(self):
        if not 0 <= self.split_code < 8:
            raise SteeringError(f"split code {self.split_code} not 3-bit")
        if not 0 <= self.switch_code < 4:
            raise SteeringError(f"switch code {self.switch_code} not 2-bit")

    @property
    def raw(self) -> int:
        """The 5 steering bits as one integer (split in the MSBs)."""
        return (self.split_code << 2) | self.switch_code


def allowed_output_ports(in_dir: Direction) -> Tuple[Direction, ...]:
    """Output ports reachable from an input port, in split-code order.

    A network input cannot route back out its own direction but can reach
    the local port; the local input reaches all four network ports.
    """
    if in_dir is Direction.LOCAL:
        return NETWORK_DIRECTIONS
    ports = tuple(d for d in NETWORK_DIRECTIONS if d is not in_dir)
    return ports + (Direction.LOCAL,)


def encode_steering(in_dir: Direction, out_port: Direction,
                    out_vc: int, vcs_per_port: int = 8,
                    local_interfaces: int = 4) -> Steering:
    """Steering bits that guide a flit entering on ``in_dir`` to the VC
    buffer ``out_vc`` at ``out_port`` (computed by the *upstream* router's
    connection table or the source NA)."""
    ports = allowed_output_ports(in_dir)
    if out_port not in ports:
        raise SteeringError(
            f"input {in_dir.name} cannot reach output {out_port.name}")
    limit = (local_interfaces if out_port is Direction.LOCAL
             else vcs_per_port)
    if not 0 <= out_vc < limit:
        raise SteeringError(
            f"VC {out_vc} out of range for {out_port.name} (< {limit})")
    half, lane = divmod(out_vc, 4)
    split_code = ports.index(out_port) * 2 + half
    return Steering(split_code, lane)


def decode_steering(in_dir: Direction, steering: Steering,
                    vcs_per_port: int = 8,
                    local_interfaces: int = 4
                    ) -> Tuple[Direction, int]:
    """Inverse of :func:`encode_steering`: performed by the split module
    (3 bits) and the 4x4 switch (2 bits) of the receiving router."""
    ports = allowed_output_ports(in_dir)
    port_index, half = divmod(steering.split_code, 2)
    if port_index >= len(ports):
        raise SteeringError(
            f"split code {steering.split_code} targets a non-existent port "
            f"from input {in_dir.name}")
    out_port = ports[port_index]
    out_vc = half * 4 + steering.switch_code
    limit = (local_interfaces if out_port is Direction.LOCAL
             else vcs_per_port)
    if out_vc >= limit:
        raise SteeringError(
            f"decoded VC {out_vc} out of range for {out_port.name}")
    return out_port, out_vc


_flit_ids = itertools.count()


@dataclass(slots=True)
class GsFlit:
    """A flit on a GS connection: header-less 32-bit payload.

    The tail bit is available to the network adapters for message framing
    (it is the link's control bit, unused by the GS routers themselves).
    """

    payload: int
    connection_id: int = -1
    seq: int = -1
    last: bool = False
    inject_time: float = -1.0
    flit_id: int = field(default_factory=lambda: next(_flit_ids))
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.payload &= _DATA_MASK


@dataclass(slots=True)
class BeFlit:
    """A flit of a connection-less BE packet.

    ``route_ext`` is meaningful on the head flit only: the number of
    chained route words (header-extension flits) still travelling behind
    the header.  Routers strip extension flits as their route words are
    spent, so a delivered packet always carries ``route_ext == 0``.
    """

    word: int
    is_head: bool = False
    is_tail: bool = False
    vc: int = 0
    packet_id: int = -1
    inject_time: float = -1.0
    route_ext: int = 0
    flit_id: int = field(default_factory=lambda: next(_flit_ids))

    def __post_init__(self):
        self.word &= _DATA_MASK
        if self.vc not in (0, 1):
            raise ValueError("the BE-VC bit selects one of two BE VCs")


_packet_ids = itertools.count()


@dataclass(slots=True)
class BePacket:
    """An assembled BE packet: header word plus payload words."""

    header: int
    words: List[int]
    packet_id: int
    src: Optional[Coord] = None
    inject_time: float = -1.0
    arrive_time: float = -1.0

    @property
    def n_flits(self) -> int:
        return 1 + len(self.words)

    @property
    def latency(self) -> float:
        return self.arrive_time - self.inject_time


def make_be_packet(header: Union[int, Sequence[int]], words: List[int],
                   vc: int = 0, inject_time: float = -1.0,
                   src: Optional[Coord] = None,
                   packet_id: Optional[int] = None) -> List[BeFlit]:
    """Build the flit sequence of a variable-length BE packet.

    ``header`` is a single 32-bit route word or a chained route-word
    sequence (see :mod:`repro.network.routing`); extension words travel
    as header-extension flits directly behind the header.  The control
    bit marks the last flit.  An empty payload is legal (the final
    header word is then also the tail).

    ``packet_id`` tags every flit; a network passes its own run-relative
    id (the key its trace records carry), and a standalone caller that
    passes none gets a fresh one from a process-global counter.
    """
    route_words = as_route_words(header)
    extensions = route_words[1:]
    if packet_id is None:
        packet_id = next(_packet_ids)
    flits = [BeFlit(route_words[0], is_head=True,
                    is_tail=not (words or extensions), vc=vc,
                    packet_id=packet_id, inject_time=inject_time,
                    route_ext=len(extensions))]
    for index, ext_word in enumerate(extensions):
        flits.append(BeFlit(ext_word,
                            is_tail=(not words
                                     and index == len(extensions) - 1),
                            vc=vc, packet_id=packet_id,
                            inject_time=inject_time))
    for index, word in enumerate(words):
        flits.append(BeFlit(word, is_tail=(index == len(words) - 1), vc=vc,
                            packet_id=packet_id, inject_time=inject_time))
    return flits
