"""The programming interface (paper Sections 3, 4.1, 5).

GS connections are set up by programming steering and control-channel bits
into the routers **via the BE router**: the interface is an extension on
port 0, the local port.  A config packet is an ordinary BE packet routed to
the target router's local port whose first payload word carries a config
magic; the router consumes it instead of handing it to the NA.

Word formats (32-bit words):

``command word``::

    [31:24] 0xC0 magic
    [23:20] opcode     (1 = setup, 2 = teardown, 3 = ack)
    [19:8]  sequence   (matches acks to requests)
    [7:0]   flags      (bit 0: ack requested;
                        bits [7:4]: extra ack-route words beyond the
                        first — 0 for routes of at most 15 hops, so the
                        legacy single-word layout is byte-identical)

``entry word`` (setup/teardown)::

    [29:27] out_port   (Direction)
    [26:24] out_vc
    [23]    has_steering
    [22:20] steer split code
    [19:18] steer switch code
    [17:15] unlock_dir (Direction)
    [14:12] unlock_vc
    [11:0]  connection id

``route words`` (present when an ack is requested): the chained
source-route header the ack packet should travel back on — one 32-bit
word per 15 hops (see :mod:`repro.network.routing`), so GS connections
can be programmed (and acknowledged) across any admissible path length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..network.packet import Steering, make_be_packet
from ..network.routing import MAX_ROUTE_WORDS, RouteError, as_route_words
from ..network.topology import Direction
from .connection_table import TableEntry

__all__ = [
    "CONFIG_MAGIC",
    "OP_SETUP",
    "OP_TEARDOWN",
    "OP_ACK",
    "ConfigCommand",
    "ConfigFormatError",
    "pack_command",
    "unpack_command",
    "ProgrammingInterface",
]

CONFIG_MAGIC = 0xC0
OP_SETUP = 1
OP_TEARDOWN = 2
OP_ACK = 3

_FLAG_ACK = 0x01


class ConfigFormatError(ValueError):
    """Raised for malformed config packets."""


@dataclass(frozen=True)
class ConfigCommand:
    """Decoded content of a config packet."""

    opcode: int
    seq: int
    want_ack: bool
    out_port: Optional[Direction] = None
    out_vc: int = 0
    steering: Optional[Steering] = None
    unlock_dir: Optional[Direction] = None
    unlock_vc: int = 0
    connection_id: int = 0
    #: A single int for legacy one-word routes, a tuple for chained ones.
    ack_route: Optional[Union[int, Tuple[int, ...]]] = None


def _route_words(ack_route) -> Optional[List[int]]:
    """Normalise an ack route (int or word sequence) to a word list."""
    if ack_route is None:
        return None
    try:
        words = as_route_words(ack_route)
    except RouteError as error:
        raise ConfigFormatError(str(error)) from None
    if len(words) > MAX_ROUTE_WORDS:
        raise ConfigFormatError(
            f"ack route of {len(words)} words exceeds the "
            f"{MAX_ROUTE_WORDS}-word header-chain cap")
    return words


def _command_word(opcode: int, seq: int, route_words: Optional[List[int]]
                  ) -> int:
    if not 0 <= seq < (1 << 12):
        raise ConfigFormatError(f"sequence {seq} does not fit in 12 bits")
    flags = 0
    if route_words is not None:
        flags = _FLAG_ACK | ((len(route_words) - 1) << 4)
    return (CONFIG_MAGIC << 24) | (opcode << 20) | (seq << 8) | flags


def _entry_word(out_port: Direction, out_vc: int,
                steering: Optional[Steering], unlock_dir: Direction,
                unlock_vc: int, connection_id: int) -> int:
    if not 0 <= connection_id < (1 << 12):
        raise ConfigFormatError(
            f"connection id {connection_id} does not fit in 12 bits")
    word = (int(out_port) << 27) | (out_vc << 24)
    if steering is not None:
        word |= (1 << 23) | (steering.split_code << 20) \
            | (steering.switch_code << 18)
    word |= (int(unlock_dir) << 15) | (unlock_vc << 12) | connection_id
    return word


def is_config_word(word: int) -> bool:
    return (word >> 24) & 0xFF == CONFIG_MAGIC


def is_router_command(word: int) -> bool:
    """True for words the *router* consumes (setup/teardown); acks travel
    on to the NA of the requester."""
    return is_config_word(word) and ((word >> 20) & 0xF) in (OP_SETUP,
                                                             OP_TEARDOWN)


def pack_command(opcode: int, seq: int, out_port: Direction = None,
                 out_vc: int = 0, steering: Optional[Steering] = None,
                 unlock_dir: Direction = Direction.LOCAL,
                 unlock_vc: int = 0, connection_id: int = 0,
                 ack_route: Optional[Union[int, Sequence[int]]] = None
                 ) -> List[int]:
    """Payload words of a config packet.

    ``ack_route`` is a single route word or a chained route-word
    sequence; a one-word route packs byte-identically to the legacy
    single-word format.
    """
    if opcode not in (OP_SETUP, OP_TEARDOWN, OP_ACK):
        raise ConfigFormatError(f"unknown opcode {opcode}")
    route_words = _route_words(ack_route)
    words = [_command_word(opcode, seq, route_words)]
    if opcode in (OP_SETUP, OP_TEARDOWN):
        if out_port is None:
            raise ConfigFormatError("setup/teardown needs an output port")
        words.append(_entry_word(out_port, out_vc, steering, unlock_dir,
                                 unlock_vc, connection_id))
    if route_words is not None:
        words.extend(route_words)
    return words


def unpack_command(words: List[int]) -> ConfigCommand:
    """Decode a config packet's payload words."""
    if not words:
        raise ConfigFormatError("empty config packet")
    command = words[0]
    if not is_config_word(command):
        raise ConfigFormatError(f"bad config magic in {command:#010x}")
    opcode = (command >> 20) & 0xF
    seq = (command >> 8) & 0xFFF
    want_ack = bool(command & _FLAG_ACK)
    index = 1
    fields = {}
    if opcode in (OP_SETUP, OP_TEARDOWN):
        if len(words) <= index:
            raise ConfigFormatError("setup/teardown missing entry word")
        entry = words[index]
        index += 1
        steering = None
        if entry & (1 << 23):
            steering = Steering((entry >> 20) & 0x7, (entry >> 18) & 0x3)
        fields = dict(
            out_port=Direction((entry >> 27) & 0x7),
            out_vc=(entry >> 24) & 0x7,
            steering=steering,
            unlock_dir=Direction((entry >> 15) & 0x7),
            unlock_vc=(entry >> 12) & 0x7,
            connection_id=entry & 0xFFF,
        )
    elif opcode != OP_ACK:
        raise ConfigFormatError(f"unknown opcode {opcode}")
    ack_route = None
    if want_ack:
        n_route_words = 1 + ((command >> 4) & 0xF)
        if len(words) < index + n_route_words:
            raise ConfigFormatError(
                f"ack requested but only {len(words) - index} of "
                f"{n_route_words} route words present")
        if n_route_words == 1:
            ack_route = words[index]
        else:
            ack_route = tuple(words[index:index + n_route_words])
    return ConfigCommand(opcode=opcode, seq=seq, want_ack=want_ack,
                         ack_route=ack_route, **fields)


class ProgrammingInterface:
    """Executes config packets against the router's connection table."""

    def __init__(self, sim, router, name: str):
        self.sim = sim
        self.router = router
        self.name = name
        self.commands_executed = 0
        self.acks_sent = 0

    def execute(self, words: List[int]) -> ConfigCommand:
        """Apply a config packet (already assembled by the local BE port)."""
        command = unpack_command(words)
        if command.opcode == OP_SETUP:
            entry = TableEntry(connection_id=command.connection_id,
                               steering=command.steering,
                               unlock_dir=command.unlock_dir,
                               unlock_vc=command.unlock_vc)
            self.router.table.program(command.out_port, command.out_vc,
                                      entry)
        elif command.opcode == OP_TEARDOWN:
            self.router.table.clear(command.out_port, command.out_vc)
        self.commands_executed += 1
        self.router.counters.bump("config_commands")
        if command.want_ack and command.opcode != OP_ACK:
            self._send_ack(command)
        return command

    def _send_ack(self, command: ConfigCommand) -> None:
        words = pack_command(OP_ACK, command.seq)
        flits = make_be_packet(command.ack_route, words,
                               inject_time=self.sim.now,
                               packet_id=next(self.router.packet_ids))
        self.sim.process(self.router.inject_local_be(flits),
                         name=f"{self.name}.ack{command.seq}")
        self.acks_sent += 1
