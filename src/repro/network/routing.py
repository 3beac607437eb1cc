"""Source routing for the BE router (paper Section 5), with chained
route headers for full-diameter traffic on large meshes.

A BE packet's header flit is a 32-bit word holding the route as 2-bit
direction codes, most-significant first.  At each hop the router reads the
two MSBs, rotates the header left by two bits, and forwards.  Choosing the
direction the packet *came from* means "deliver to the local port", so a
route is the list of moves followed by the opposite of the last move.  One
32-bit word therefore carries at most 15 moves (:data:`MAX_HOPS`).

Longer routes spill into **chained route words** — header-extension flits
that travel directly behind the header.  Every word uses the unchanged
single-word format (up to 15 moves, terminated by the turn-back marker);
what distinguishes "deliver here" from "continue with the next word" is
whether extension words remain behind the header.  When a router sees the
turn-back marker while extensions remain, it strips the spent route word
and promotes the next extension flit to be the new header for the same
hop decision.  Routes of at most 15 hops still use exactly one word, so
legacy headers are bit-for-bit identical.  A chain is capped at
:data:`MAX_ROUTE_WORDS` words, giving :func:`max_route_hops` hops — far
beyond the 30-hop diameter of a 16x16 mesh.

XY routing (x first, then y) is used to build routes; it is deadlock-free
for wormhole switching in a mesh.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .topology import Coord, Direction, NETWORK_DIRECTIONS

__all__ = [
    "MAX_HOPS",
    "MAX_ROUTE_WORDS",
    "RouteError",
    "as_route_words",
    "max_route_hops",
    "xy_moves",
    "encode_source_route",
    "encode_route",
    "decode_route",
    "rotate_header",
    "header_direction",
    "walk_route",
    "reverse_moves",
    "route_for",
    "route_words_for",
]

#: Maximum number of moves one 32-bit route word supports (15 move codes +
#: the "turn back" marker = 16 two-bit fields).
MAX_HOPS = 15

#: Maximum number of chained route words in one header; bounds the header
#: overhead of a packet and therefore the admission hop cap.
MAX_ROUTE_WORDS = 8

_HEADER_MASK = 0xFFFFFFFF


class RouteError(ValueError):
    """Raised for unroutable or over-long paths."""


def max_route_hops() -> int:
    """The longest route the chained-header encoder can express."""
    return MAX_ROUTE_WORDS * MAX_HOPS


def as_route_words(header: Union[int, Sequence[int]]) -> List[int]:
    """Normalise a route header (single word or word sequence) to a
    non-empty word list — the one place that owns the polymorphism."""
    words = [header] if isinstance(header, int) else list(header)
    if not words:
        raise RouteError("a route-word chain needs at least one word")
    return words


def xy_moves(src: Coord, dst: Coord) -> List[Direction]:
    """Dimension-ordered (X then Y) move list from ``src`` to ``dst``."""
    if src == dst:
        raise RouteError(
            "same-tile BE traffic does not traverse the network; the "
            "adapter loops it back locally (see DESIGN.md)")
    moves: List[Direction] = []
    x, y = src
    step_x = Direction.EAST if dst.x > x else Direction.WEST
    while x != dst.x:
        moves.append(step_x)
        x += step_x.delta[0]
    step_y = Direction.SOUTH if dst.y > y else Direction.NORTH
    while y != dst.y:
        moves.append(step_y)
        y += step_y.delta[1]
    return moves


def encode_source_route(moves: List[Direction]) -> int:
    """Pack a move list into a single 32-bit header word.

    The code after the last move is the opposite of the last move — the
    "route back where you came from" convention that triggers local
    delivery at the destination router (or, when extension words follow,
    promotion of the next route word).
    """
    if not moves:
        raise RouteError("a source route needs at least one hop")
    if len(moves) > MAX_HOPS:
        raise RouteError(
            f"route of {len(moves)} hops exceeds the {MAX_HOPS}-hop limit "
            "of a 32-bit header")
    for move in moves:
        if not move.is_network:
            raise RouteError("source routes contain network directions only")
    header = 0
    shift = 30
    for move in moves:
        header |= int(move) << shift
        shift -= 2
    header |= int(moves[-1].opposite) << shift
    return header & _HEADER_MASK


def encode_route(moves: List[Direction]) -> List[int]:
    """Pack a move list of any admissible length into a route-word chain.

    Routes of at most :data:`MAX_HOPS` moves produce exactly one word,
    identical to :func:`encode_source_route`; longer routes are chunked
    15 moves per word.  An immediate reversal (a move followed by its
    opposite) cannot be expressed — the 2-bit scheme reads it as the
    turn-back marker — and is rejected; XY routes never contain one.
    """
    if not moves:
        raise RouteError("a source route needs at least one hop")
    if len(moves) > max_route_hops():
        raise RouteError(
            f"route of {len(moves)} hops exceeds the {max_route_hops()}-hop "
            f"capacity of a {MAX_ROUTE_WORDS}-word header chain")
    for prev, move in zip(moves, moves[1:]):
        if move is prev.opposite:
            raise RouteError(
                "immediate reversal in a source route reads as the "
                "turn-back marker and cannot be encoded")
    return [encode_source_route(moves[index:index + MAX_HOPS])
            for index in range(0, len(moves), MAX_HOPS)]


def decode_route(words: Sequence[int]) -> List[Direction]:
    """Recover the move list from a route-word chain (inverse of
    :func:`encode_route`).

    Mirrors the router walk: within a word, the first code equal to the
    opposite of the previous move is the turn-back marker — end of the
    word (or of the route, in the final word).  A word whose sixteen
    fields never reach a marker is malformed: a router would cycle on it
    forever.
    """
    if not words:
        raise RouteError("empty route-word chain")
    moves: List[Direction] = []
    prev: Union[Direction, None] = None
    for word in words:
        word &= _HEADER_MASK
        exhausted = False
        for shift in range(30, -2, -2):
            code = Direction((word >> shift) & 0x3)
            if prev is not None and code is prev.opposite:
                exhausted = True
                break
            moves.append(code)
            prev = code
        if not exhausted:
            raise RouteError(
                f"route word {word:#010x} has no turn-back marker "
                "(undeliverable)")
    return moves


def rotate_header(header: int) -> int:
    """Rotate the header left by two bits (done by each router)."""
    header &= _HEADER_MASK
    return ((header << 2) | (header >> 30)) & _HEADER_MASK


def header_direction(header: int) -> Direction:
    """The 2-bit direction code in the header MSBs."""
    # NETWORK_DIRECTIONS is in code order; indexing it skips the enum
    # constructor, which costs two Python calls per routed head.
    return NETWORK_DIRECTIONS[(header >> 30) & 0x3]


def walk_route(src: Coord, header: Union[int, Sequence[int]],
               max_hops: Optional[int] = None) -> Tuple[Coord, int]:
    """Simulate the header walk: (delivery tile, hops taken).

    ``header`` is a single 32-bit word or a route-word chain.  Mirrors
    the router logic: at each tile, if the header directs back the way
    the packet came, the packet is delivered locally — unless extension
    words remain, in which case the spent word is stripped and the next
    word routes the same hop decision.

    ``max_hops`` defaults to the chain's actual capacity
    (``MAX_HOPS * n_words``), so a malformed header errors at the tile
    where a well-formed one could no longer deliver, instead of walking
    off the route first.
    """
    words = as_route_words(header)
    if max_hops is None:
        max_hops = MAX_HOPS * len(words)
    here = src
    came_from = None  # direction code that would send it back
    hops = 0
    index = 0
    current = words[0]
    while True:
        direction = header_direction(current)
        if came_from is not None and direction == came_from:
            if index + 1 < len(words):
                # Spent route word: promote the next extension word and
                # re-decide this hop (routers do the same double decode).
                index += 1
                current = words[index]
                continue
            return here, hops
        if hops >= max_hops:
            raise RouteError(f"route from {src} did not deliver within "
                             f"{max_hops} hops")
        here = here.step(direction)
        came_from = direction.opposite
        current = rotate_header(current)
        hops += 1


def reverse_moves(moves: List[Direction]) -> List[Direction]:
    """The return path of a route (reversed, each move opposed)."""
    return [move.opposite for move in reversed(moves)]


def route_for(src: Coord, dst: Coord) -> int:
    """Single-word header for the XY route from ``src`` to ``dst``
    (routes of at most :data:`MAX_HOPS` hops)."""
    return encode_source_route(xy_moves(src, dst))


def route_words_for(src: Coord, dst: Coord) -> List[int]:
    """Route-word chain for the XY route from ``src`` to ``dst``; one
    word for routes of at most :data:`MAX_HOPS` hops, chained beyond."""
    return encode_route(xy_moves(src, dst))
