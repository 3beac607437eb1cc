"""The best-effort router (paper Section 5, Figure 7).

A simple source-routing wormhole router: the two MSBs of the header flit
select one of the four network output ports; selecting the direction the
packet came from routes it to the local port; the header is rotated two
bits per hop.  A route beyond the 15-move capacity of one 32-bit word
travels as chained route words (see :mod:`repro.network.routing`): when
the turn-back marker appears while header-extension flits remain, the
router strips the spent word and promotes the next extension flit to
route the same hop.  Outputs arbitrate fairly between contending inputs and an
input keeps its grant until the tail flit has passed (packet coherency).
Per-hop flow control on the BE channels is credit-based, handled
separately from the GS VC control module.

The BE router is integrated into the GS router (Figure 8): its network
outputs feed the BE transmit channels that share each link through the
link arbiter, and its network inputs are fed by the split modules (three
steering bits stripped, 34 bits remaining).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..network.packet import BeFlit
from ..network.routing import header_direction, rotate_header
from ..network.topology import Direction, NETWORK_DIRECTIONS
from ..sim.kernel import Event, Simulator
from ..sim.resources import Resource, Store

__all__ = ["BeRouter"]

_INPUT_KEYS = tuple(NETWORK_DIRECTIONS) + (Direction.LOCAL,)


class BeRouter:
    """5-input/5-output source-routing wormhole router."""

    def __init__(self, sim: Simulator, router, name: str):
        self.sim = sim
        self.router = router
        self.config = router.config
        self.name = name
        depth = self.config.be_buffer_depth
        vcs = max(1, self.config.be_channels)
        self.vcs = vcs
        # One input buffer per (input port, BE VC), indexed by direction
        # then VC: accept() runs per flit per hop, and a list index beats
        # a tuple-keyed dict lookup.
        self.inputs: Dict[Direction, List[Store]] = {
            direction: [Store(sim, capacity=depth,
                              name=f"{name}.in.{direction.name}.{vc}")
                        for vc in range(vcs)]
            for direction in _INPUT_KEYS
        }
        # Output locks give wormhole packet coherency; FIFO grant order is
        # the fair arbitration of the paper (no input starves).
        self.output_locks: Dict[Tuple[Direction, int], Resource] = {
            (direction, vc): Resource(sim, 1,
                                      name=f"{name}.lock.{direction.name}.{vc}")
            for direction in _INPUT_KEYS for vc in range(vcs)
        }
        # Spent chained-route words consumed at their chunk-boundary
        # router (each one frees an upstream credit without being
        # forwarded) — observability for the header-extension path.
        self.route_words_stripped = 0
        for direction in _INPUT_KEYS:
            for vc in range(vcs):
                sim.process(self._input_process(direction, vc),
                            name=f"{name}.proc.{direction.name}.{vc}")

    def accept(self, in_dir: Direction, flit: BeFlit) -> None:
        """Arrival from a split module (or the local injection path).

        Credits guarantee space; overflow is a protocol violation.
        """
        vc = flit.vc if flit.vc < self.vcs else 0
        store = self.inputs[in_dir][vc]
        if not store.try_put(flit):
            raise RuntimeError(
                f"{self.name}: BE input buffer {in_dir.name}/{vc} overflow "
                "(credit protocol violated)")

    def _route(self, in_dir: Direction, header_word: int) -> Direction:
        """Section 5 routing: 2 MSBs pick the output; the way back in is
        the local port."""
        direction = header_direction(header_word)
        if in_dir.is_network and direction == in_dir:
            return Direction.LOCAL
        return direction

    def _credit_fn(self, in_dir: Direction):
        """Per-flit credit-return callable, resolved once per input
        process after the network is wired (links attach post-init)."""
        if in_dir is Direction.LOCAL:
            return self.router.local_link.return_be_credit
        link = self.router.input_links.get(in_dir)
        if link is not None:
            return link.return_be_credit
        return None

    def _out_put(self, out_dir: Direction, vc: int
                 ) -> Callable[[BeFlit], Event]:
        """The put one packet's flits stream into (fixed per packet): a
        BE channel's queue, or the router's local BE port."""
        if out_dir is Direction.LOCAL:
            return self._put_local
        port = self.router.output_ports[out_dir]
        if not port.be_tx:
            raise RuntimeError(
                f"{self.name}: BE flit towards {out_dir.name} but the "
                "router has no BE channels configured")
        return port.be_tx[min(vc, len(port.be_tx) - 1)].queue.put

    def _put_local(self, flit: BeFlit) -> Event:
        """The local port assembles the flit at once, so the put is
        complete when it returns."""
        self.router.assemble_local_be(flit)
        return Event.completed(self.sim)

    def _input_process(self, in_dir: Direction, vc: int):
        buf = self.inputs[in_dir][vc]
        timing = self.config.timing
        decode_ns = timing.ns(timing.delays.be_route_decode)
        stage_ns = timing.ns(timing.delays.be_buffer_stage)
        timeout = self.sim.timeout
        credit = None
        while True:
            head = yield buf.get()
            if credit is None:
                # Links attach after construction, so the credit wire is
                # resolved on first traffic and reused for every flit.
                credit = self._credit_fn(in_dir) or (lambda _vc: None)
            if not head.is_head:
                raise RuntimeError(
                    f"{self.name}: body flit at packet boundary on "
                    f"{in_dir.name}/{vc} (wormhole coherency broken)")
            out_dir = self._route(in_dir, head.word)
            yield timeout(decode_ns)
            route_ext = head.route_ext
            while out_dir is Direction.LOCAL and route_ext > 0:
                # Turn-back marker with extension words remaining: the
                # route word is spent, not a delivery.  Strip it (its
                # buffer slot goes back upstream as a credit), promote
                # the next header-extension flit to be the new header,
                # and re-decide this hop on the fresh word.
                ext = yield buf.get()
                credit(vc)
                self.route_words_stripped += 1
                route_ext -= 1
                head = BeFlit(ext.word, is_head=True, is_tail=ext.is_tail,
                              vc=head.vc, packet_id=head.packet_id,
                              inject_time=head.inject_time,
                              route_ext=route_ext)
                out_dir = self._route(in_dir, head.word)
                yield timeout(decode_ns)
            lock = self.output_locks[(out_dir, vc)]
            yield lock.request()
            try:
                # The output is fixed for the whole wormhole packet.
                put = self._out_put(out_dir, vc)
                rotated = BeFlit(rotate_header(head.word), is_head=True,
                                 is_tail=head.is_tail, vc=head.vc,
                                 packet_id=head.packet_id,
                                 inject_time=head.inject_time,
                                 route_ext=route_ext)
                yield put(rotated)
                credit(vc)
                tail_seen = head.is_tail
                while not tail_seen:
                    flit = yield buf.get()
                    yield timeout(stage_ns)
                    yield put(flit)
                    credit(vc)
                    tail_seen = flit.is_tail
            finally:
                lock.release()
