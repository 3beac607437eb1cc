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

The router runs as calls, not kernel processes: each input buffer is a
:class:`BeInput` that takes its next step when a flit, a delay, its
output lock or its output's queue allows it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..network.packet import BeFlit
from ..network.routing import header_direction, rotate_header
from ..network.topology import Direction, NETWORK_DIRECTIONS
from ..sim.kernel import Event, Simulator, fire

__all__ = ["BeInput", "BeRouter"]

_INPUT_KEYS = tuple(NETWORK_DIRECTIONS) + (Direction.LOCAL,)
_LOCAL = Direction.LOCAL


def _no_credit(_vc: int) -> None:
    """The credit wire of an input that no link feeds."""


class BeInput:
    """One BE input buffer (an input port and BE VC) and the wormhole
    input logic behind it, run as calls.

    Per packet the input takes the head flit, routes it and waits the
    route decode delay.  A turn-back marker with header-extension flits
    left strips the spent route word (its credit goes straight back)
    and decodes the next one.  The input then queues for its output's
    lock, puts the rotated head and streams the body flits, each after
    one buffer stage delay, returning each flit's credit once its put is
    done.  After the tail's credit it hands the lock to the next waiter
    and looks for its next head.

    A step that needs a flit takes it from the buffer, or else waits
    and the arrival takes it (:meth:`accept`, :meth:`put`).
    """

    def __init__(self, be_router: "BeRouter", in_dir: Direction, vc: int):
        self.be = be_router
        self.sim = be_router.sim
        self.in_dir = in_dir
        self.vc = vc
        self.depth = be_router.config.be_buffer_depth
        self.buffer: deque = deque()
        #: The step the next arriving flit takes, or None while the
        #: input is busy with a flit, a delay or its output.
        self.waiting: Optional[Callable] = BeInput._head
        # 1 while a taken flit (a head in decode, a body in its stage
        # delay, a flit waiting for its put) still holds its credit.
        self.holding = 0
        # A local injection waiting for room: (event, flit).
        self._writer: Optional[tuple] = None
        # The credit wire upstream, resolved on first traffic (links
        # attach after construction).
        self._credit: Optional[Callable[[int], None]] = None
        # The packet in flight: its head, output, route words left, the
        # output's lock and BE channel (None: the local port), and
        # whether the flit last put was the tail.
        self.head: Optional[BeFlit] = None
        self.out_dir: Optional[Direction] = None
        self.route_ext = 0
        self._lock: Optional[deque] = None
        self._channel = None
        self._tail = False

    # -- arrivals ------------------------------------------------------------

    def accept(self, flit: BeFlit) -> None:
        """Arrival from a split module.  Credits guarantee space for
        every flit that still holds one, so overflow is a protocol
        violation."""
        if len(self.buffer) + self.holding >= self.depth:
            raise RuntimeError(
                f"{self.be.name}: BE input buffer "
                f"{self.in_dir.name}/{self.vc} overflow (credit protocol "
                "violated)")
        step = self.waiting
        if step is None:
            self.buffer.append(flit)
        else:
            self.waiting = None
            step(self, flit)

    def put(self, flit: BeFlit) -> Event:
        """Local injection: an event that is done once the flit is in
        the buffer.  With no room it stays pending until the input
        takes its next flit, which fires it before going on."""
        sim = self.sim
        if len(self.buffer) < self.depth:
            step = self.waiting
            if step is None:
                self.buffer.append(flit)
            else:
                self.waiting = None
                step(self, flit)
            return Event.completed(sim)
        event = Event(sim)
        self._writer = (event, flit)
        return event

    def _want(self, step: Callable) -> None:
        """Take the next flit into ``step``, or wait for it."""
        buffer = self.buffer
        if not buffer:
            self.waiting = step
            return
        flit = buffer.popleft()
        writer = self._writer
        if writer is not None:
            self._writer = None
            buffer.append(writer[1])
            fire(writer[0])
        step(self, flit)

    # -- one packet ----------------------------------------------------------

    def _head(self, head: BeFlit) -> None:
        """A packet's first flit: route it and wait the decode delay."""
        if self._credit is None:
            self._credit = self.be._credit_fn(self.in_dir) or _no_credit
        if not head.is_head:
            raise RuntimeError(
                f"{self.be.name}: body flit at packet boundary on "
                f"{self.in_dir.name}/{self.vc} (wormhole coherency broken)")
        self.holding = 1
        self.head = head
        self.route_ext = head.route_ext
        self.out_dir = self.be._route(self.in_dir, head.word)
        self.sim.defer(self.be.decode_ns, self._decoded)

    def _decoded(self) -> None:
        """The route is decoded: strip a spent route word, or queue for
        the output's lock (its head holds the output)."""
        if self.out_dir is _LOCAL and self.route_ext > 0:
            # Turn-back marker with extension words remaining: the
            # route word is spent, not a delivery.
            self._want(BeInput._extension)
            return
        be = self.be
        index = self.out_dir * be.vcs + self.vc
        lock = be.locks[index]
        if lock is None:
            lock = be.locks[index] = deque()
        self._lock = lock
        lock.append(self)
        if len(lock) == 1:
            self._locked()

    def _extension(self, ext: BeFlit) -> None:
        """Strip the spent word (its buffer place goes back upstream as
        a credit), promote the header-extension flit to be the new
        header, and decide this hop again on the fresh word."""
        self._credit(self.vc)
        be = self.be
        be.route_words_stripped += 1
        self.route_ext = route_ext = self.route_ext - 1
        head = self.head
        self.head = head = BeFlit(ext.word, is_head=True, is_tail=ext.is_tail,
                                  vc=head.vc, packet_id=head.packet_id,
                                  inject_time=head.inject_time,
                                  route_ext=route_ext)
        self.out_dir = be._route(self.in_dir, head.word)
        self.sim.defer(be.decode_ns, self._decoded)

    def _locked(self) -> None:
        """The input holds its output for the whole wormhole packet:
        put the rotated head."""
        out_dir = self.out_dir
        if out_dir is _LOCAL:
            self._channel = None
        else:
            port = self.be.router.output_ports[out_dir]
            if not port.be_tx:
                raise RuntimeError(
                    f"{self.be.name}: BE flit towards {out_dir.name} but "
                    "the router has no BE channels configured")
            self._channel = port.be_tx[self.vc]
        head = self.head
        self._forward(BeFlit(rotate_header(head.word), is_head=True,
                             is_tail=head.is_tail, vc=head.vc,
                             packet_id=head.packet_id,
                             inject_time=head.inject_time,
                             route_ext=self.route_ext))

    def _body(self, flit: BeFlit) -> None:
        """A body flit crosses one buffer stage before its put."""
        self.holding = 1
        self.sim.defer(self.be.stage_ns, self._forward, flit)

    def _forward(self, flit: BeFlit) -> None:
        """Put ``flit`` into the output: the local port assembles it at
        once; a full BE channel calls :meth:`_sent` back when its next
        grant has made room."""
        self._tail = flit.is_tail
        channel = self._channel
        if channel is None:
            self.be.router.assemble_local_be(flit)
        elif not channel.put(flit, self._sent):
            return
        self._sent()

    def _sent(self) -> None:
        """The put is done: return the flit's credit, then stream the
        next body flit, or release the output to the next waiter and
        look for the next head."""
        self.holding = 0
        self._credit(self.vc)
        if not self._tail:
            self._want(BeInput._body)
            return
        lock = self._lock
        lock.popleft()
        if lock:
            lock[0]._locked()
        self._want(BeInput._head)


class BeRouter:
    """5-input/5-output source-routing wormhole router."""

    def __init__(self, sim: Simulator, router, name: str):
        self.sim = sim
        self.router = router
        self.config = router.config
        self.name = name
        vcs = max(1, self.config.be_channels)
        self.vcs = vcs
        timing = self.config.timing
        self.decode_ns = timing.ns(timing.delays.be_route_decode)
        self.stage_ns = timing.ns(timing.delays.be_buffer_stage)
        # One input per (input port, BE VC), indexed by direction then
        # VC: accept() runs per flit per hop, and a list index beats a
        # tuple-keyed dict lookup.
        self.inputs: Dict[Direction, List[BeInput]] = {
            direction: [BeInput(self, direction, vc) for vc in range(vcs)]
            for direction in _INPUT_KEYS
        }
        #: Output locks give wormhole packet coherency: one FIFO of
        #: inputs per (output, BE VC), at ``output * vcs + vc`` and made
        #: on first use, whose head holds the output.  FIFO order is the
        #: fair arbitration of the paper (no input starves).
        self.locks: List[Optional[deque]] = [None] * (len(_INPUT_KEYS) * vcs)
        # Spent chained-route words consumed at their chunk-boundary
        # router (each one frees an upstream credit without being
        # forwarded) — observability for the header-extension path.
        self.route_words_stripped = 0

    def accept(self, in_dir: Direction, flit: BeFlit) -> None:
        """Arrival from a split module into its input buffer."""
        vc = flit.vc if flit.vc < self.vcs else 0
        self.inputs[in_dir][vc].accept(flit)

    def _route(self, in_dir: Direction, header_word: int) -> Direction:
        """Section 5 routing: 2 MSBs pick the output; the way back in is
        the local port."""
        direction = header_direction(header_word)
        if direction is in_dir:  # a network input turning back
            return _LOCAL
        return direction

    def _credit_fn(self, in_dir: Direction):
        """The credit-return wire of an input, or None if no link feeds
        it."""
        if in_dir is Direction.LOCAL:
            return self.router.local_link.return_be_credit
        link = self.router.input_links.get(in_dir)
        if link is not None:
            return link.return_be_credit
        return None
