"""Network adapters (paper Section 3, Figure 1).

Each IP core connects to the network through a network adapter (NA): it
packetizes transactions, terminates GS connections on the local port's
dedicated GS interfaces, injects/receives BE packets, and performs the
synchronization between the clocked core and the clockless network — the
GALS boundary.  OCP-style read/write transactions ride on top
(:mod:`repro.network.ocp`).

The NA runs on calls, like the VC slots it feeds: no kernel process
moves its data, and its one ``Store`` is the BE inbox.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, Generator, List, Optional

from ..circuits.sharebox import Sharebox
from ..core.programming import OP_ACK, is_config_word
from ..network.packet import BePacket, GsFlit, Steering, make_be_packet
from ..network.routing import route_words_for
from ..network.topology import Coord
from ..sim.kernel import Simulator
from ..sim.resources import Store

__all__ = ["ClockDomain", "GsTxEndpoint", "NetworkAdapter"]

#: Flits a clocked NA's synchronizer FIFO holds per GS interface.
SYNC_FIFO_DEPTH = 4


class ClockDomain:
    """The IP core's clock: injection/consumption happen on edges, and
    data entering the clock domain pays a synchronizer latency."""

    def __init__(self, period_ns: float, sync_cycles: int = 2,
                 offset_ns: float = 0.0):
        if period_ns <= 0:
            raise ValueError("clock period must be positive")
        if sync_cycles < 1:
            raise ValueError("a synchronizer is at least one cycle")
        self.period_ns = period_ns
        self.sync_cycles = sync_cycles
        self.offset_ns = offset_ns

    @property
    def frequency_mhz(self) -> float:
        return 1e3 / self.period_ns

    @property
    def sync_latency_ns(self) -> float:
        return self.sync_cycles * self.period_ns

    def next_edge(self, now: float) -> float:
        """The wait from ``now`` to the next clock edge strictly after it.

        When ``now`` sits on an edge, the quotient can round down onto
        that same edge (a 3.3 ns clock at 9.899999999999999 ns); the
        edge after it is taken then, so the wait is never zero.
        """
        edges = math.floor((now - self.offset_ns) / self.period_ns) + 1
        target = edges * self.period_ns + self.offset_ns
        if target <= now:
            target = (edges + 1) * self.period_ns + self.offset_ns
        return target - now


class GsTxEndpoint:
    """Source end of a GS connection: one of the NA's local GS interfaces.

    Holds the connection's first-hop steering bits and a sharebox (a
    window of 1) that the first router's VC control module unlocks — the
    inherent end-to-end flow control of MANGO reaches all the way into
    the NA.

    The endpoint runs as calls on a plain queue: :meth:`step` waits for
    the next clock edge (clocked NA only), then for the window, sends
    the head flit and steps again one link cycle later.  It idles on an
    empty queue until :meth:`NetworkAdapter.gs_send` steps it.
    """

    def __init__(self, adapter: NetworkAdapter, name: str):
        self.adapter = adapter
        self.sim = adapter.sim
        self.name = name
        self.queue: deque = deque()  # application-side queue
        self.flow = Sharebox(self.sim, name=f"{name}.flow")
        self.steering: Optional[Steering] = None
        self.connection_id: Optional[int] = None
        # False until the NA's start call takes the first step.
        self.idle = False
        self._cycle_ns = adapter.router.config.timing.link_cycle_ns

    @property
    def bound(self) -> bool:
        return self.steering is not None

    def step(self) -> None:
        """Take the next queued flit to the clock edge, or go idle."""
        if not self.queue:
            self.idle = True
            return
        self.idle = False
        clock = self.adapter.clock
        if clock is None:
            self._send()
        else:
            self.sim.defer(clock.next_edge(self.sim.now), self._send)

    def _send(self, _event=None) -> None:
        """Send the head flit once the window has a free place; a wait
        is a callback on the window's event."""
        if not self.flow.ready:
            self.flow.wait_ready().add_callback(self._send)
            return
        flit = self.queue.popleft()
        while not self.bound:
            # Stragglers queued before an unbind are dropped, one per
            # clock edge or, unclocked, all in this loop; the manager
            # drains connections before closing them.
            self.adapter.dropped_tx_flits += 1
            if self.adapter.clock is not None or not self.queue:
                self.step()
                return
            flit = self.queue.popleft()
        self.flow.admit()
        self.adapter.local_link.transmit_inject(self.steering, flit)
        self.sim.defer(self._cycle_ns, self.step)


class NetworkAdapter:
    """One tile's NA: GS endpoints + BE interface + GALS synchronization.

    GS flits are received by callback: one bound receive method is the
    ``on_buffered`` hook of every local VC slot, and the slot passes
    itself (its ``vc`` is the interface).  An unclocked core takes the
    flit the moment it is buffered.  A clocked core moves it into a
    small synchronizer FIFO that pipelines the crossing (throughput one
    flit per clock edge, latency the synchronizer depth) and
    back-pressures the network while it is full.  BE packets arrive from
    the router's local BE port by call (:meth:`receive_be`).
    """

    def __init__(self, sim: Simulator, coord: Coord, router, local_link,
                 clock: Optional[ClockDomain] = None):
        self.sim = sim
        self.coord = coord
        self.router = router
        self.local_link = local_link
        self.clock = clock
        self.name = f"NA{coord.x}.{coord.y}"
        config = router.config
        self.tx_endpoints: List[GsTxEndpoint] = [
            GsTxEndpoint(self, name=f"{self.name}.tx{i}")
            for i in range(config.local_gs_interfaces)
        ]
        self._rx_bound: Dict[int, Callable] = {}
        self._rx_slots = router.local_output.slots
        self.be_inbox: Store = Store(sim, name=f"{self.name}.be_inbox")
        self._ack_handlers: List[Callable[[int], None]] = []
        self._packet_handlers: List[Callable[[BePacket], Optional[bool]]] = []
        self.be_packets_sent = 0
        self.be_packets_received = 0
        self.dropped_rx_flits = 0
        self.dropped_tx_flits = 0
        local_link.attach_adapter(self)
        # Flits queued before the run leave at t=0, NA by NA in
        # construction order and each NA's endpoints in interface order.
        sim.defer(0.0, self._start_tx)
        if clock is None:
            receive = self._rx_now
        else:
            receive = self._rx_sync
            # Per interface: the synchronizer FIFO of (stamp, flit), and
            # the stamped flit the NA holds while the FIFO is full.
            self._sync_fifos = [deque() for _ in self._rx_slots]
            self._sync_held = [None] * len(self._rx_slots)
        for slot in self._rx_slots:
            slot.on_buffered = receive

    # -- GS transmit -----------------------------------------------------------

    def bind_tx(self, iface: int, steering: Steering,
                connection_id: int) -> GsTxEndpoint:
        """Attach a new connection's first hop to a local GS interface."""
        endpoint = self.tx_endpoints[iface]
        if endpoint.bound:
            raise ValueError(f"{endpoint.name} already bound to connection "
                             f"{endpoint.connection_id}")
        endpoint.steering = steering
        endpoint.connection_id = connection_id
        return endpoint

    def unbind_tx(self, iface: int) -> None:
        endpoint = self.tx_endpoints[iface]
        endpoint.steering = None
        endpoint.connection_id = None

    def release_tx(self, iface: int) -> None:
        """Unlock toggle from the router's VC control module."""
        self.tx_endpoints[iface].flow.release()

    def gs_send(self, iface: int, flit: GsFlit) -> None:
        """Queue a flit on a bound connection (application side)."""
        endpoint = self.tx_endpoints[iface]
        if not endpoint.bound:
            raise ValueError(f"{endpoint.name} is not bound to a connection")
        if flit.inject_time < 0:
            flit.inject_time = self.sim.now
        flit.connection_id = endpoint.connection_id
        endpoint.queue.append(flit)
        if endpoint.idle:
            endpoint.step()

    def _start_tx(self) -> None:
        for endpoint in self.tx_endpoints:
            endpoint.step()

    # -- GS receive --------------------------------------------------------------

    def bind_rx(self, iface: int, callback: Callable[[GsFlit, float], None]
                ) -> None:
        """Deliver flits arriving on a local GS interface to ``callback``."""
        if iface in self._rx_bound:
            raise ValueError(f"{self.name}: rx interface {iface} already "
                             "bound")
        self._rx_bound[iface] = callback

    def unbind_rx(self, iface: int) -> None:
        self._rx_bound.pop(iface, None)

    def _deliver_rx(self, iface: int, flit: GsFlit) -> None:
        callback = self._rx_bound.get(iface)
        if callback is None:
            self.dropped_rx_flits += 1
        else:
            tracer = self.router.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now, self.name, "eject",
                            flit=f"c{flit.connection_id}.{flit.payload}",
                            cls="gs", iface=iface)
            callback(flit, self.sim.now)

    def _rx_now(self, slot) -> None:
        """Unclocked core: deliver the flit the slot just buffered."""
        self._deliver_rx(slot.vc, slot.pop())

    def _rx_sync(self, slot) -> None:
        """Clocked core: take the slot's buffered flit, stamped with its
        arrival, into the synchronizer FIFO, or hold it while the FIFO
        is full (the next flit then waits in the slot).  A flit entering
        an empty FIFO starts the wait for a clock edge."""
        iface = slot.vc
        if self._sync_held[iface] is not None or slot.buffered is None:
            return
        item = (self.sim.now, slot.pop())
        fifo = self._sync_fifos[iface]
        if len(fifo) >= SYNC_FIFO_DEPTH:
            self._sync_held[iface] = item
            return
        fifo.append(item)
        if len(fifo) == 1:
            self.sim.defer(self.clock.next_edge(self.sim.now),
                           self._rx_sync_edge, iface)

    def _rx_sync_edge(self, iface: int) -> None:
        """A clock edge with flits in the FIFO: the head leaves once the
        synchronizer latency has passed since its stamp.  Taking it
        moves the held flit into the FIFO and pulls the next buffered
        flit from the slot, before the head is delivered."""
        fifo = self._sync_fifos[iface]
        arrival, flit = fifo[0]
        if self.sim.now - arrival >= self.clock.sync_latency_ns:
            fifo.popleft()
            held = self._sync_held[iface]
            if held is not None:
                fifo.append(held)
                self._sync_held[iface] = None
                self._rx_sync(self._rx_slots[iface])
            self._deliver_rx(iface, flit)
        if fifo:
            self.sim.defer(self.clock.next_edge(self.sim.now),
                           self._rx_sync_edge, iface)

    # -- BE interface -------------------------------------------------------------

    def send_be(self, dst: Coord, words: List[int], vc: int = 0
                ) -> Generator:
        """Sub-generator: inject one BE packet routed to ``dst``.

        ``vc`` selects the BE VC explicitly, or pass ``"adaptive"`` to
        let the NA pick the emptier VC at the first hop — the "adaptive
        VC allocation" extension the spare header bit enables (paper
        Section 5).  Same-tile traffic is looped back locally (the 2-bit
        rotation scheme cannot address the own local port, DESIGN.md §4).
        """
        if dst == self.coord:
            packet = BePacket(header=0, words=list(words),
                              packet_id=-1, src=self.coord,
                              inject_time=self.sim.now,
                              arrive_time=self.sim.now)
            self._dispatch_packet(packet)
            return
        header = route_words_for(self.coord, dst)
        yield self.router.hold_local_be_port()
        try:
            # Decide the VC once injection actually starts, so adaptive
            # selection sees the congestion state at that moment.
            chosen = self._pick_be_vc(dst) if vc == "adaptive" else vc
            flits = make_be_packet(header, words, vc=chosen,
                                   inject_time=self.sim.now,
                                   src=self.coord,
                                   packet_id=next(self.router.packet_ids))
            self.be_packets_sent += 1
            tracer = self.router.tracer
            if tracer.enabled:
                # Every record of this packet carries the same
                # run-relative key, from inject through each hop to the
                # eject (or the config_packet of a programming packet).
                cycle_ns = self.router.config.timing.link_cycle_ns
                tracer.emit(self.sim.now, self.name, "inject",
                            flit=f"p{flits[0].packet_id}", cls="be",
                            dur_ns=cycle_ns * len(flits))
            yield from self.router._inject_local_be_flits(flits)
        finally:
            self.router.release_local_be_port()

    def _pick_be_vc(self, dst: Coord) -> int:
        """Choose the less-congested BE VC towards the first hop of the
        XY route (most available downstream credits; ties favour VC 0)."""
        from .routing import xy_moves
        vcs = self.router.be_router.vcs
        if vcs < 2:
            return 0
        first_move = xy_moves(self.coord, dst)[0]
        port = self.router.output_ports[first_move]
        best_vc, best_credits = 0, -1
        for index, channel in enumerate(port.be_tx):
            free = channel.flow.credits - len(channel.queue)
            if free > best_credits:
                best_vc, best_credits = index, free
        return best_vc

    def on_config_ack(self, handler: Callable[[int], None]) -> None:
        self._ack_handlers.append(handler)

    def add_packet_handler(self, handler: Callable[[BePacket],
                                                   Optional[bool]]) -> None:
        """Handlers may claim a packet by returning True; unclaimed packets
        land in :attr:`be_inbox`."""
        self._packet_handlers.append(handler)

    def receive_be(self, packet: BePacket) -> None:
        """A packet assembled at the router's local BE port: a config
        ack goes to the ack handlers, anything else to the packet
        handlers or the inbox."""
        self.be_packets_received += 1
        tracer = self.router.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self.name, "eject",
                        flit=f"p{packet.packet_id}",
                        flits=packet.n_flits)
        words = packet.words
        if words and is_config_word(words[0]) \
                and ((words[0] >> 20) & 0xF) == OP_ACK:
            seq = (words[0] >> 8) & 0xFFF
            for handler in self._ack_handlers:
                handler(seq)
            return
        self._dispatch_packet(packet)

    def _dispatch_packet(self, packet: BePacket) -> None:
        for handler in self._packet_handlers:
            if handler(packet):
                return
        if not self.be_inbox.try_put(packet):  # pragma: no cover
            raise RuntimeError("unbounded inbox refused a put")
