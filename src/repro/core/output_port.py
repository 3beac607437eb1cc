"""Output-buffered ports (paper Section 4.4).

MANGO places the VC buffers at the outputs: because a connection is a
reserved sequence of VCs, the target VC buffer of an incoming flit is
deterministic, so no arbitration is needed between the switch and the
buffers — only at link access.  Each VC slot holds one flit in the
unsharebox latch plus one in a single-flit buffer; the unlock toggle fires
when a flit moves from the unsharebox into the buffer.

The flow-control strategy is pluggable (Section 4.3): share-based (the
paper's GS scheme — one wire per VC, cheapest) or credit-based (the
"commonly used" scheme: better average-case at higher cost), so the two
can be compared on the same link (`benchmarks/bench_vc_control_schemes.py`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..circuits.sharebox import Sharebox, ShareProtocolError, Unsharebox
from ..network.packet import BeFlit, GsFlit
from ..network.topology import Direction
from ..sim.kernel import Event, Simulator
from ..sim.resources import Gate, Store
from .config import RouterConfig
from .link_arbiter import LinkArbiter

__all__ = [
    "ShareFlow",
    "CreditFlow",
    "VcSlot",
    "NetworkOutputPort",
    "LocalOutputPort",
    "BeTxChannel",
]


class ShareFlow:
    """Share-based VC control: lock on admit, unlock from downstream."""

    scheme = "share"

    def __init__(self, sim: Simulator, name: str = "share"):
        self._box = Sharebox(sim, name=name)

    def wait_ready(self) -> Event:
        return self._box.wait_unlocked()

    @property
    def ready(self) -> bool:
        return not self._box.locked

    def admit(self) -> None:
        self._box.admit()

    def release(self) -> None:
        self._box.unlock()

    @property
    def admitted(self) -> int:
        return self._box.admitted


class CreditFlow:
    """Credit-based VC control: a window of ``window`` flits in flight.

    Cheaper schemes lock per flit; credits let a single VC pipeline
    several flits into the downstream buffer, improving average-case
    throughput at the cost of counters, wider reverse signalling and
    deeper downstream buffers (area model: `analysis.area`).
    """

    scheme = "credit"

    def __init__(self, sim: Simulator, window: int, name: str = "credit"):
        if window < 1:
            raise ValueError("credit window must be >= 1")
        self.window = window
        self.credits = window
        self._gate = Gate(sim, is_open=True, name=f"{name}.gate")
        self.admitted_count = 0

    def wait_ready(self) -> Event:
        return self._gate.wait_open()

    @property
    def ready(self) -> bool:
        return self.credits > 0

    def admit(self) -> None:
        if self.credits <= 0:
            raise ShareProtocolError("credit underflow")
        self.credits -= 1
        self.admitted_count += 1
        if self.credits == 0:
            self._gate.close()

    def release(self) -> None:
        if self.credits >= self.window:
            raise ShareProtocolError("credit overflow (spurious return)")
        self.credits += 1
        self._gate.open()

    @property
    def admitted(self) -> int:
        return self.admitted_count


def make_flow(config: RouterConfig, sim: Simulator, name: str):
    if config.flow_control == "credit":
        return CreditFlow(sim, config.credit_window, name=name)
    return ShareFlow(sim, name=name)


class VcSlot:
    """One output VC: unsharebox latch -> single-flit buffer -> link.

    ``on_departed`` is wired to the VC control module: it fires when a
    flit leaves the unsharebox, which is what toggles the unlock wire
    back along the connection.

    The slot is driven by calls, not by a process: an accepted flit
    starts the unshare transfer (one deferred call) once the buffer has
    room, and emptying the buffer starts it for a flit waiting in the
    latch.  ``on_buffered`` is called when a flit lands in the buffer —
    the network port's :class:`VcSender`; the local port leaves it unset,
    because its NA waits on the buffer itself (:meth:`take`).
    """

    def __init__(self, sim: Simulator, config: RouterConfig,
                 out_port: Direction, vc: int,
                 on_departed: Callable[[], None], name: str):
        self.sim = sim
        self.config = config
        self.out_port = out_port
        self.vc = vc
        self.name = name
        latch_capacity = (config.credit_window
                          if config.flow_control == "credit" else 1)
        self.unsharebox = Unsharebox(sim, name=f"{name}.ub")
        # Credit mode needs the downstream landing space to cover the
        # window; share mode is exactly one flit as in the paper.
        self.unsharebox.latch.capacity = latch_capacity
        self.unsharebox.on_unlock(on_departed)
        self.buffer = Store(sim, capacity=1, name=f"{name}.buf")
        self.flow = make_flow(config, sim, name=f"{name}.flow")
        self.flits_through = 0
        self.on_buffered: Optional[Callable[[], None]] = None
        self._transfer_ns = config.timing.unshare_transfer_ns()
        self._moving = False  # an unshare transfer is under way

    def accept(self, flit: GsFlit) -> None:
        """Arrival from the switching module into the unsharebox."""
        self.unsharebox.accept(flit)
        self._refill()

    def _refill(self) -> None:
        """Start the unshare transfer if a flit waits in the latch and
        the buffer has room for it.

        Called inside the call that made the transfer possible (the
        accept, the end of the previous transfer, or the removal that
        freed the buffer, before the removed flit is sent on), so its
        heap entry takes the same place among same-time events on every
        run; the golden traces pin that order."""
        if not self._moving and self.unsharebox.latch.items \
                and not self.buffer.is_full:
            self._moving = True
            self.sim.defer(self._transfer_ns, self._transfer)

    def _transfer(self) -> None:
        """Unsharebox -> buffer; the departure fires the unlock."""
        flit = self.unsharebox.leave()
        if not self.buffer.try_put(flit):
            raise ShareProtocolError(
                f"{self.name}: buffer stolen during unshare transfer")
        self._moving = False
        if self.on_buffered is not None:
            self.on_buffered()
        self.flits_through += 1
        self._refill()

    def pop(self) -> GsFlit:
        """Remove the buffered flit as it leaves on the link."""
        flit = self.buffer.try_get()
        if flit is None:  # pragma: no cover - single consumer
            raise ShareProtocolError(f"{self.name}: buffer raced empty")
        self._refill()
        return flit

    def take(self) -> Event:
        """Event yielding the next buffered flit (the NA's side of a
        local GS interface)."""
        event = self.buffer.get()
        self._refill()
        return event

    @property
    def occupancy(self) -> int:
        return len(self.buffer) + len(self.unsharebox.latch)


class BeTxChannel:
    """BE side of a network output port: queue + credit counter.

    The BE channel shares the physical link through the same arbiter but
    has its own credit-based flow control, handled separately from the VC
    control module (paper Sections 4.3 and 5).
    """

    def __init__(self, sim: Simulator, config: RouterConfig, vc: int,
                 name: str):
        self.sim = sim
        self.config = config
        self.vc = vc
        self.name = name
        self.queue = Store(sim, capacity=config.be_queue_depth,
                           name=f"{name}.q")
        self.credits = config.be_buffer_depth
        self._gate = Gate(sim, is_open=True, name=f"{name}.credits")
        self.flits_sent = 0
        self.credit_stalls = 0  # head flit found zero downstream credits

    def credit_return(self) -> None:
        if self.credits >= self.config.be_buffer_depth:
            raise ShareProtocolError(f"{self.name}: BE credit overflow")
        self.credits += 1
        self._gate.open()

    def consume_credit(self) -> None:
        if self.credits <= 0:
            raise ShareProtocolError(f"{self.name}: BE credit underflow")
        self.credits -= 1
        if self.credits == 0:
            self._gate.close()

    def wait_credit(self) -> Event:
        return self._gate.wait_open()


class VcSender:
    """Link side of one network VC slot.

    Once the slot buffers a flit, wait until the VC may advance (the
    downstream sharebox is unlocked, or a credit is free), contend for
    the link, and send the flit with the next hop's steering bits.  Each
    wait is a callback attached to the flow-control or arbiter event, so
    a port needs no process per VC.
    """

    __slots__ = ("slot", "flow", "vc", "direction", "_request",
                 "_require", "_bump", "_transmit")

    def __init__(self, port: "NetworkOutputPort", slot: VcSlot):
        # The callbacks run once per flit on this VC, so their
        # collaborators are bound once here (fixed for the port's
        # lifetime).
        self.slot = slot
        self.flow = slot.flow
        self.vc = slot.vc
        self.direction = port.direction
        self._request = port.arbiter.request
        self._require = port.router.table.require
        self._bump = port.router.counters.bump
        self._transmit = port.link.transmit_gs

    def contend(self, _event: Optional[Event] = None) -> None:
        """The slot holds a flit: request the link once the VC control
        lets it advance."""
        if self.flow.ready:
            self._request(self.vc).add_callback(self._granted)
        else:
            self.flow.wait_ready().add_callback(self.contend)

    def _granted(self, _event: Event) -> None:
        flit = self.slot.pop()
        self.flow.admit()
        entry = self._require(self.direction, self.vc)
        if entry.steering is None:
            raise ShareProtocolError(
                f"{self.slot.name}: network VC without forward steering")
        self._bump("gs_link_flits")
        self._transmit(flit, entry.steering)


class NetworkOutputPort:
    """A network output: V VC slots + BE channels + the link arbiter.

    The port is created unattached; :meth:`attach_link` wires it to the
    physical link, gives every VC slot its :class:`VcSender` and starts
    the BE sender processes (the arbiter cycle time depends on the link's
    pipelining).
    """

    def __init__(self, sim: Simulator, router, direction: Direction,
                 name: str):
        self.sim = sim
        self.router = router
        self.config: RouterConfig = router.config
        self.direction = direction
        self.name = name
        self.slots: List[VcSlot] = [
            VcSlot(sim, self.config, direction, vc,
                   on_departed=self._departure_hook(vc),
                   name=f"{name}.vc{vc}")
            for vc in range(self.config.vcs_per_port)
        ]
        self.be_tx: List[BeTxChannel] = [
            BeTxChannel(sim, self.config, vc, name=f"{name}.be{vc}")
            for vc in range(self.config.be_channels)
        ]
        self.link = None
        self.arbiter: Optional[LinkArbiter] = None

    def _departure_hook(self, vc: int) -> Callable[[], None]:
        def hook():
            self.router.vc_control.departed(self.direction, vc)
        return hook

    def attach_link(self, link) -> None:
        if self.link is not None:
            raise ValueError(f"{self.name}: link already attached")
        self.link = link
        from .link_arbiter import make_policy
        policy = make_policy(self.config.arbiter,
                             self.config.link_requesters)
        self.arbiter = LinkArbiter(
            self.sim, policy, cycle_ns=link.media_cycle_ns,
            arbitration_ns=self.config.timing.arbitration_ns(),
            name=f"{self.name}.arb", tracer=self.router.tracer)
        for slot in self.slots:
            slot.on_buffered = VcSender(self, slot).contend
        for chan in self.be_tx:
            self.sim.process(self._be_sender(chan),
                             name=f"{chan.name}.sender")

    def _be_sender(self, chan: BeTxChannel):
        be_rid = self.config.vcs_per_port + chan.vc
        queue = chan.queue
        request = self.arbiter.request
        bump = self.router.counters.bump
        transmit = self.link.transmit_be
        while True:
            yield queue.when_any()
            if chan.credits <= 0:
                chan.credit_stalls += 1
            while chan.credits <= 0:
                yield chan.wait_credit()
            yield request(be_rid)
            flit = queue.try_get()
            if flit is None:  # pragma: no cover - single consumer
                raise ShareProtocolError(f"{chan.name}: queue raced empty")
            chan.consume_credit()
            chan.flits_sent += 1
            bump("be_link_flits")
            transmit(flit)

    def sharebox_release(self, vc: int) -> None:
        """Unlock/credit return arriving over the link's reverse wires."""
        self.slots[vc].flow.release()

    def be_credit_return(self, vc: int) -> None:
        self.be_tx[vc].credit_return()


class LocalOutputPort:
    """The local output: dedicated GS interfaces straight to the NA.

    No arbitration — each of the (up to four) GS interfaces is its own
    physical channel; the NA consumes from the slot buffer at its own
    (clocked) pace, which backpressures the connection end to end.
    """

    def __init__(self, sim: Simulator, router, name: str):
        self.sim = sim
        self.router = router
        self.config: RouterConfig = router.config
        self.direction = Direction.LOCAL
        self.name = name
        self.slots: List[VcSlot] = [
            VcSlot(sim, self.config, Direction.LOCAL, iface,
                   on_departed=self._departure_hook(iface),
                   name=f"{name}.if{iface}")
            for iface in range(self.config.local_gs_interfaces)
        ]

    def _departure_hook(self, iface: int) -> Callable[[], None]:
        def hook():
            self.router.vc_control.departed(Direction.LOCAL, iface)
        return hook

    def take(self, iface: int) -> Event:
        """Event yielding the next delivered flit on an interface (used by
        the network adapter)."""
        return self.slots[iface].take()
