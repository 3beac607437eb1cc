"""Output-buffered ports (paper Section 4.4).

MANGO places the VC buffers at the outputs: because a connection is a
reserved sequence of VCs, the target VC buffer of an incoming flit is
deterministic, so no arbitration is needed between the switch and the
buffers — only at link access.  Each VC slot holds one flit in the
unsharebox latch plus one in a single-flit buffer; the unlock toggle fires
when a flit moves from the unsharebox into the buffer.  A network VC is
one :class:`VcSlot` (Figure 6's output buffer, sharebox and arbiter
request line): it fires its own unlock and contends for the link itself,
so a port builds no per-VC callable.

Every sender on a link spends one flow-control window, a
:class:`~repro.circuits.sharebox.Sharebox` counting the free places
downstream (Section 4.3): a window of 1 is the paper's share-based GS
scheme, ``credit_window`` the "commonly used" credit-based scheme (better
average case at higher cost, compared on the same link by
`benchmarks/bench_vc_control_schemes.py`), and ``be_buffer_depth`` the
per-hop BE credits of Section 5.  The reverse wires of the link release
a window directly.

Nothing here is a kernel process: the VC slots and the BE channels run
as calls on plain fields, and a link grant calls the sender back.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from ..circuits.sharebox import Sharebox, ShareProtocolError, Unsharebox
from ..network.packet import BeFlit, GsFlit
from ..network.topology import Direction
from ..sim.kernel import Event, Simulator
from .config import RouterConfig
from .link_arbiter import LinkArbiter

__all__ = [
    "VcSlot",
    "NetworkOutputPort",
    "LocalOutputPort",
    "BeTxChannel",
]


class VcSlot:
    """One output VC: unsharebox latch -> single-flit buffer -> link.

    The slot is driven by calls, not by a process: an accepted flit
    starts the unshare transfer (one deferred call) once the buffer is
    empty, and emptying the buffer starts it for a flit waiting in the
    latch.  The transfer hands the unlock toggle to the VC control
    module as the flit leaves the unsharebox.  A network slot then
    contends for its port's link (:meth:`contend`), spending ``flow``,
    the window of free places downstream; an NA-facing slot has no
    window and calls ``on_buffered(slot)``, the NA's receive hook.
    """

    def __init__(self, port, vc: int, name: str):
        config: RouterConfig = port.config
        self.sim = port.sim
        self.port = port
        self.router = port.router
        self.out_port: Direction = port.direction
        self.vc = vc
        self.name = name
        # Share mode is exactly one flit as in the paper; in credit mode
        # the downstream landing space covers the window.
        window = (config.credit_window
                  if config.flow_control == "credit" else 1)
        self.unsharebox = Unsharebox(window, f"{name}.ub")
        self.flow: Optional[Sharebox] = (
            None if self.out_port is Direction.LOCAL
            else Sharebox(self.sim, window, name=f"{name}.flow"))
        self.buffered: Optional[GsFlit] = None  # the single-flit buffer
        self.flits_through = 0
        self.on_buffered: Optional[Callable[["VcSlot"], None]] = None
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
        if not self._moving and self.unsharebox.latch \
                and self.buffered is None:
            self._moving = True
            self.sim.defer(self._transfer_ns, self._transfer)

    def _transfer(self) -> None:
        """Unsharebox -> buffer; the departure fires the unlock."""
        flit = self.unsharebox.leave()
        self.router.vc_control.departed(self.out_port, self.vc)
        if self.buffered is not None:
            raise ShareProtocolError(
                f"{self.name}: buffer stolen during unshare transfer")
        self.buffered = flit
        if self.flow is not None:
            self.contend()
        elif self.on_buffered is not None:
            self.on_buffered(self)
        self._moving = False
        self.flits_through += 1
        self._refill()

    def contend(self, _event: Optional[Event] = None) -> None:
        """The slot holds a flit: request the link once the VC control
        lets it advance (the downstream sharebox is unlocked, or a
        credit is free).  The window wait is a callback on its event;
        the arbiter calls :meth:`_granted` back."""
        if self.flow.ready:
            self.port.arbiter.request(self.vc, self._granted)
        else:
            self.flow.wait_ready().add_callback(self.contend)

    def _granted(self) -> None:
        """Send the buffered flit with the next hop's steering bits."""
        flit = self.pop()
        self.flow.admit()
        router = self.router
        entry = router.table.require(self.out_port, self.vc)
        if entry.steering is None:
            raise ShareProtocolError(
                f"{self.name}: network VC without forward steering")
        router.counters.bump("gs_link_flits")
        self.port.link.transmit_gs(flit, entry.steering)

    def pop(self) -> GsFlit:
        """Remove the buffered flit as it leaves on the link (or into
        the NA)."""
        flit = self.buffered
        if flit is None:  # pragma: no cover - single consumer
            raise ShareProtocolError(f"{self.name}: buffer raced empty")
        self.buffered = None
        self._refill()
        return flit

    @property
    def occupancy(self) -> int:
        return len(self.unsharebox.latch) + (self.buffered is not None)


class BeTxChannel:
    """BE side of a network output port: queue + credit window + sender.

    The BE channel shares the physical link through the same arbiter but
    has its own credit-based flow control, a window of
    ``be_buffer_depth`` downstream input places, separate from the VC
    control module (paper Sections 4.3 and 5).

    The sender runs as calls on a plain queue of ``be_queue_depth``
    places: a flit put into an idle channel makes it contend for the
    link at once (:meth:`contend`), and each grant sends the head flit
    and contends again while flits remain.  A put into a full queue
    parks its flit and continuation until the next grant makes room.
    """

    def __init__(self, port, vc: int, name: str):
        config: RouterConfig = port.config
        self.sim = port.sim
        self.port = port
        self.config = config
        self.vc = vc
        self.rid = config.vcs_per_port + vc  # the arbiter's requester id
        self.name = name
        self.queue: deque = deque()
        self.depth = config.be_queue_depth
        self.flow = Sharebox(self.sim, config.be_buffer_depth,
                             name=f"{name}.credits")
        self.flits_sent = 0
        self.credit_stalls = 0  # head flit found zero downstream credits
        # False until the port's link is attached: a port without a
        # link never sends.
        self.idle = False
        # The (flit, continuation) of a put into the full queue.
        self._writer: Optional[tuple] = None

    def put(self, flit: BeFlit, then: Callable[[], None]) -> bool:
        """Queue ``flit``; True when it is in.  When the queue is full
        the channel keeps ``flit`` and calls ``then()`` once its next
        grant has made room and queued it; the put returns False."""
        queue = self.queue
        if len(queue) < self.depth:
            queue.append(flit)
            if self.idle:
                self.idle = False
                self.contend()
            return True
        self._writer = (flit, then)
        return False

    def contend(self, _event: Optional[Event] = None) -> None:
        """Request the link for the head flit once a downstream credit
        is free; a stall waits by a callback on the window's event."""
        flow = self.flow
        if flow.credits:
            self.port.arbiter.request(self.rid, self._granted)
        else:
            self.credit_stalls += 1
            flow.wait_ready().add_callback(self.contend)

    def _granted(self) -> None:
        """Send the head flit.  The place it frees goes to a parked
        writer first, whose continuation runs before the flit leaves."""
        queue = self.queue
        flit = queue.popleft()
        writer = self._writer
        if writer is not None:
            self._writer = None
            queue.append(writer[0])
            writer[1]()
        self.flow.admit()
        self.flits_sent += 1
        port = self.port
        port.router.counters.bump("be_link_flits")
        port.link.transmit_be(flit)
        if queue:
            self.contend()
        else:
            self.idle = True


class NetworkOutputPort:
    """A network output: V VC slots + BE channels + the link arbiter.

    The port is created unattached; :meth:`attach_link` wires it to the
    physical link, builds the arbiter its VC slots and BE channels
    contend for (the arbiter cycle time depends on the link's
    pipelining) and lets the BE channels send.
    """

    def __init__(self, sim: Simulator, router, direction: Direction,
                 name: str):
        self.sim = sim
        self.router = router
        self.config: RouterConfig = router.config
        self.direction = direction
        self.name = name
        self.slots: List[VcSlot] = [
            VcSlot(self, vc, name=f"{name}.vc{vc}")
            for vc in range(self.config.vcs_per_port)
        ]
        self.be_tx: List[BeTxChannel] = [
            BeTxChannel(self, vc, name=f"{name}.be{vc}")
            for vc in range(self.config.be_channels)
        ]
        self.link = None
        self.arbiter: Optional[LinkArbiter] = None

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
        for chan in self.be_tx:
            chan.idle = True


class LocalOutputPort:
    """The local output: dedicated GS interfaces straight to the NA.

    No arbitration — each of the (up to four) GS interfaces is its own
    physical channel.  The NA installs one receive hook as every slot's
    ``on_buffered`` and takes the buffered flit at its own (clocked)
    pace, which backpressures the connection end to end.
    """

    def __init__(self, sim: Simulator, router, name: str):
        self.sim = sim
        self.router = router
        self.config: RouterConfig = router.config
        self.direction = Direction.LOCAL
        self.name = name
        self.slots: List[VcSlot] = [
            VcSlot(self, iface, name=f"{name}.if{iface}")
            for iface in range(self.config.local_gs_interfaces)
        ]
