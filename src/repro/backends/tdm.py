"""The ``tdm`` backend: an ÆTHEREAL-style slot-table network.

Lifts the :mod:`repro.baselines.tdm_router` model (the Section 6
comparison point) into a scenario-runnable mesh.  Every link carries a
global slot table of ``table_size`` slots; a GS connection reserves an
aligned slot train along its XY path through the baseline
:class:`~repro.baselines.tdm_router.TdmPathAllocator` — slot ``s`` on
hop ``k`` continues as slot ``(s + 1) mod S`` on hop ``k + 1``, the
"contention-free routing" constraint that makes TDM allocation a global
puzzle (in contrast to MANGO's per-link independent VC choice).

Service discipline per link, per slot boundary:

* the slot's owning connection departs first if it has a flit queued
  (its guarantee — no other traffic can occupy its slot);
* otherwise the head of the BE FIFO uses the idle slot (reserved-but-
  idle and unreserved slots both serve BE, as in ÆTHEREAL).

What the paper contrasts MANGO against (Sections 2 and 6), visible in
this model's numbers:

* bandwidth is allocated in quanta of ``1/S`` of the link — a trickle
  CBR stream still occupies a full slot;
* worst-case network-entry latency is a full table revolution
  (:func:`repro.analysis.qos.tdm_contract_for_path`), and grows with
  ``S`` — finer bandwidth granularity buys worse latency;
* the discipline needs a global notion of time: impossible in a
  clockless NoC, which is why MANGO uses share-based VC control at all.

Modelling assumptions (see ``docs/backends.md``): link queues are
unbounded (ÆTHEREAL's end-to-end credit flow control is not modelled),
GS flits travel header-less even though ÆTHEREAL stores no routes in
the routers, and the slot duration is one MANGO link cycle so per-hop
raw bandwidth matches the other backends.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Optional, Tuple

from ..baselines.tdm_router import TdmConnection, TdmPathAllocator
from ..core.config import RouterConfig
from ..network.connection import AdmissionError
from ..network.packet import BePacket
from ..network.topology import Coord, Direction
from .base import RouterBackend
from .graphnet import (BaseMeshNetwork, MeshAdapter, MeshConnection,
                       _trace_tag)

__all__ = ["TdmFlit", "TdmLink", "TdmNetwork", "TdmBackend",
           "DEFAULT_TABLE_SIZE"]

#: Slots per table revolution (ÆTHEREAL-typical small table).
DEFAULT_TABLE_SIZE = 8

#: Tolerance when mapping continuous time onto slot boundaries.
_EPS = 1e-9


@dataclass
class TdmFlit:
    """One flit on the TDM mesh: payload plus routing/measurement tags."""

    payload: int
    dst: Coord
    kind: str = "be"                      # "gs" | "be"
    inject_time: float = -1.0
    is_tail: bool = False
    packet: Optional[BePacket] = None
    connection_id: int = -1               # registry id (sink lookup)
    slot_owner_id: int = -1               # allocator id (slot matching)
    last: bool = False


class TdmLink:
    """One unidirectional link: a slot wheel over its reservation table.

    Event-driven, not tick-driven: the link only schedules work when a
    flit is queued, computing the next *eligible* slot boundary
    analytically — a drained network costs zero kernel events however
    long the drain period is.
    """

    def __init__(self, network: "TdmNetwork", src: Coord,
                 direction: Direction, table, counters):
        self.network = network
        self.sim = network.sim
        self.slot_ns = network.slot_ns
        self.dst_coord = src.step(direction)
        self.label = f"L{src.x}.{src.y}.{direction.name}"
        self.table = table                  # baselines TdmSlotTable
        self.counters = counters
        self.gs_queues: Dict[int, Deque[TdmFlit]] = {}
        self.be_queue: Deque[TdmFlit] = deque()
        self._armed_slot: Optional[int] = None
        self._min_next_slot = 0             # one departure per boundary

    def enqueue(self, flit: TdmFlit) -> None:
        if flit.kind == "gs":
            self.gs_queues.setdefault(flit.slot_owner_id,
                                      deque()).append(flit)
        else:
            self.be_queue.append(flit)
        self._schedule()

    def _next_eligible_slot(self) -> Optional[int]:
        """Earliest boundary index >= now at which some queued flit may
        depart; None when nothing is queued."""
        base = max(math.ceil(self.sim.now / self.slot_ns - _EPS),
                   self._min_next_slot)
        be_waiting = bool(self.be_queue)
        if not be_waiting and not any(self.gs_queues.values()):
            return None
        size = self.table.size
        owners = self.table.owner
        for offset in range(size):
            owner = owners[(base + offset) % size]
            if owner is not None and self.gs_queues.get(owner):
                return base + offset      # the owner's reserved slot
            if be_waiting:
                return base + offset      # idle slot -> BE head
        return None  # pragma: no cover - every GS conn owns a slot

    def _schedule(self) -> None:
        slot = self._next_eligible_slot()
        if slot is None:
            return
        # Re-arm when a newly enqueued flit is eligible at an *earlier*
        # boundary than the armed one (e.g. the link was waiting for
        # connection A's reserved slot and B's own slot comes first):
        # the superseded callback recognises itself as stale in _fire.
        if self._armed_slot is not None and self._armed_slot <= slot:
            return
        self._armed_slot = slot
        self.sim.defer(max(0.0, slot * self.slot_ns - self.sim.now),
                       self._fire, slot)

    def _fire(self, slot: int) -> None:
        if slot != self._armed_slot:
            return                          # superseded by a re-arm
        self._armed_slot = None
        self._min_next_slot = slot + 1
        owner = self.table.owner[slot % self.table.size]
        queue = self.gs_queues.get(owner) if owner is not None else None
        if queue:
            flit = queue.popleft()
            self.counters.gs_flits += 1
        elif self.be_queue:
            flit = self.be_queue.popleft()
            self.counters.be_flits += 1
        else:  # pragma: no cover - queues only grow while armed
            self._schedule()
            return
        # The flit occupies this slot on the wire; it is at the next
        # router for the following boundary — slot alignment by design.
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(slot * self.slot_ns, self.label, "hop",
                        flit=_trace_tag(flit), cls=flit.kind,
                        dur_ns=self.slot_ns, slot=slot)
        arrive = (slot + 1) * self.slot_ns
        self.sim.defer(max(0.0, arrive - self.sim.now),
                       self.network._arrive, flit, self.dst_coord)
        self._schedule()


class TdmNetwork(BaseMeshNetwork):
    """A cols x rows mesh of slot-table links (ÆTHEREAL-style)."""

    def __init__(self, cols: int, rows: int,
                 config: Optional[RouterConfig] = None,
                 table_size: int = DEFAULT_TABLE_SIZE):
        super().__init__(cols, rows, config=config)
        self.table_size = table_size
        #: One slot is one link cycle, so raw per-link bandwidth matches
        #: the MANGO configuration being compared against.
        self.slot_ns = self.config.timing.link_cycle_ns
        self._link_index: Dict[Tuple[Coord, Direction], int] = {
            key: index for index, key in enumerate(self.links)
        }
        self.allocator = TdmPathAllocator(len(self.links), table_size)
        self.tdm_links: Dict[Tuple[Coord, Direction], TdmLink] = {
            (src, direction): TdmLink(
                self, src, direction,
                self.allocator.tables[self._link_index[(src, direction)]],
                self.links[(src, direction)])
            for (src, direction) in self.links
        }

    # -- GS allocation -----------------------------------------------------

    def allocate_connection(self, src: Coord, dst: Coord) -> MeshConnection:
        """Reserve an aligned slot train along the XY path (admission
        control: a request that cannot be aligned is *rejected*, the TDM
        counterpart of MANGO running out of free VCs)."""
        conn = MeshConnection(self, 0, src, dst)  # probe for the path
        path = [self._link_index[key] for key in conn.path_links()]
        reserved: Optional[TdmConnection] = self.allocator.allocate(
            path, n_slots=1)
        if reserved is None:
            raise AdmissionError(
                f"no aligned free slot train {src}->{dst} over "
                f"{len(path)} links (table of {self.table_size} slots)")
        conn = self.register_connection(src, dst)
        conn.tdm = reserved
        return conn

    # -- transport ---------------------------------------------------------

    def _inject_gs(self, conn: MeshConnection, payload: int,
                   last: bool) -> None:
        flit = TdmFlit(payload=payload, dst=conn.dst, kind="gs",
                       inject_time=self.sim.now,
                       connection_id=conn.connection_id,
                       slot_owner_id=conn.tdm.connection_id, last=last)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, f"NA{conn.src.x}.{conn.src.y}",
                        "inject", flit=_trace_tag(flit), cls="gs",
                        dur_ns=self.slot_ns)
        self.adapters[conn.src].local_link.gs_flits += 1
        self.tdm_links[(conn.src, conn.moves[0])].enqueue(flit)

    def _inject_be(self, adapter: MeshAdapter, dst: Coord,
                   packet: BePacket) -> Generator:
        """BE packets carry a header word (routing information is not
        stored in TDM routers — paper Section 6), then the payload, one
        slot apart at the injection port."""
        first = self.tdm_links[(adapter.coord,
                                self.topology.next_port(adapter.coord,
                                                        dst))]
        words = [packet.header] + packet.words
        for index, word in enumerate(words):
            flit = TdmFlit(payload=word, dst=dst, kind="be",
                           inject_time=packet.inject_time,
                           is_tail=(index == len(words) - 1),
                           packet=packet)
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now,
                            f"NA{adapter.coord.x}.{adapter.coord.y}",
                            "inject", flit=_trace_tag(flit), cls="be",
                            dur_ns=self.slot_ns)
            first.enqueue(flit)
            yield self.sim.timeout(self.slot_ns)

    def _arrive(self, flit: TdmFlit, coord: Coord) -> None:
        if coord == flit.dst:
            tracer = self.tracer
            if tracer.enabled and (flit.kind == "gs" or flit.is_tail):
                tracer.emit(self.sim.now, f"NA{coord.x}.{coord.y}",
                            "eject", flit=_trace_tag(flit), cls=flit.kind)
            if flit.kind == "gs":
                conn = self.connection_manager.connections[
                    flit.connection_id]
                conn.sink.record(flit, self.sim.now)
            elif flit.is_tail:
                flit.packet.arrive_time = self.sim.now
                self.adapters[coord].deliver_packet(flit.packet)
            return
        self.tdm_links[(coord, self.topology.next_port(coord, flit.dst))
                       ].enqueue(flit)


class TdmBackend(RouterBackend):
    """Paper Sections 2 and 6: guarantees by global time-division —
    hard, but quantised and clock-bound."""

    name = "tdm"
    description = ("AEthereal-style slot tables: aligned slot trains per "
                   "GS connection, BE in idle slots")
    paper_section = "2, 6 (refs [8][16])"
    has_hard_guarantees = True
    supports_failure_injection = False

    def __init__(self, table_size: int = DEFAULT_TABLE_SIZE):
        self.table_size = table_size

    def build_network(self, spec, config: Optional[RouterConfig] = None,
                      obs=None) -> TdmNetwork:
        net = TdmNetwork(spec.cols, spec.rows, config=config,
                         table_size=self.table_size)
        net.attach_observability(obs)
        return net

    def open_connection(self, network: TdmNetwork, src: Coord,
                        dst: Coord) -> MeshConnection:
        return network.allocate_connection(src, dst)

    def latency_bound_ns(self, hops: int,
                         config: Optional[RouterConfig] = None) -> float:
        """The slot-revolution worst case: a flit may wait one full
        table revolution for its (single) reserved slot, then advances
        one hop per slot — quantisation MANGO does not pay."""
        from ..analysis.qos import tdm_contract_for_path
        config = config or RouterConfig()
        return tdm_contract_for_path(
            hops, table_size=self.table_size,
            slot_ns=config.timing.link_cycle_ns).max_latency_ns
