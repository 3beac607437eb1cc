"""The MANGO router (paper Figures 2 and 8).

Composes the separately implemented BE router and GS router — switching
module, output-buffered VC slots, VC control module and link arbiters —
plus the connection table and the programming interface on the local port.
The BE and GS parts are deliberately independent ("this is done in order
to make the router modular"): the GS scheme is chosen per
:class:`~repro.core.config.RouterConfig` without touching the BE router
and vice versa.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Iterator, List, Optional

from ..network.packet import BeFlit, BePacket, GsFlit, Steering
from ..network.topology import Coord, Direction, NETWORK_DIRECTIONS
from ..sim.kernel import Simulator
from ..sim.resources import Resource
from ..sim.tracing import NULL_TRACER, Tracer
from .be_router import BeRouter
from .config import RouterConfig
from .connection_table import ConnectionTable
from .counters import ActivityCounters
from .output_port import LocalOutputPort, NetworkOutputPort
from .programming import ProgrammingInterface, is_router_command
from .switching import SwitchingModule
from .vc_control import VcControlModule

__all__ = ["MangoRouter"]


class MangoRouter:
    """One routing node of a MANGO network."""

    def __init__(self, sim: Simulator, config: RouterConfig,
                 coord: Coord = Coord(0, 0),
                 tracer: Tracer = NULL_TRACER,
                 packet_ids: Optional[Iterator[int]] = None):
        self.sim = sim
        self.config = config
        self.coord = coord
        self.tracer = tracer
        # BE packet ids, shared by every router and NA of one network so
        # each packet's trace key ``p<id>`` is unique within a run.
        self.packet_ids = (itertools.count(1) if packet_ids is None
                           else packet_ids)
        self.name = f"R{coord.x}.{coord.y}"
        self.counters = ActivityCounters()

        self.table = ConnectionTable(config.vcs_per_port,
                                     config.local_gs_interfaces)
        self.switching = SwitchingModule(config)
        self.vc_control = VcControlModule(self)
        self.programming = ProgrammingInterface(sim, self,
                                                name=f"{self.name}.prog")

        self.output_ports: Dict[Direction, NetworkOutputPort] = {
            direction: NetworkOutputPort(sim, self, direction,
                                         name=f"{self.name}.{direction.name}")
            for direction in NETWORK_DIRECTIONS
        }
        self.local_output = LocalOutputPort(sim, self,
                                            name=f"{self.name}.LOCAL")
        self.be_router = BeRouter(sim, self, name=f"{self.name}.be")

        # Links delivering INTO this router, keyed by this router's input
        # direction; attached during network construction.
        self.input_links: Dict[Direction, object] = {}
        self.local_link = None  # the NA-facing local link

        # Local BE port: the BE router delivers flits by call into the
        # packet being assembled here, one per BE VC (each VC has its
        # own output lock in the BE router); the injection lock
        # serializes the packets entering the BE router here.
        self._local_be_packets: List[Optional[List[BeFlit]]] = (
            [None] * self.be_router.vcs)
        self._local_be_lock = Resource(sim, 1, name=f"{self.name}.be_inj")

    # -- construction hooks --------------------------------------------------

    def attach_output_link(self, direction: Direction, link) -> None:
        self.output_ports[direction].attach_link(link)

    def attach_input_link(self, direction: Direction, link) -> None:
        if direction in self.input_links:
            raise ValueError(
                f"{self.name}: input link {direction.name} already attached")
        self.input_links[direction] = link

    def attach_local_link(self, local_link) -> None:
        self.local_link = local_link

    # -- data-path entry points (called by links) ----------------------------

    def accept_gs_flit(self, in_dir: Direction, steering: Steering,
                       flit: GsFlit) -> None:
        """A GS flit emerging from the input side: the split and 4x4
        switch stages decode the steering bits and deposit the flit in the
        reserved VC buffer's unsharebox."""
        out_port, out_vc = self.switching.route(in_dir, steering)
        self.counters.bump("gs_flits_switched")
        if out_port is Direction.LOCAL:
            slot = self.local_output.slots[out_vc]
        else:
            slot = self.output_ports[out_port].slots[out_vc]
        slot.accept(flit)
        if self.tracer.enabled:
            # Run-relative tag (connection id + payload), never the
            # process-global flit_id: repeated runs in one process must
            # export byte-identical traces.
            self.tracer.emit(self.sim.now, self.name, "gs_switch",
                             flit=f"c{flit.connection_id}.{flit.payload}",
                             inp=in_dir.name, out=out_port.name, vc=out_vc)

    def accept_be_flit(self, in_dir: Direction, flit: BeFlit) -> None:
        """A BE flit after the split stage: into the BE router."""
        self.counters.bump("be_flits_accepted")
        self.be_router.accept(in_dir, flit)

    # -- local BE port --------------------------------------------------------

    def inject_local_be(self, flits: List[BeFlit]
                        ) -> Generator:
        """Inject one whole BE packet at the local port (the programming
        interface's acks; the NA holds the port itself).  Packets are
        serialized so wormhole flits never interleave."""
        yield self._local_be_lock.request()
        try:
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, self.name, "inject",
                    flit=f"p{flits[0].packet_id}", cls="be",
                    dur_ns=self.config.timing.link_cycle_ns * len(flits))
            yield from self._inject_local_be_flits(flits)
        finally:
            self._local_be_lock.release()

    def hold_local_be_port(self):
        """Event granting exclusive use of the local BE injection port;
        pair with :meth:`release_local_be_port`.  Lets the NA defer
        decisions (e.g. adaptive VC choice) to actual injection time."""
        return self._local_be_lock.request()

    def release_local_be_port(self) -> None:
        self._local_be_lock.release()

    def _inject_local_be_flits(self, flits: List[BeFlit]) -> Generator:
        """Flit injection proper; caller must hold the local BE port."""
        cycle_ns = self.config.timing.link_cycle_ns
        be_router = self.be_router
        local_inputs = be_router.inputs[Direction.LOCAL]
        vcs = be_router.vcs
        bump = self.counters.bump
        timeout = self.sim.timeout
        for flit in flits:
            vc = flit.vc if flit.vc < vcs else 0
            yield local_inputs[vc].put(flit)
            bump("be_local_injected")
            yield timeout(cycle_ns)

    def assemble_local_be(self, flit: BeFlit) -> None:
        """A flit the BE router delivers to the local port, by call as it
        leaves the BE router, into the packet of its BE VC (the BE
        input's index: ``flit.vc``, or 0 past the configured VCs).  A
        tail flit completes the packet: config packets go to the
        programming interface, the rest to the NA."""
        vc = flit.vc if flit.vc < self.be_router.vcs else 0
        packets = self._local_be_packets
        current = packets[vc]
        if flit.is_head:
            if current is not None:
                raise RuntimeError(
                    f"{self.name}: head flit inside a packet "
                    "(wormhole coherency broken)")
            current = packets[vc] = [flit]
        else:
            if current is None:
                raise RuntimeError(
                    f"{self.name}: body flit without a head")
            current.append(flit)
        if flit.is_tail:
            packets[vc] = None
            self._finish_packet(current)

    def _finish_packet(self, flits: List[BeFlit]) -> None:
        header = flits[0].word
        words = [flit.word for flit in flits[1:]]
        self.counters.bump("be_packets_delivered")
        if words and is_router_command(words[0]):
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "config_packet",
                                 flit=f"p{flits[0].packet_id}",
                                 words=len(words))
            self.programming.execute(words)
            return
        packet = BePacket(header=header, words=words,
                          packet_id=flits[0].packet_id,
                          inject_time=flits[0].inject_time,
                          arrive_time=self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "be_delivered",
                             flit=f"p{packet.packet_id}",
                             flits=packet.n_flits)
        self.local_link.adapter.receive_be(packet)

    # -- introspection ---------------------------------------------------------

    def gs_occupancy(self) -> int:
        """Total flits currently buffered in GS VC slots."""
        total = 0
        for port in self.output_ports.values():
            total += sum(slot.occupancy for slot in port.slots)
        total += sum(slot.occupancy for slot in self.local_output.slots)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MangoRouter {self.name} conns={len(self.table)}>"
