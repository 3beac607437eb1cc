"""The MANGO network facade.

Builds a mesh of routers, links and network adapters and exposes the
user-facing API: open/close GS connections, send BE packets, run the
simulation, and collect aggregate statistics.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from ..core.config import RouterConfig
from ..core.counters import ActivityCounters
from ..core.router import MangoRouter
from ..network.adapter import ClockDomain, NetworkAdapter
from ..network.connection import Connection, ConnectionManager
from ..network.link import Link, LocalLink
from ..network.packet import BePacket
from ..network.topology import Coord, Direction, Mesh
from ..sim.kernel import Simulator
from ..sim.tracing import NULL_TRACER, Tracer

__all__ = ["MangoNetwork"]


class MangoNetwork:
    """A cols x rows MANGO NoC: routers, links, NAs, connection manager."""

    def __init__(self, cols: int, rows: int,
                 config: Optional[RouterConfig] = None,
                 mesh: Optional[Mesh] = None,
                 tracer: Optional[Tracer] = None,
                 clocks: Optional[Dict[Coord, ClockDomain]] = None,
                 allocator="xy", profile=None):
        self.config = config or RouterConfig()
        self.mesh = mesh or Mesh(cols, rows,
                                 link_length_mm=self.config.link_length_mm,
                                 link_stages=self.config.link_stages)
        if self.mesh.cols != cols or self.mesh.rows != rows:
            raise ValueError("mesh dimensions disagree with cols/rows")
        # ``profile`` opts the kernel into callback-site profiling
        # (repro.obs.profile); None keeps the untouched hot loop.
        self.sim = Simulator(profile=profile)
        # Note: an empty Tracer is falsy (len == 0), so test identity.
        self.tracer = NULL_TRACER if tracer is None else tracer
        clocks = clocks or {}

        # One BE packet-id counter per network: trace keys ``p<id>`` are
        # run-relative, so repeated runs in one process export the same
        # bytes.
        packet_ids = itertools.count(1)
        self.routers: Dict[Coord, MangoRouter] = {
            coord: MangoRouter(self.sim, self.config, coord,
                               tracer=self.tracer, packet_ids=packet_ids)
            for coord in self.mesh.tiles()
        }
        self.links: Dict[Tuple[Coord, Direction], Link] = {}
        for spec in self.mesh.links():
            link = Link(self.sim, spec, self.routers[spec.src],
                        self.routers[spec.dst])
            self.links[(spec.src, spec.direction)] = link
            self.routers[spec.src].attach_output_link(spec.direction, link)
            self.routers[spec.dst].attach_input_link(
                spec.direction.opposite, link)

        self.adapters: Dict[Coord, NetworkAdapter] = {}
        for coord in self.mesh.tiles():
            local_link = LocalLink(self.sim, self.routers[coord])
            self.adapters[coord] = NetworkAdapter(
                self.sim, coord, self.routers[coord], local_link,
                clock=clocks.get(coord))

        # ``allocator`` selects the admission/route-search strategy
        # (repro.alloc); "xy" is the historical hardwired policy.
        self.connection_manager = ConnectionManager(self, allocator=allocator)

    # -- construction helpers ---------------------------------------------------

    def link_keys(self) -> Iterator[Tuple[Coord, Direction]]:
        for spec in self.mesh.links():
            yield spec.src, spec.direction

    # -- simulation control -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: float) -> None:
        """Advance simulated time to ``until`` (nanoseconds)."""
        self.sim.run(until=until)

    @property
    def events_processed(self) -> int:
        """Kernel events dispatched so far (throughput benchmarking)."""
        return self.sim.events_processed

    def run_process(self, generator: Generator, name: str = ""):
        return self.sim.run_process(generator, name=name)

    # -- GS connections -------------------------------------------------------------

    def open_connection(self, src: Coord, dst: Coord,
                        want_ack: bool = True) -> Connection:
        """Open a GS connection by programming the routers over the BE
        network (runs the simulation until setup completes)."""
        return self.sim.run_process(
            self.connection_manager.open(src, dst, want_ack=want_ack),
            name=f"open:{src}->{dst}")

    def open_connection_instant(self, src: Coord, dst: Coord) -> Connection:
        """Open a connection with zero-time table writes (tests/benches)."""
        return self.connection_manager.open_instant(src, dst)

    def close_connection(self, conn: Connection,
                         want_ack: bool = True) -> None:
        self.sim.run_process(
            self.connection_manager.close(conn, want_ack=want_ack),
            name=f"close:{conn.connection_id}")

    # -- BE traffic -------------------------------------------------------------------

    def send_be(self, src: Coord, dst: Coord, words: List[int],
                vc: int = 0) -> None:
        """Spawn a process injecting one BE packet (returns immediately;
        run the simulation to make progress)."""
        adapter = self.adapters[src]
        self.sim.process(adapter.send_be(dst, words, vc=vc),
                         name=f"be:{src}->{dst}")

    def be_inbox(self, coord: Coord):
        return self.adapters[coord].be_inbox

    # -- statistics ----------------------------------------------------------------------

    def aggregate_counters(self) -> ActivityCounters:
        total = ActivityCounters()
        for router in self.routers.values():
            total.merge(router.counters)
        return total

    def total_gs_occupancy(self) -> int:
        return sum(router.gs_occupancy() for router in self.routers.values())

    def link_utilization(self) -> Dict[Tuple[Coord, Direction], float]:
        """Fraction of each link's media cycles spent transferring."""
        now = self.sim.now
        result = {}
        for key, link in self.links.items():
            port = link.src_port
            if port.arbiter is None:
                result[key] = 0.0
            else:
                result[key] = port.arbiter.stats.utilization(now)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MangoNetwork {self.mesh.cols}x{self.mesh.rows} "
                f"t={self.sim.now:.1f}ns>")
