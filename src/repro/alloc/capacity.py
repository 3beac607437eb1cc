"""The residual-capacity model of a mesh.

Admission control is a resource-allocation problem over two pools
(paper Section 3): the independently buffered VCs on every
unidirectional link, and the GS interfaces on every tile's local port.
:class:`ResidualCapacity` is the one view of those pools every
allocation strategy works against — either *attached* (wrapping the
live ``vc_pools``/``tx_pools``/``rx_pools`` of a
:class:`~repro.network.connection.ConnectionManager`, so a reservation
is the admission) or *detached* (a standalone model of an idle mesh,
for design-time demand-set studies à la Even & Fais, *Algorithms for
Network-on-Chip Design with Guaranteed QoS*).

Besides free/used counts the model knows what a reservation *means* in
bandwidth terms: every reserved VC pins one fair-share slot of the link
arbiter, i.e. the guaranteed rate of a one-hop
:class:`~repro.analysis.qos.QosContract`.  That is what the
``min-adaptive`` strategy's load costs and the enriched
:class:`~repro.network.connection.AdmissionError` diagnostics are
derived from.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.qos import contract_for_path
from ..core.config import RouterConfig
from ..network.connection import AdmissionError, Hop
from ..network.routing import max_route_hops
from ..network.topology import Coord, Direction, Mesh, Topology

__all__ = ["ResidualCapacity"]


class ResidualCapacity:
    """Free VC / GS-interface pools of a mesh, with bandwidth semantics.

    All mutating operations either complete atomically or roll back and
    raise :class:`~repro.network.connection.AdmissionError` carrying a
    residual snapshot of the exhausted resource.
    """

    def __init__(self, topology: Topology, config: RouterConfig,
                 vc_pools: Dict[Tuple[Coord, object], set],
                 tx_pools: Dict[Coord, set],
                 rx_pools: Dict[Coord, set],
                 detached: bool = True):
        self.topology = topology
        #: Grid-era alias (the topology layer grew out of the mesh).
        self.mesh = topology
        self.config = config
        self.vc_pools = vc_pools
        self.tx_pools = tx_pools
        self.rx_pools = rx_pools
        #: True when this model owns its pools (design-time planning);
        #: False when it is a live view of a ConnectionManager.
        self.detached = detached

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_manager(cls, manager) -> "ResidualCapacity":
        """A live view over a ConnectionManager's pools: reserving here
        *is* admitting on the network."""
        network = manager.network
        return cls(network.mesh, network.config, manager.vc_pools,
                   manager.tx_pools, manager.rx_pools, detached=False)

    @classmethod
    def fresh(cls, cols: int, rows: int,
              config: Optional[RouterConfig] = None,
              topology: Optional[Topology] = None) -> "ResidualCapacity":
        """A standalone model of an idle ``cols x rows`` fabric (the
        mesh unless a built ``topology`` is supplied): one VC pool per
        graph link, one GS-interface pool per tile."""
        config = config or RouterConfig()
        if topology is None:
            topology = Mesh(cols, rows,
                            link_length_mm=config.link_length_mm,
                            link_stages=config.link_stages)
        vcs = config.vcs_per_port
        vc_pools = {link.key: set(range(vcs))
                    for link in topology.graph_links()}
        ifaces = config.local_gs_interfaces
        tx_pools = {coord: set(range(ifaces)) for coord in topology.tiles()}
        rx_pools = {coord: set(range(ifaces)) for coord in topology.tiles()}
        return cls(topology, config, vc_pools, tx_pools, rx_pools,
                   detached=True)

    def clone(self) -> "ResidualCapacity":
        """An independent copy (for what-if passes, e.g. rip-up rounds).

        Only a detached model may be cloned — a live manager view has
        exactly one truth."""
        if not self.detached:
            raise ValueError("cannot clone a live ConnectionManager view")
        return ResidualCapacity(
            self.topology, self.config,
            {key: set(pool) for key, pool in self.vc_pools.items()},
            {key: set(pool) for key, pool in self.tx_pools.items()},
            {key: set(pool) for key, pool in self.rx_pools.items()},
            detached=True)

    # -- queries -----------------------------------------------------------

    @property
    def total_vcs(self) -> int:
        return self.config.vcs_per_port

    def free_vcs(self, coord: Coord, direction: Direction) -> int:
        return len(self.vc_pools[(coord, direction)])

    def used_vcs(self, coord: Coord, direction: Direction) -> int:
        return self.total_vcs - self.free_vcs(coord, direction)

    def utilization(self, coord: Coord, direction: Direction) -> float:
        """Reserved fraction of the link's GS VCs, in [0, 1]."""
        return self.used_vcs(coord, direction) / self.total_vcs

    def reserved_bandwidth(self, coord: Coord, direction: Direction
                           ) -> float:
        """Guaranteed flits/ns committed on the link: every reserved VC
        pins one fair-share grant per arbitration round."""
        per_vc = contract_for_path(1, self.config).min_bandwidth_flits_per_ns
        return self.used_vcs(coord, direction) * per_vc

    def exits(self, coord: Coord) -> Iterator[Tuple[object, Coord]]:
        """The outgoing links of a tile, in the topology's port order
        (direction-code order on the mesh — the deterministic expansion
        order of the search strategies)."""
        for port in self.topology.ports(coord):
            yield port, self.topology.port_neighbor(coord, port)

    def snapshot(self, used: Optional[Dict[Tuple[Coord, Direction], int]]
                 = None) -> Dict[str, object]:
        """A JSON-safe summary of residual state (current, or of a
        captured ``used``-count map)."""
        if used is None:
            used = {key: self.used_vcs(*key) for key in self.vc_pools}
        ranked = sorted(used.items(),
                        key=lambda item: (-item[1], item[0][0].x,
                                          item[0][0].y, item[0][1]))
        return {
            "links": len(used),
            "vcs_per_link": self.total_vcs,
            "vcs_reserved": sum(used.values()),
            "vcs_total": len(used) * self.total_vcs,
            "busiest": [f"{coord}->{direction.name}:"
                        f"{count}/{self.total_vcs}"
                        for (coord, direction), count in ranked[:3]
                        if count > 0],
        }

    def rejection_snapshot(self):
        """What every :class:`AdmissionError` raised here carries: the
        per-link used counts captured *at rejection time* (a cheap
        O(links) integer copy — batch allocators swallow rejections by
        the dozen), with the ranking/formatting deferred until someone
        actually reads ``error.snapshot``."""
        total = self.total_vcs
        used = {key: total - len(pool)
                for key, pool in self.vc_pools.items()}
        return lambda: self.snapshot(used)

    def _link_diag(self, coord: Coord, direction: Direction) -> str:
        return (f"{self.used_vcs(coord, direction)}/{self.total_vcs} VCs "
                f"reserved ({self.utilization(coord, direction):.3f} "
                f"utilization, {self.reserved_bandwidth(coord, direction):.5f}"
                f" flits/ns guaranteed bandwidth committed)")

    # -- admission pre-checks ----------------------------------------------

    def check_pair(self, src: Coord, dst: Coord) -> None:
        if src == dst:
            raise AdmissionError(
                "GS connections terminate on different local ports "
                "(paper Section 3)")

    def check_hop_cap(self, hops: int) -> None:
        # The admission hop cap is whatever the route encoder can
        # express in a chained header — the programming packets (and
        # their acks) travel on exactly those headers.
        if hops > max_route_hops():
            raise AdmissionError(
                f"path of {hops} hops exceeds the "
                f"{max_route_hops()}-hop capacity of the chained "
                "source-route headers the programming packets travel on")

    def check_ifaces(self, src: Coord, dst: Coord) -> None:
        ifaces = self.config.local_gs_interfaces
        if not self.tx_pools[src]:
            raise AdmissionError(
                f"no free GS source interface at {src}: all {ifaces} "
                f"local GS interfaces carry open connections",
                resource=("tx", src),
                snapshot=self.rejection_snapshot())
        if not self.rx_pools[dst]:
            raise AdmissionError(
                f"no free GS sink interface at {dst}: all {ifaces} "
                f"local GS interfaces carry open connections",
                resource=("rx", dst),
                snapshot=self.rejection_snapshot())

    # -- reservation -------------------------------------------------------

    def reserve_moves(self, src: Coord,
                      moves: Sequence[Direction]) -> List[Hop]:
        """Reserve the lowest free VC on every link of a move list;
        atomic (full rollback on the first exhausted link)."""
        hops: List[Hop] = []
        taken: List[Tuple[Coord, Direction, int]] = []
        here = src
        for move in moves:
            pool = self.vc_pools[(here, move)]
            if not pool:
                # Roll back *before* building the error, so the
                # diagnostic counts only committed reservations — not
                # this rejected request's own partial holds.
                for coord, direction, vc in taken:
                    self.vc_pools[(coord, direction)].add(vc)
                raise AdmissionError(
                    f"no free VC on link {here}->{move.name}: "
                    f"{self._link_diag(here, move)}",
                    resource=("vc", here, move),
                    snapshot=self.rejection_snapshot())
            vc = min(pool)
            pool.discard(vc)
            taken.append((here, move, vc))
            hops.append(Hop(here, move, vc))
            here = self.topology.port_neighbor(here, move)
        return hops

    def take_ifaces(self, src: Coord, dst: Coord) -> Tuple[int, int]:
        """Reserve the lowest free GS interface at both endpoints (the
        caller has verified both pools via :meth:`check_ifaces`)."""
        src_iface = min(self.tx_pools[src])
        dst_iface = min(self.rx_pools[dst])
        self.tx_pools[src].discard(src_iface)
        self.rx_pools[dst].discard(dst_iface)
        return src_iface, dst_iface

    def release(self, src: Coord, src_iface: int, dst: Coord,
                dst_iface: int, hops: Sequence[Hop]) -> None:
        """Return a full reservation to the pools (teardown)."""
        for hop in hops:
            self.vc_pools[(hop.coord, hop.out_dir)].add(hop.vc)
        self.tx_pools[src].add(src_iface)
        self.rx_pools[dst].add(dst_iface)
