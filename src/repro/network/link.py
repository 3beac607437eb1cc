"""Physical links between routers, and the local link to the NA.

A link bundles, in one direction: the 39 flit wires (body + steering), and
in the reverse direction one unlock wire per GS VC (the share-based VC
control channel) plus one credit wire per BE channel.  Long links can be
pipelined (extra latch stages) to keep the flit rate up; the media cycle
seen by the link arbiter is then the slower of the router's link cycle and
the pipeline stage cycle.
"""

from __future__ import annotations

from typing import Optional

from ..circuits.pipeline import link_stage_parameters
from ..circuits.timing import TimingProfile
from ..network.packet import BeFlit, GsFlit, Steering
from ..network.topology import Coord, Direction, LinkSpec
from ..sim.kernel import Simulator

__all__ = ["Link", "LocalLink", "LOCAL_LINK_MM"]

#: Wire length between a router and its tile's network adapter.
LOCAL_LINK_MM = 0.3


class Link:
    """A unidirectional router-to-router link."""

    def __init__(self, sim: Simulator, spec: LinkSpec, src_router,
                 dst_router):
        self.sim = sim
        self.spec = spec
        self.src_router = src_router
        self.dst_router = dst_router
        self.direction = spec.direction
        self.in_dir = spec.direction.opposite
        profile: TimingProfile = src_router.config.timing
        self.profile = profile
        d = profile.delays

        extra_latches = (spec.stages - 1) * d.latch_capture
        self.forward_gs_ns = profile.ns(
            d.forward_path(spec.length_mm) + extra_latches)
        # BE flits stop after the split stage (3 steering bits stripped)
        # and land in the BE input buffer instead of a 4x4 switch.
        self.forward_be_ns = profile.ns(
            d.forward_path(spec.length_mm) + extra_latches
            - d.switch_stage - d.latch_capture + d.be_buffer_stage)
        self.unlock_ns = profile.ns(d.unlock_path(spec.length_mm))
        self.credit_ns = profile.ns(
            d.credit_return + d.wire_per_mm * spec.length_mm)

        # A pipelined link must not throttle the router; if under-staged,
        # the stage cycle dominates the media cycle.
        _forward, stage_cycle = link_stage_parameters(
            profile, spec.length_mm, spec.stages)
        self.media_cycle_ns = max(profile.link_cycle_ns, stage_cycle)

        self.gs_flits = 0
        self.be_flits = 0
        self.unlocks = 0

        # Trace emit point: hop spans (inject -> per-hop link occupancy
        # -> eject) go through the source router's tracer, a no-op
        # NULL_TRACER unless the run opted in.
        self.tracer = src_router.tracer
        self.label = f"{src_router.name}>{spec.direction.name}"

        # Every flit crosses a link (forward) and toggles a reverse wire,
        # so these handlers are prebound once instead of looked up (and
        # wrapped in a closure) per transfer.
        self._deliver_gs = dst_router.accept_gs_flit
        self._deliver_be = dst_router.accept_be_flit
        self._src_port = src_router.output_ports[spec.direction]

    @property
    def src_port(self):
        return self._src_port

    # -- forward wires -------------------------------------------------------

    def transmit_gs(self, flit: GsFlit, steering: Steering) -> None:
        """Carry a granted GS flit (with appended steering bits) to the
        next router's switching module."""
        self.gs_flits += 1
        if self.tracer.enabled:
            # Flit tags are run-relative (connection id + payload), never
            # the process-global flit_id, so traces from repeated runs
            # compare byte-identical.
            self.tracer.emit(self.sim.now, self.label, "hop",
                             flit=f"c{flit.connection_id}.{flit.payload}",
                             cls="gs", dur_ns=self.forward_gs_ns)
        self.sim.defer(self.forward_gs_ns, self._deliver_gs, self.in_dir,
                       steering, flit)

    def transmit_be(self, flit: BeFlit) -> None:
        self.be_flits += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.label, "hop",
                             flit=f"p{flit.packet_id}", cls="be",
                             dur_ns=self.forward_be_ns)
        self.sim.defer(self.forward_be_ns, self._deliver_be, self.in_dir,
                       flit)

    # -- reverse wires -------------------------------------------------------

    def send_unlock(self, vc: int) -> None:
        """Unlock toggle from the downstream VC control module back to the
        sharebox of VC ``vc`` at the upstream output port."""
        self.unlocks += 1
        self.sim.defer(self.unlock_ns, self._src_port.slots[vc].flow.release)

    def return_be_credit(self, vc: int) -> None:
        """Credit from the downstream BE input back to the window of BE
        channel ``vc`` at the upstream output port."""
        self.sim.defer(self.credit_ns, self._src_port.be_tx[vc].flow.release)


class LocalLink:
    """The NA-to-router local port wiring.

    GS injection interfaces are dedicated channels (no arbitration); each
    carries its own sharebox at the NA side, unlocked through this link by
    the router's VC control module.  The BE interface reuses the router's
    local injection path; its flow control is the input buffer capacity
    (blocking put ≡ zero-latency credits, see DESIGN.md).
    """

    def __init__(self, sim: Simulator, router, length_mm: float = LOCAL_LINK_MM):
        self.sim = sim
        self.router = router
        self.length_mm = length_mm
        profile: TimingProfile = router.config.timing
        self.profile = profile
        d = profile.delays
        self.forward_gs_ns = profile.ns(d.forward_path(length_mm))
        self.unlock_ns = profile.ns(d.unlock_path(length_mm))
        self.adapter = None
        self.gs_flits = 0
        self.tracer = router.tracer
        self.label = f"{router.name}<NA"
        router.attach_local_link(self)

    def attach_adapter(self, adapter) -> None:
        self.adapter = adapter

    def transmit_inject(self, steering: Steering, flit: GsFlit) -> None:
        """NA -> router: a GS flit enters the switching module on the
        LOCAL input."""
        self.gs_flits += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.label, "inject",
                             flit=f"c{flit.connection_id}.{flit.payload}",
                             cls="gs", dur_ns=self.forward_gs_ns)
        self.sim.defer(self.forward_gs_ns, self.router.accept_gs_flit,
                       Direction.LOCAL, steering, flit)

    def send_gs_unlock(self, iface: int) -> None:
        """Router -> NA: unlock the source endpoint's sharebox."""
        if self.adapter is None:
            raise RuntimeError(
                f"{self.router.name}: GS unlock for the local port but no "
                "adapter attached")
        self.sim.defer(self.unlock_ns, self.adapter.release_tx, iface)

    def return_be_credit(self, vc: int) -> None:
        """Local BE credits are implicit in the blocking injection path."""
        self.router.counters.bump("be_local_credits")
