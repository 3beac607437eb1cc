"""The pluggable router-backend contract.

The paper's central claim (Sections 4.1 and 6) is *comparative*: MANGO's
independently buffered VCs give hard service guarantees where a generic
arbitrated-switch VC router cannot, and do so without ÆTHEREAL's
slot-table quantisation.  A claim like that is only meaningful when the
same workload is replayed against the alternative architectures — so the
:class:`~repro.scenarios.runner.ScenarioRunner` builds its network
through a :class:`RouterBackend`, and every backend answers the same
three questions:

* :meth:`RouterBackend.build_network` — construct a network for a
  :class:`~repro.scenarios.spec.ScenarioSpec`'s mesh;
* :meth:`RouterBackend.open_connection` — reserve/program one GS
  connection (admission control included, however the architecture
  does it);
* :meth:`RouterBackend.latency_bound_ns` — the worst-case network
  latency the backend is *scored against* for paced (CBR) GS streams.

A network object returned by :meth:`build_network` is duck-typed against
the surface the runner, the traffic generators and the flit-hop
fingerprint actually touch (the :class:`~repro.network.network
.MangoNetwork` facade is the reference implementation):

========================  ===================================================
attribute / method        used by
========================  ===================================================
``sim``                   source processes, collectors, drive loops
``mesh``                  spatial patterns, per-tile workload construction
``config``                verdict slack, QoS contracts
``now`` / ``run``         the runner's drive loop
``links``                 ``{(Coord, Direction): obj}`` with ``.gs_flits`` /
                          ``.be_flits`` — flit-hop totals and fingerprints
``adapters``              ``{Coord: obj}`` with ``.be_inbox`` (a Store of
                          delivered ``BePacket``-likes), a ``send_be(dst,
                          words, vc)`` sub-generator, and
                          ``.local_link.gs_flits`` (GS injection count)
``connection_manager``    ``.connections`` — ``{id: conn}`` with ``.sink``
========================  ===================================================

Connections returned by :meth:`open_connection` expose ``send(payload,
last=False)``, ``n_hops`` and a :class:`~repro.network.connection.GsSink`
``sink`` — everything the GS sources and per-connection verdicts need.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

from ..core.config import RouterConfig
from ..network.topology import Coord

__all__ = ["BackendCapabilityError", "RouterBackend"]


class BackendCapabilityError(RuntimeError):
    """A scenario asks for something the selected backend cannot model
    (e.g. MANGO protocol-violation failure injection on a TDM network)."""


class RouterBackend(ABC):
    """One router architecture the scenario matrix can be replayed on.

    Subclasses are registered in :mod:`repro.backends` and selected with
    ``python -m repro scenario run|matrix --backend <name>``.  Instances
    are stateless: all run state lives in the network they build.
    """

    #: Registry key (``--backend`` value).
    name: str = ""

    #: One-line architecture summary for CLI/tables.
    description: str = ""

    #: Paper section(s) the model reproduces or is contrasted against.
    paper_section: str = ""

    #: Topology names (:attr:`ScenarioSpec.topology` values) the
    #: backend's network model can be built on.  The mesh-router
    #: backends are grid-only; the fabric backends list their fabrics.
    topologies: Tuple[str, ...] = ("mesh",)

    #: Whether the backend provides an *architectural* latency/bandwidth
    #: guarantee.  When False, :meth:`latency_bound_ns` returns the
    #: reference (MANGO fair-share) requirement instead and the QoS
    #: verdicts read as "does this architecture *happen* to meet the
    #: service level MANGO guarantees" — the Section 4.1 comparison.
    has_hard_guarantees: bool = False

    #: Whether the runner's MANGO-protocol failure injections
    #: (malformed config packets, orphan GS flits) are meaningful on
    #: this backend's network.
    supports_failure_injection: bool = False

    #: Whether the backend's network carries a full connection
    #: programming protocol (open/close via config packets at runtime),
    #: which a :class:`~repro.scenarios.spec.ChurnSpec` drives.
    supports_churn: bool = False

    #: Whether the backend admits connections through the pluggable
    #: :mod:`repro.alloc` strategies (``--allocator``); backends with
    #: their own admission discipline (TDM slot alignment, ...) do not.
    supports_alternate_allocators: bool = False

    @abstractmethod
    def build_network(self, spec, config: Optional[RouterConfig] = None,
                      obs=None):
        """Construct an idle network for ``spec``'s mesh (untimed).

        ``spec`` is a :class:`~repro.scenarios.spec.ScenarioSpec`; only
        its geometry (and, for clocked backends, timing-derived slot
        parameters) matter here — traffic is attached by the runner.
        ``obs`` is an optional :class:`repro.obs.ObsConfig`: backends
        attach its tracer to their emit points and hand its profiler to
        the kernel; ``None`` (the default) keeps every hot path on the
        untouched no-observability branch.
        """

    @abstractmethod
    def open_connection(self, network, src: Coord, dst: Coord):
        """Reserve and program one GS connection on ``network``.

        Performs the backend's own admission control (free VCs for
        MANGO, aligned slot trains for TDM, ...) and raises
        :class:`~repro.network.connection.AdmissionError` when the
        request cannot be accommodated.
        """

    @abstractmethod
    def latency_bound_ns(self, hops: int,
                         config: Optional[RouterConfig] = None) -> float:
        """Worst-case network latency (ns) a paced GS flit is scored
        against over ``hops`` links — the backend's own architectural
        bound when it has one (see :attr:`has_hard_guarantees`), the
        reference MANGO fair-share contract otherwise."""

    def check_spec(self, spec) -> None:
        """Raise :class:`BackendCapabilityError` for spec features the
        backend cannot model.  Called by the runner before building."""
        topology = getattr(spec, "topology", "mesh")
        if topology not in self.topologies:
            raise BackendCapabilityError(
                f"backend {self.name!r} builds "
                f"{'/'.join(self.topologies)} networks; scenario "
                f"{spec.name!r} is defined on the {topology!r} topology "
                "(drop --backend to auto-select the fabric's backend)")
        if spec.failure is not None and not self.supports_failure_injection:
            raise BackendCapabilityError(
                f"backend {self.name!r} models no MANGO programming "
                f"protocol, so the {spec.failure.kind!r} failure "
                f"injection of scenario {spec.name!r} is meaningless "
                "on it (run failure cells on --backend mango)")
        if spec.churn is not None and not self.supports_churn:
            raise BackendCapabilityError(
                f"backend {self.name!r} models no runtime connection "
                f"programming protocol, so the open/close churn of "
                f"scenario {spec.name!r} cannot run on it (run churn "
                "cells on --backend mango)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RouterBackend {self.name}>"
