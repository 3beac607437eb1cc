"""Tests for output ports, VC slots and flow-control strategies."""

import collections
import hashlib

import pytest

from repro import ClockDomain, MangoNetwork, Coord, RouterConfig
from repro.circuits.sharebox import ShareProtocolError
from repro.core.output_port import CreditFlow, ShareFlow, VcSlot
from repro.network.topology import Direction
from repro.obs import ChromeTraceSink
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestShareFlow:
    def test_ready_until_admitted(self, sim):
        flow = ShareFlow(sim)
        assert flow.ready
        flow.admit()
        assert not flow.ready

    def test_release_reopens(self, sim):
        flow = ShareFlow(sim)
        flow.admit()
        flow.release()
        assert flow.ready
        assert flow.admitted == 1


class TestCreditFlow:
    def test_window_validation(self, sim):
        with pytest.raises(ValueError):
            CreditFlow(sim, window=0)

    def test_window_admissions_without_release(self, sim):
        """The average-case advantage over share-based control: several
        flits in flight per VC."""
        flow = CreditFlow(sim, window=3)
        flow.admit()
        flow.admit()
        assert flow.ready
        flow.admit()
        assert not flow.ready

    def test_underflow_rejected(self, sim):
        flow = CreditFlow(sim, window=1)
        flow.admit()
        with pytest.raises(ShareProtocolError):
            flow.admit()

    def test_overflow_rejected(self, sim):
        flow = CreditFlow(sim, window=2)
        with pytest.raises(ShareProtocolError):
            flow.release()

    def test_release_restores(self, sim):
        flow = CreditFlow(sim, window=2)
        flow.admit()
        flow.admit()
        flow.release()
        assert flow.ready
        assert flow.credits == 1


class TestVcSlotPipeline:
    """Slot behaviour observed through a 2-router network."""

    def test_slot_capacity_is_two_flits(self):
        """Paper Section 4.4: output buffers are a single flit deep plus
        one flit in the unsharebox."""
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        hop = conn.hops[0]
        slot = net.routers[hop.coord].output_ports[hop.out_dir].slots[hop.vc]
        # Block the downstream by never consuming at the NA side: instead
        # saturate and sample occupancy.
        for value in range(50):
            conn.send(value)
        net.run(until=net.now + 500.0)
        assert slot.occupancy <= 2

    def test_flits_counted_through_slot(self):
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        hop = conn.hops[0]
        slot = net.routers[hop.coord].output_ports[hop.out_dir].slots[hop.vc]
        for value in range(10):
            conn.send(value)
        net.run(until=net.now + 500.0)
        assert slot.flits_through == 10
        assert conn.sink.count == 10

    def test_double_link_attach_rejected(self):
        net = MangoNetwork(2, 1)
        port = net.routers[Coord(0, 0)].output_ports[Direction.EAST]
        with pytest.raises(ValueError):
            port.attach_link(port.link)

    def test_unused_port_has_no_arbiter(self):
        """Mesh-edge ports are never attached; their senders never start."""
        net = MangoNetwork(2, 1)
        assert net.routers[Coord(0, 0)].output_ports[Direction.NORTH] \
            .arbiter is None


class TestGsPathHasNoProcesses:
    def test_boot_entries_are_be_and_adapter_processes_only(self):
        """VC slots and their link senders run as callbacks: a freshly
        built 4x4 mesh schedules boots for the BE input processes, the
        BE senders, the local BE assemblers and the NA endpoints only
        (its 576 slots and 384 GS senders add none)."""
        net = MangoNetwork(4, 4)
        sim = net.sim
        boots = collections.Counter(
            entry[4].__self__._generator.__qualname__
            for entry in sim._heap
            if entry[3] is None and entry[5] == (sim._boot_event,))
        assert sum(boots.values()) == len(sim._heap) == 288
        assert boots == {
            "BeRouter._input_process": 16 * 5,
            "NetworkOutputPort._be_sender": 48,
            "MangoRouter._local_be_assembler": 16,
            "NetworkAdapter._tx_run": 16 * 4,
            "NetworkAdapter._rx_run": 16 * 4,
            "NetworkAdapter._be_dispatch": 16,
        }


class TestSlotBehindClockedSink:
    """The two slot branches no golden cell reaches: a flit landing in
    an unsharebox that already latches one (credit mode), and a flit
    waiting in the latch because a slow clocked sink has not drained the
    buffer.  The exported timelines were recorded with the per-slot
    mover and sender processes the callbacks replace."""

    @pytest.mark.parametrize(
        "config, digest, behind_full_buffer, into_occupied_latch", [
            (RouterConfig(), "3be9ebce3c70024f", 196, 0),
            (RouterConfig(flow_control="credit", credit_window=4),
             "9fd79b132f092679", 161, 128),
        ], ids=["share", "credit"])
    def test_timeline_is_pinned(self, monkeypatch, config, digest,
                                behind_full_buffer, into_occupied_latch):
        seen = collections.Counter()
        accept = VcSlot.accept

        def counting_accept(slot, flit):
            if slot.unsharebox.occupied:
                seen["into_occupied_latch"] += 1
            accept(slot, flit)
            if slot.buffer.is_full:
                seen["behind_full_buffer"] += 1
        monkeypatch.setattr(VcSlot, "accept", counting_accept)
        sink = ChromeTraceSink()
        net = MangoNetwork(4, 1, config=config, tracer=Tracer(sink=sink),
                           clocks={Coord(3, 0): ClockDomain(period_ns=4.0)})
        conn = net.open_connection_instant(Coord(0, 0), Coord(3, 0))
        assert conn.n_hops == 3
        for value in range(60):
            conn.send(value)
        net.run(until=net.now + 5000.0)
        assert conn.sink.payloads == list(range(60))
        assert seen["behind_full_buffer"] == behind_full_buffer
        assert seen["into_occupied_latch"] == into_occupied_latch
        export = sink.to_json().encode()
        assert hashlib.sha256(export).hexdigest()[:16] == digest


class TestCreditModeEndToEnd:
    def test_credit_flow_delivers_in_order(self):
        config = RouterConfig(flow_control="credit", credit_window=4)
        net = MangoNetwork(2, 1, config=config)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        for value in range(100):
            conn.send(value)
        net.run(until=net.now + 3000.0)
        assert conn.sink.payloads == list(range(100))

    def test_credit_single_vc_outperforms_share(self):
        """Section 4.3: credit-based control improves average-case (here:
        single-VC throughput) over share-based control."""
        results = {}
        for name, config in (
                ("share", RouterConfig()),
                ("credit", RouterConfig(flow_control="credit",
                                        credit_window=4))):
            net = MangoNetwork(2, 1, config=config)
            conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
            for value in range(400):
                conn.send(value)
            net.run(until=net.now + 4000.0)
            results[name] = conn.sink.throughput_flits_per_ns()
        assert results["credit"] > results["share"] * 1.1


class TestBeTxChannel:
    def test_credit_accounting_protocol_errors(self):
        net = MangoNetwork(2, 1)
        chan = net.routers[Coord(0, 0)].output_ports[Direction.EAST].be_tx[0]
        with pytest.raises(ShareProtocolError):
            chan.credit_return()  # nothing consumed yet
        for _ in range(chan.config.be_buffer_depth):
            chan.consume_credit()
        with pytest.raises(ShareProtocolError):
            chan.consume_credit()
