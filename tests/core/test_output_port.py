"""Tests for output ports, VC slots and flow-control windows."""

import collections
import gc
import hashlib

import pytest

from repro import ClockDomain, MangoNetwork, Coord, RouterConfig
from repro.circuits.sharebox import Sharebox, ShareProtocolError
from repro.core.output_port import VcSlot
from repro.core.vc_control import VcControlModule
from repro.network.adapter import NetworkAdapter
from repro.network.packet import BeFlit
from repro.network.topology import Direction
from repro.obs import ChromeTraceSink
from repro.sim.kernel import Simulator
from repro.sim.tracing import Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestShareFlow:
    """Share-based VC control: a window of one flit."""

    def test_ready_until_admitted(self, sim):
        flow = Sharebox(sim)
        assert flow.ready
        flow.admit()
        assert not flow.ready

    def test_release_reopens(self, sim):
        flow = Sharebox(sim)
        flow.admit()
        flow.release()
        assert flow.ready
        assert flow.admitted == 1


class TestCreditFlow:
    """Credit-based VC control: the same window, ``window`` flits wide."""

    def test_window_validation(self, sim):
        with pytest.raises(ValueError):
            Sharebox(sim, window=0)

    def test_window_admissions_without_release(self, sim):
        """The average-case advantage over share-based control: several
        flits in flight per VC."""
        flow = Sharebox(sim, window=3)
        flow.admit()
        flow.admit()
        assert flow.ready
        flow.admit()
        assert not flow.ready

    def test_underflow_rejected(self, sim):
        flow = Sharebox(sim, window=1)
        flow.admit()
        with pytest.raises(ShareProtocolError):
            flow.admit()

    def test_overflow_rejected(self, sim):
        flow = Sharebox(sim, window=2)
        with pytest.raises(ShareProtocolError):
            flow.release()

    def test_release_restores(self, sim):
        flow = Sharebox(sim, window=2)
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


class TestSlotFiresUnlock:
    """A VC slot hands the unlock toggle to the VC control module itself,
    as the flit leaves the unsharebox; the latch has no callback."""

    N_FLITS = 5

    def _one_hop(self, monkeypatch):
        """Send flits over one hop and log the first hop's accepts, the
        unlocks routed for its slot, and its contentions for the link."""
        net = MangoNetwork(2, 1)
        conn = net.open_connection_instant(Coord(0, 0), Coord(1, 0))
        hop = conn.hops[0]
        router = net.routers[hop.coord]
        slot = router.output_ports[hop.out_dir].slots[hop.vc]
        log = []
        accept, departed = VcSlot.accept, VcControlModule.departed
        contend = VcSlot.contend

        def logged_accept(this, flit):
            if this is slot:
                log.append(("accept", net.now, flit.payload))
            accept(this, flit)

        def logged_departed(module, out_port, vc):
            if module is router.vc_control and \
                    (out_port, vc) == (slot.out_port, slot.vc):
                log.append(("unlock", net.now, slot.unsharebox.departed,
                            slot.buffered))
            departed(module, out_port, vc)

        def logged_contend(this, event=None):
            if this is slot:
                log.append(("contend", net.now, this.buffered.payload))
            contend(this, event)
        monkeypatch.setattr(VcSlot, "accept", logged_accept)
        monkeypatch.setattr(VcControlModule, "departed", logged_departed)
        monkeypatch.setattr(VcSlot, "contend", logged_contend)
        for value in range(self.N_FLITS):
            conn.send(value)
        net.run(until=net.now + 500.0)
        assert conn.sink.payloads == list(range(self.N_FLITS))
        return net, slot, log

    def test_one_unlock_per_flit(self, monkeypatch):
        """Every departure from the latch routes exactly one unlock, on
        the network slot and on the NA-facing slot alike."""
        net, slot, log = self._one_hop(monkeypatch)
        unlocks = [entry for entry in log if entry[0] == "unlock"]
        assert [entry[2] for entry in unlocks] == \
            list(range(1, self.N_FLITS + 1))
        assert slot.flits_through == self.N_FLITS
        for router in net.routers.values():
            assert router.vc_control.unlocks_routed == self.N_FLITS
            assert router.vc_control.orphan_unlocks == 0

    def test_unlock_ends_the_transfer_before_the_flit_contends(
            self, monkeypatch):
        """The unlock fires at the end of the unshare transfer (the
        first flit: one transfer time after its accept), with the flit
        out of the latch and not yet in the buffer, and the next thing
        the slot does is contend with that flit."""
        _net, _slot, log = self._one_hop(monkeypatch)
        transfer_ns = RouterConfig().timing.unshare_transfer_ns()
        accepts = [entry for entry in log if entry[0] == "accept"]
        unlocks = [index for index, entry in enumerate(log)
                   if entry[0] == "unlock"]
        assert len(accepts) == len(unlocks) == self.N_FLITS
        assert log[unlocks[0]][1] == pytest.approx(
            accepts[0][1] + transfer_ns)
        for payload, (accepted, index) in enumerate(zip(accepts, unlocks)):
            _kind, when, _departed, buffered = log[index]
            assert buffered is None
            assert when >= accepted[1] + transfer_ns
            assert log[index + 1] == ("contend", when, payload)
            assert all(entry[2] != payload for entry in log[:index]
                       if entry[0] == "contend")


class TestMeshHasNoProcesses:
    def test_a_fresh_mesh_schedules_only_its_adapter_starts(self):
        """VC slots, their link senders, the BE router's inputs and
        output locks, the BE channels' senders, the NA and the router's
        local BE port all run as calls: a freshly built 4x4 mesh boots
        no process and schedules one start call per NA, which steps its
        transmit endpoints.  Its 576 slots, 384 GS senders, 80 BE
        inputs, 48 BE senders, 64 transmit endpoints, 64 receive
        interfaces and 16 local BE ports add none."""
        net = MangoNetwork(4, 4)
        sim = net.sim
        boots = [entry for entry in sim._heap
                 if entry[3] is None and entry[5] == (sim._boot_event,)]
        starts = collections.Counter(
            entry[4].__self__ for entry in sim._heap
            if entry[3] is None
            and entry[4].__func__ is NetworkAdapter._start_tx)
        assert len(sim._heap) == 16
        assert boots == []
        assert starts == {adapter: 1 for adapter in net.adapters.values()}


class TestBuildSize:
    def test_8x8_build_stays_under_the_tracked_object_budget(self):
        """A VC slot holds its latch and buffer as plain fields, fires
        its own unlock and contends for the link itself, an NA-facing
        slot builds no window, and the NA, the local BE port, the BE
        router's inputs and the BE channels' senders run as calls, so a
        mesh builds no per-VC callable, no process and no Store (a
        router's one Resource is its local BE injection lock).  The
        count is deterministic: 17,010
        tracked objects (20 more for the first build in a process),
        against 20,882 when the BE inputs and senders were processes on
        Stores and Resources, 23,250 when the NA's endpoints, BE
        dispatch and the local BE assembler were processes on Stores
        too, 37,394 when every network VC had a sender object with
        prebound calls and every slot bound its unlock hook, and 62,226
        when every slot kept two one-flit Stores and every window a
        Gate."""
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            net = MangoNetwork(8, 8)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added <= 17_100
        router = net.routers[Coord(0, 0)]
        assert all(slot.flow is None for slot in router.local_output.slots)
        assert all(slot.flow.window == 1
                   for slot in router.output_ports[Direction.EAST].slots)


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
            if slot.buffered is not None:
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
        assert chan.flow.window == chan.config.be_buffer_depth
        with pytest.raises(ShareProtocolError):
            chan.flow.release()  # nothing consumed yet
        for _ in range(chan.config.be_buffer_depth):
            chan.flow.admit()
        with pytest.raises(ShareProtocolError):
            chan.flow.admit()

    def test_a_put_into_a_full_queue_waits_for_the_next_grant(self):
        """A put into the full queue parks its flit; the next grant
        queues it and resumes the writer before the head flit leaves,
        and the channel keeps contending until its queue is empty."""
        net = MangoNetwork(2, 1)
        port = net.routers[Coord(0, 0)].output_ports[Direction.EAST]
        chan = port.be_tx[0]
        log = []
        port.link.transmit_be = lambda flit: log.append(
            ("sent", flit.word, len(chan.queue)))
        depth = chan.depth
        assert all(chan.put(BeFlit(word), None) for word in range(depth))
        assert not chan.put(BeFlit(depth), lambda: log.append(
            ("resumed", len(chan.queue))))
        net.run(until=100.0)
        assert log[:2] == [("resumed", depth), ("sent", 0, depth)]
        assert [entry[1] for entry in log[1:]] == list(range(depth + 1))
        assert chan.flits_sent == depth + 1 and chan.idle
