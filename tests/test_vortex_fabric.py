"""Tests for the cycle-accurate Data Vortex fabric."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FabricError
from repro.vortex.fabric import DataVortexFabric, FabricConfig
from repro.vortex.node import RoutingDecision, RoutingNode
from repro.vortex.packet import VortexPacket
from repro.vortex.routing import at_destination, wants_descent
from repro.vortex.topology import NodeAddress, VortexTopology


def _fabric(angles=3, heights=8):
    return DataVortexFabric(FabricConfig(n_angles=angles,
                                         n_heights=heights))


class TestNode:
    def test_single_residence(self):
        node = RoutingNode(NodeAddress(0, 0, 0))
        node.accept(VortexPacket(1, 0))
        with pytest.raises(FabricError):
            node.accept(VortexPacket(2, 0))

    def test_release_empty(self):
        with pytest.raises(FabricError):
            RoutingNode(NodeAddress(0, 0, 0)).release()



class TestLinks:
    @pytest.mark.parametrize("angles,heights",
                             [(1, 1), (3, 4), (5, 8), (2, 16)])
    def test_lone_hop_follows_topology(self, angles, heights):
        """From every node toward every destination, a lone packet's
        hop takes the link the topology defines: ejection at its
        height on the innermost cylinder, the ingression link when its
        routing bit matches, the same-cylinder link otherwise."""
        topo = VortexTopology(angles, heights)
        for addr in topo.nodes():
            for dest in range(heights):
                fab = _fabric(angles, heights)
                pkt = VortexPacket(0, dest)
                fab.nodes[addr].accept(pkt)
                decision = fab.step()[pkt.packet_id]
                assert pkt.hops == 1
                if at_destination(topo, addr, dest):
                    assert decision is RoutingDecision.EJECT
                    assert fab.delivered() == [pkt]
                    assert fab.packets_in_flight == 0
                    continue
                if wants_descent(topo, addr, dest):
                    expected = (RoutingDecision.DESCEND,
                                topo.descend_next(addr))
                else:
                    expected = (RoutingDecision.CIRCLE,
                                topo.same_cylinder_next(addr))
                landed = [a for a, node in fab.nodes.items()
                          if node.occupied]
                assert (decision, landed) == (expected[0],
                                              [expected[1]]), addr
                assert fab.nodes[expected[1]].packet is pkt


class TestDelivery:
    def test_single_packet_delivered(self):
        fab = _fabric()
        pkt = fab.submit(5)
        fab.drain()
        delivered = fab.delivered(5)
        assert len(delivered) == 1
        assert delivered[0].packet_id == pkt.packet_id

    @pytest.mark.parametrize("dest", range(8))
    def test_every_destination_reachable(self, dest):
        fab = _fabric()
        fab.submit(dest)
        fab.drain()
        assert len(fab.delivered(dest)) == 1

    def test_all_packets_delivered_correctly(self):
        fab = _fabric()
        rng = np.random.default_rng(1)
        wanted = {h: 0 for h in range(8)}
        for _ in range(120):
            d = int(rng.integers(0, 8))
            fab.submit(d)
            wanted[d] += 1
        fab.drain()
        for h in range(8):
            q = fab.delivered(h)
            assert len(q) == wanted[h]
            assert all(p.destination_height == h for p in q)

    def test_no_duplication_or_loss(self):
        fab = _fabric(angles=2, heights=4)
        ids = {fab.submit(i % 4).packet_id for i in range(40)}
        fab.drain()
        got = {p.packet_id for p in fab.delivered()}
        assert got == ids

    def test_min_latency_single_packet(self):
        """An uncontended packet descends once per cylinder (plus
        crossing hops): latency ~ C..2C cycles."""
        fab = _fabric()
        fab.submit(0)
        fab.drain()
        lat = fab.stats.records[0].latency_cycles
        assert fab.topology.n_cylinders <= lat <= \
            2 * fab.topology.n_cylinders + 2


class TestContention:
    def test_deflections_under_load(self):
        fab = _fabric(angles=2, heights=4)
        for _ in range(60):
            fab.submit(2)  # hot-spot destination
        fab.drain(max_cycles=20_000)
        assert fab.stats.deflections > 0
        assert fab.stats.delivered == 60

    def test_hotspot_slower_than_uniform(self):
        rng = np.random.default_rng(3)
        uniform = _fabric()
        for _ in range(100):
            uniform.submit(int(rng.integers(0, 8)))
        uniform.drain(max_cycles=20_000)

        hotspot = _fabric()
        for _ in range(100):
            hotspot.submit(3)
        hotspot.drain(max_cycles=20_000)
        assert hotspot.stats.mean_latency() > \
            uniform.stats.mean_latency()

    def test_injection_backpressure_counted(self):
        fab = _fabric(angles=2, heights=2)
        for _ in range(50):
            fab.submit(0)
        fab.run(3)
        assert fab.stats.injection_blocks > 0


class TestInvariants:
    def test_single_occupancy_every_cycle(self):
        fab = _fabric()
        rng = np.random.default_rng(7)
        for _ in range(80):
            fab.submit(int(rng.integers(0, 8)))
        for _ in range(50):
            fab.step()
            # accept() raises on double residence; also re-check.
            occupied = [n for n in fab.nodes.values() if n.occupied]
            ids = [n.packet.packet_id for n in occupied]
            assert len(ids) == len(set(ids))

    def test_resolved_bits_invariant_held(self):
        """Every resident packet's height must match its destination
        on all bits already resolved by its cylinder."""
        from repro.vortex.routing import resolved_height_bits

        fab = _fabric()
        rng = np.random.default_rng(11)
        for _ in range(100):
            fab.submit(int(rng.integers(0, 8)))
        for _ in range(40):
            fab.step()
            for node in fab.nodes.values():
                if node.occupied:
                    assert resolved_height_bits(
                        fab.topology, node.address.height,
                        node.packet.destination_height,
                        node.address.cylinder,
                    )

    def test_conservation(self):
        fab = _fabric()
        rng = np.random.default_rng(13)
        for _ in range(70):
            fab.submit(int(rng.integers(0, 8)))
        for _ in range(30):
            fab.step()
            total = (len(fab.injection_queue) + fab.packets_in_flight
                     + fab.stats.delivered)
            assert total == 70


class TestAPI:
    def test_bad_destination(self):
        with pytest.raises(ConfigurationError):
            _fabric(heights=4).submit(4)

    def test_negative_cycles(self):
        with pytest.raises(ConfigurationError):
            _fabric().run(-1)

    def test_drain_timeout(self):
        fab = _fabric(angles=2, heights=2)
        fab.submit(0)
        with pytest.raises(FabricError):
            fab.drain(max_cycles=0)

    def test_decisions_reported(self):
        fab = _fabric()
        fab.submit(0)
        fab.step()
        decisions = fab.step()
        assert decisions  # the injected packet moved somewhere
        assert all(isinstance(d, RoutingDecision)
                   for d in decisions.values())

    def test_occupancy_by_cylinder(self):
        fab = _fabric()
        fab.submit(0)
        fab.step()
        occ = fab.occupancy_by_cylinder()
        assert sum(occ.values()) == fab.packets_in_flight

    def test_submit_slot_from_testbed(self):
        """A test-bed PacketSlot becomes a vortex packet whose
        destination is the header address."""
        from repro.core.packetformat import PacketSlot, PacketSlotFormat

        fmt = PacketSlotFormat()
        slot = PacketSlot.random(fmt, address=6,
                                 rng=np.random.default_rng(0))
        fab = _fabric(heights=16)
        pkt = fab.submit_slot(slot)
        assert pkt.destination_height == 6
        fab.drain()
        assert len(fab.delivered(6)) == 1

    def test_submit_slot_address_range(self):
        from repro.core.packetformat import PacketSlot, PacketSlotFormat

        fmt = PacketSlotFormat()
        slot = PacketSlot.random(fmt, address=9,
                                 rng=np.random.default_rng(0))
        fab = _fabric(heights=8)
        with pytest.raises(ConfigurationError):
            fab.submit_slot(slot)


class TestStats:
    def test_summary_strings(self):
        fab = _fabric()
        assert "0 delivered" in fab.stats.summary()
        fab.submit(1)
        fab.drain()
        assert "delivered" in fab.stats.summary()

    def test_throughput(self):
        fab = _fabric()
        for h in range(8):
            fab.submit(h)
        fab.drain()
        assert 0.0 < fab.stats.throughput() <= 8.0

    def test_latency_in_ps(self):
        fab = _fabric()
        fab.submit(0)
        fab.drain()
        slot = fab.config.slot_time_ps
        assert fab.stats.mean_latency_ps(slot) == \
            pytest.approx(fab.stats.mean_latency() * slot)

    def test_acceptance_rate_bounds(self):
        fab = _fabric()
        fab.submit(0)
        fab.run(2)
        assert 0.0 < fab.stats.acceptance_rate() <= 1.0
