"""Cycle-accurate Data Vortex fabric simulator.

Synchronous slot-time simulation: every cycle each resident packet
takes exactly one hop (crossing, ingression, or ejection). Inner-
cylinder traffic has priority — a packet may only descend into a
node that is free after the inner cylinders have moved — which is
the deflection-routing discipline that replaces buffering.

State is struct-of-arrays (see :mod:`repro.vortex._soa`): occupancy,
destination-header, and journey counters live in flat arrays indexed
by node id, with the resident packet objects alongside. Stepping is
adaptive: above :attr:`DataVortexFabric.vector_threshold` resident
packets the routing decisions for a whole cylinder are made with
vectorized array math; below it a scalar pass over only the occupied
slots wins (numpy per-element overhead would dominate). Both paths
produce identical decisions, statistics, and packet journeys.

The ``nodes`` mapping of earlier versions survives as a live view:
each entry proxies one SoA slot, so inspection and fault-injection
code (``fab.nodes[addr].accept(...)``) behaves as before.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError, FabricError
from repro.vortex._soa import TopologyArrays, topology_arrays
from repro.vortex.node import RoutingDecision
from repro.vortex.packet import VortexPacket
from repro.vortex.stats import FabricStats
from repro.vortex.topology import NodeAddress, VortexTopology

#: Resident-packet count at or above which a step routes through the
#: vectorized path. Calibrated on the simulation-speed bench: numpy
#: small-array overhead beats the scalar pass only once a few dozen
#: packets are in flight.
DEFAULT_VECTOR_THRESHOLD = 48

_DECISION_BY_CODE = (RoutingDecision.EJECT, RoutingDecision.DESCEND,
                     RoutingDecision.CIRCLE, RoutingDecision.DEFLECT)
_EJECT, _DESCEND, _CIRCLE, _DEFLECT = range(4)


@dataclasses.dataclass(frozen=True)
class FabricConfig:
    """Simulation parameters.

    Attributes
    ----------
    n_angles, n_heights:
        Topology size (cylinder count follows from the heights).
    slot_time_ps:
        One hop's duration — the test bed's packet slot time
        (25.6 ns at the nominal format).
    """

    n_angles: int = 3
    n_heights: int = 4
    slot_time_ps: float = 25_600.0

    def __post_init__(self):
        if self.slot_time_ps <= 0.0:
            raise ConfigurationError("slot time must be positive")


class _NodeView:
    """Live view of one SoA slot, API-compatible with ``RoutingNode``."""

    __slots__ = ("_fabric", "_idx", "address")

    def __init__(self, fabric: "DataVortexFabric", idx: int,
                 address: NodeAddress):
        self._fabric = fabric
        self._idx = idx
        self.address = address

    @property
    def occupied(self) -> bool:
        """True when a packet is in residence."""
        return self._fabric._pkts[self._idx] is not None

    @property
    def packet(self) -> Optional[VortexPacket]:
        """The resident packet (journey counters synced), if any."""
        pkt = self._fabric._pkts[self._idx]
        if pkt is not None:
            self._fabric._sync_packet(self._idx, pkt)
        return pkt

    def accept(self, packet: VortexPacket) -> None:
        """Take a packet in; a second simultaneous resident is a
        fabric contention bug."""
        fab = self._fabric
        resident = fab._pkts[self._idx]
        if resident is not None:
            raise FabricError(
                f"node {self.address} already holds packet "
                f"{resident.packet_id}; cannot accept "
                f"{packet.packet_id}"
            )
        fab._place(self._idx, packet)

    def release(self) -> VortexPacket:
        """Hand the resident packet over (node becomes free)."""
        fab = self._fabric
        pkt = fab._pkts[self._idx]
        if pkt is None:
            raise FabricError(f"node {self.address} is empty")
        fab._sync_packet(self._idx, pkt)
        fab._occ[self._idx] = False
        fab._pkts[self._idx] = None
        return pkt

    def __repr__(self) -> str:
        return f"_NodeView({self.address}, occupied={self.occupied})"


class DataVortexFabric:
    """The running fabric: nodes, injection queues, output queues.

    Parameters
    ----------
    config:
        Simulation parameters.
    """

    def __init__(self, config: FabricConfig = FabricConfig()):
        self.config = config
        self.topology = VortexTopology(config.n_angles, config.n_heights)
        self.arrays: TopologyArrays = topology_arrays(self.topology)
        n = self.arrays.n_nodes
        # Struct-of-arrays node state, indexed by flat node id.
        self._occ = np.zeros(n, dtype=bool)
        self._dest = np.zeros(n, dtype=np.int64)
        self._pid = np.zeros(n, dtype=np.int64)
        self._hops = np.zeros(n, dtype=np.int64)
        self._defl = np.zeros(n, dtype=np.int64)
        self._pkts = np.full(n, None, dtype=object)
        self._nodes: Optional[Dict[NodeAddress, _NodeView]] = None
        self.vector_threshold = DEFAULT_VECTOR_THRESHOLD
        self.cycle = 0
        self.injection_queue: Deque[VortexPacket] = deque()
        self.output_queues: Dict[int, List[VortexPacket]] = {
            h: [] for h in range(config.n_heights)
        }
        self.stats = FabricStats()
        self._next_packet_id = 0
        self._inject_angle = 0

    # -- SoA plumbing ------------------------------------------------------

    @property
    def nodes(self) -> Dict[NodeAddress, _NodeView]:
        """Address-keyed live views of every node slot."""
        if self._nodes is None:
            self._nodes = {
                addr: _NodeView(self, i, addr)
                for i, addr in enumerate(self.arrays.addresses())
            }
        return self._nodes

    def _place(self, idx: int, packet: VortexPacket) -> None:
        """Seat *packet* at slot *idx*, mirroring its header/counters."""
        self._occ[idx] = True
        self._dest[idx] = packet.destination_height
        self._pid[idx] = packet.packet_id
        self._hops[idx] = packet.hops
        self._defl[idx] = packet.deflections
        self._pkts[idx] = packet

    def _sync_packet(self, idx: int, packet: VortexPacket) -> None:
        """Copy slot journey counters back onto the packet object."""
        packet.hops = int(self._hops[idx])
        packet.deflections = int(self._defl[idx])

    # -- packet entry ------------------------------------------------------

    def submit(self, destination_height: int,
               payload=None) -> VortexPacket:
        """Queue a packet for injection; returns the packet object."""
        if not 0 <= destination_height < self.topology.n_heights:
            raise ConfigurationError(
                f"destination {destination_height} outside the fabric's "
                f"{self.topology.n_heights} heights"
            )
        packet = VortexPacket(
            packet_id=self._next_packet_id,
            destination_height=destination_height,
            payload=payload,
            injected_cycle=self.cycle,
        )
        self._next_packet_id += 1
        self.injection_queue.append(packet)
        self.stats.submitted += 1
        return packet

    def submit_slot(self, slot) -> VortexPacket:
        """Queue a test-bed :class:`PacketSlot` as an optical packet."""
        packet = VortexPacket.from_slot(slot, self._next_packet_id,
                                        self.cycle)
        if packet.destination_height >= self.topology.n_heights:
            raise ConfigurationError(
                f"slot address {packet.destination_height} outside the "
                f"fabric's {self.topology.n_heights} heights"
            )
        self._next_packet_id += 1
        self.injection_queue.append(packet)
        self.stats.submitted += 1
        return packet

    # -- the clock ---------------------------------------------------------

    def step(self) -> Dict[int, RoutingDecision]:
        """Advance one slot time. Returns each moved packet's decision."""
        occ_idx = np.flatnonzero(self._occ)
        vectorized = len(occ_idx) >= self.vector_threshold
        if vectorized:
            decisions = self._route_vectorized(occ_idx)
        elif len(occ_idx):
            decisions = self._route_scalar(occ_idx)
        else:
            decisions = {}

        injected_before = self.stats.injected
        self._inject()
        self.cycle += 1
        self.stats.cycles = self.cycle

        tel = telemetry.active()
        if tel.enabled:
            n_ejected = sum(1 for d in decisions.values()
                            if d is RoutingDecision.EJECT)
            n_deflected = sum(1 for d in decisions.values()
                              if d is RoutingDecision.DEFLECT)
            tel.counter("vortex.steps").inc()
            if vectorized:
                tel.counter("vortex.vectorized_steps").inc()
            tel.counter("vortex.hops").inc(len(decisions))
            tel.counter("vortex.delivered").inc(n_ejected)
            tel.counter("vortex.deflections").inc(n_deflected)
            tel.counter("vortex.injected").inc(
                self.stats.injected - injected_before
            )
            tel.gauge("vortex.in_flight").set(
                int(np.count_nonzero(self._occ)))
        return decisions

    def _route_scalar(self, occ_idx: np.ndarray
                      ) -> Dict[int, RoutingDecision]:
        """Per-packet routing pass over the occupied slots only.

        Inner cylinders first (their moves free the slots outer
        packets descend into); within a cylinder, flat-id order —
        the same total order the node-scan implementation used.
        """
        ar = self.arrays
        heights = ar.heights_list
        cross = ar.cross_list
        desc = ar.desc_list
        bitmask = ar.bitmask_list
        inner_start = ar.inner_start
        pkts = self._pkts
        hops_a = self._hops
        defl_a = self._defl
        occ_list = occ_idx.tolist()  # ascending == cylinder-major
        starts = ar.cyl_starts_list
        bounds = [bisect_left(occ_list, s) for s in starts]
        claim = bytearray(ar.n_nodes)
        decisions: Dict[int, RoutingDecision] = {}
        moves = []  # (target, packet, hops, deflections)
        ejected = []

        # Innermost cylinders first; within a cylinder ascending flat
        # id (the node-scan implementation's dict order).
        for i in (occ_list[j]
                  for c in range(ar.n_cylinders - 1, -1, -1)
                  for j in range(bounds[c], bounds[c + 1])):
            pkt = pkts[i]
            dest = pkt.destination_height
            hops = int(hops_a[i]) + 1
            defl = int(defl_a[i])
            if i >= inner_start:  # innermost: eject or circle
                if heights[i] == dest:
                    decisions[pkt.packet_id] = RoutingDecision.EJECT
                    ejected.append((i, pkt, hops, defl))
                    continue
                target = cross[i]
                decisions[pkt.packet_id] = RoutingDecision.CIRCLE
            else:
                bm = bitmask[i]
                if bm == 0 or not (heights[i] ^ dest) & bm:
                    target = desc[i]
                    if not claim[target]:
                        decisions[pkt.packet_id] = RoutingDecision.DESCEND
                        claim[target] = 1
                        moves.append((target, pkt, hops, defl))
                        continue
                    defl += 1
                    self.stats.deflections += 1
                    decisions[pkt.packet_id] = RoutingDecision.DEFLECT
                else:
                    decisions[pkt.packet_id] = RoutingDecision.CIRCLE
                target = cross[i]
            if claim[target]:
                raise FabricError(
                    f"crossing-link contention at flat node {target}: "
                    "the crossing pattern must be a permutation"
                )
            claim[target] = 1
            moves.append((target, pkt, hops, defl))

        self._commit(occ_idx, moves, ejected)
        return decisions

    def _route_vectorized(self, occ_idx: np.ndarray
                          ) -> Dict[int, RoutingDecision]:
        """Array-math routing pass: one vectorized decision per
        cylinder, resolved innermost first."""
        ar = self.arrays
        dest = self._dest[occ_idx]
        pid = self._pid[occ_idx]
        hops = self._hops[occ_idx] + 1
        defl = self._defl[occ_idx]
        h = ar.heights[occ_idx]
        cross = ar.cross_next[occ_idx]
        desc = ar.desc_next[occ_idx]
        bm = ar.bitmask[occ_idx]
        m = len(occ_idx)
        n_cyl = ar.n_cylinders
        # occ_idx is sorted, so cylinder groups are contiguous runs.
        bounds = np.searchsorted(occ_idx, ar.cyl_starts)

        eject = np.zeros(m, dtype=bool)
        inner = slice(int(bounds[n_cyl - 1]), m)
        eject[inner] = h[inner] == dest[inner]
        wants = (bm == 0) | (((h ^ dest) & bm) == 0)
        wants[inner] = False  # innermost circles until ejection

        claim = np.zeros(ar.n_nodes, dtype=bool)
        desc_ok = np.zeros(m, dtype=bool)
        target = cross.copy()
        circ_inner = ~eject[inner]
        claim[cross[inner][circ_inner]] = True
        for c in range(n_cyl - 2, -1, -1):
            sl = slice(int(bounds[c]), int(bounds[c + 1]))
            if sl.start == sl.stop:
                continue
            ok = wants[sl] & ~claim[desc[sl]]
            desc_ok[sl] = ok
            tgt = np.where(ok, desc[sl], cross[sl])
            target[sl] = tgt
            claim[tgt] = True

        deflected = wants & ~desc_ok
        defl = defl + deflected
        moved = ~eject
        if int(np.count_nonzero(claim)) != int(np.count_nonzero(moved)):
            raise FabricError(
                "crossing-link contention: the crossing pattern "
                "must be a permutation"
            )
        self.stats.deflections += int(np.count_nonzero(deflected))

        codes = np.where(
            eject, _EJECT,
            np.where(desc_ok, _DESCEND,
                     np.where(deflected, _DEFLECT, _CIRCLE)),
        )
        decisions = {
            p: _DECISION_BY_CODE[code]
            for p, code in zip(pid.tolist(), codes.tolist())
        }

        pkts_moving = self._pkts[occ_idx]
        self._occ[occ_idx] = False
        self._pkts[occ_idx] = None
        mt = target[moved]
        self._occ[mt] = True
        self._dest[mt] = dest[moved]
        self._pid[mt] = pid[moved]
        self._hops[mt] = hops[moved]
        self._defl[mt] = defl[moved]
        self._pkts[mt] = pkts_moving[moved]

        for j in np.flatnonzero(eject).tolist():
            pkt = pkts_moving[j]
            pkt.hops = int(hops[j])
            pkt.deflections = int(defl[j])
            self.output_queues[int(h[j])].append(pkt)
            self.stats.record_delivery(pkt, self.cycle + 1)
        return decisions

    def _commit(self, occ_idx: np.ndarray, moves, ejected) -> None:
        """Drain the released slots and seat the moved packets."""
        self._occ[occ_idx] = False
        self._pkts[occ_idx] = None
        occ = self._occ
        dest_a = self._dest
        pid_a = self._pid
        hops_a = self._hops
        defl_a = self._defl
        pkts = self._pkts
        for target, pkt, hops, defl in moves:
            occ[target] = True
            dest_a[target] = pkt.destination_height
            pid_a[target] = pkt.packet_id
            hops_a[target] = hops
            defl_a[target] = defl
            pkts[target] = pkt
        for i, pkt, hops, defl in ejected:
            pkt.hops = hops
            pkt.deflections = defl
            self.output_queues[self.arrays.heights_list[i]].append(pkt)
            self.stats.record_delivery(pkt, self.cycle + 1)

    def _inject(self) -> None:
        """Inject into free outermost nodes, round-robin by angle."""
        if not self.injection_queue:
            return
        ar = self.arrays
        occ = self._occ
        a0 = self._inject_angle
        queue = self.injection_queue
        for k in range(ar.n_angles):
            if not queue:
                break
            angle = (a0 + k) % ar.n_angles
            base = angle * ar.n_heights
            for i in range(base, base + ar.n_heights):
                if not queue:
                    break
                if occ[i]:
                    continue
                packet = queue.popleft()
                packet.injected_cycle = self.cycle
                self._place(i, packet)
                self.stats.injected += 1
        # Backpressure is measured in packet-cycles spent waiting:
        # every packet still queued after the scan was blocked this
        # cycle. (Counting per occupied *node* scanned both inflated
        # the figure when a packet injected anyway and missed stalls
        # entirely once the angle scan was exhausted.)
        self.stats.injection_blocks += len(queue)
        self._inject_angle = (a0 + 1) % ar.n_angles

    def run(self, n_cycles: int) -> FabricStats:
        """Step the fabric *n_cycles* times."""
        if n_cycles < 0:
            raise ConfigurationError("cycle count must be >= 0")
        for _ in range(n_cycles):
            self.step()
        return self.stats

    def drain(self, max_cycles: int = 10_000) -> FabricStats:
        """Run until every submitted packet is delivered."""
        for _ in range(max_cycles):
            if self.packets_in_flight == 0 and not self.injection_queue:
                return self.stats
            self.step()
        raise FabricError(
            f"fabric did not drain within {max_cycles} cycles "
            f"({self.packets_in_flight} packets still in flight)"
        )

    # -- inspection --------------------------------------------------------

    @property
    def packets_in_flight(self) -> int:
        """Packets currently resident in fabric nodes."""
        return int(np.count_nonzero(self._occ))

    def occupancy_by_cylinder(self) -> Dict[int, int]:
        """Resident packet count per cylinder."""
        ar = self.arrays
        per_cyl = self._occ.reshape(ar.n_cylinders, -1).sum(axis=1)
        return {c: int(n) for c, n in enumerate(per_cyl)}

    def delivered(self, height: Optional[int] = None) -> List[VortexPacket]:
        """Packets delivered (optionally at one output height)."""
        if height is not None:
            return list(self.output_queues[height])
        out: List[VortexPacket] = []
        for q in self.output_queues.values():
            out.extend(q)
        return out
