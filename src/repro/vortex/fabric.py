"""Cycle-accurate Data Vortex fabric simulator.

Synchronous slot-time simulation: every cycle each resident packet
takes exactly one hop (crossing, ingression, or ejection). Inner-
cylinder traffic has priority — a packet may only descend into a
node that is free after the inner cylinders have moved — which is
the deflection-routing discipline that replaces buffering.

A resident packet has one record, the :class:`VortexPacket` itself,
seated at its node's slot; it counts its own hops and deflections.
Slots number the nodes innermost cylinder first, so one pass over
the occupied slots in ascending order is the routing order. The link
tables the pass reads are built once per geometry from
:class:`VortexTopology`'s own link functions.

``nodes`` maps each address to a live view of its slot, so inspection
and fault-injection code (``fab.nodes[addr].accept(...)``) sees the
state the step routes.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import ConfigurationError, FabricError
from repro.vortex.node import RoutingDecision
from repro.vortex.packet import VortexPacket
from repro.vortex.stats import FabricStats
from repro.vortex.topology import NodeAddress, VortexTopology


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


@dataclasses.dataclass(frozen=True)
class _Links:
    """The link structure of one geometry, as tuples indexed by slot.

    Slots number the nodes innermost cylinder first, then by angle and
    height, so the innermost cylinder holds slots ``0 .. n_inner - 1``.
    """

    slots: Dict[NodeAddress, int]
    cylinders: Tuple[int, ...]
    heights: Tuple[int, ...]
    cross: Tuple[int, ...]    # same-cylinder link target
    desc: Tuple[int, ...]     # ingression link target; -1 innermost
    mask: Tuple[int, ...]     # height bit the node resolves; 0 if none
    inject: Tuple[Tuple[int, ...], ...]  # outermost slots, per angle
    n_inner: int


@functools.lru_cache(maxsize=None)
def _links(n_angles: int, n_heights: int) -> _Links:
    """The link tables of one geometry, shared by its fabrics."""
    topo = VortexTopology(n_angles, n_heights)
    inner = topo.n_cylinders - 1
    addrs = sorted(topo.nodes(), key=lambda a: inner - a.cylinder)
    slots = {addr: i for i, addr in enumerate(addrs)}
    return _Links(
        slots=slots,
        cylinders=tuple(a.cylinder for a in addrs),
        heights=tuple(a.height for a in addrs),
        cross=tuple(slots[topo.same_cylinder_next(a)] for a in addrs),
        desc=tuple(slots[topo.descend_next(a)] if a.cylinder < inner
                   else -1 for a in addrs),
        mask=tuple(a.height ^ topo.crossing_height(a.cylinder, a.height)
                   for a in addrs),
        inject=tuple(tuple(slots[NodeAddress(0, a, h)]
                           for h in range(n_heights))
                     for a in range(n_angles)),
        n_inner=n_angles * n_heights,
    )


class _NodeView:
    """Live view of one node slot, API-compatible with ``RoutingNode``."""

    __slots__ = ("_fabric", "_slot", "address")

    def __init__(self, fabric: "DataVortexFabric", slot: int,
                 address: NodeAddress):
        self._fabric = fabric
        self._slot = slot
        self.address = address

    @property
    def occupied(self) -> bool:
        """True when a packet is in residence."""
        return self._slot in self._fabric._resident

    @property
    def packet(self) -> Optional[VortexPacket]:
        """The resident packet, if any."""
        return self._fabric._resident.get(self._slot)

    def accept(self, packet: VortexPacket) -> None:
        """Take a packet in; a second simultaneous resident is a
        fabric contention bug."""
        resident = self._fabric._resident
        held = resident.get(self._slot)
        if held is not None:
            raise FabricError(
                f"node {self.address} already holds packet "
                f"{held.packet_id}; cannot accept "
                f"{packet.packet_id}"
            )
        resident[self._slot] = packet

    def release(self) -> VortexPacket:
        """Hand the resident packet over (node becomes free)."""
        packet = self._fabric._resident.pop(self._slot, None)
        if packet is None:
            raise FabricError(f"node {self.address} is empty")
        return packet

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
        self._links = _links(config.n_angles, config.n_heights)
        # Resident packets by slot.
        self._resident: Dict[int, VortexPacket] = {}
        self._nodes: Optional[Dict[NodeAddress, _NodeView]] = None
        self.cycle = 0
        self.injection_queue: Deque[VortexPacket] = deque()
        self.output_queues: Dict[int, List[VortexPacket]] = {
            h: [] for h in range(config.n_heights)
        }
        self.stats = FabricStats()
        self._next_packet_id = 0
        self._inject_angle = 0

    @property
    def nodes(self) -> Dict[NodeAddress, _NodeView]:
        """Address-keyed live views of every node slot."""
        if self._nodes is None:
            slots = self._links.slots
            self._nodes = {
                addr: _NodeView(self, slots[addr], addr)
                for addr in self.topology.nodes()
            }
        return self._nodes

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
        decisions = self._route()
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
            tel.counter("vortex.hops").inc(len(decisions))
            tel.counter("vortex.delivered").inc(n_ejected)
            tel.counter("vortex.deflections").inc(n_deflected)
            tel.counter("vortex.injected").inc(
                self.stats.injected - injected_before
            )
            tel.gauge("vortex.in_flight").set(len(self._resident))
        return decisions

    def _route(self) -> Dict[int, RoutingDecision]:
        """Move every resident packet one hop, in ascending slot order:
        inner cylinders first (their moves free the nodes outer
        packets descend into), and address order within a cylinder."""
        links = self._links
        heights, cross, desc, mask = (links.heights, links.cross,
                                      links.desc, links.mask)
        n_inner = links.n_inner
        EJECT, DESCEND, CIRCLE, DEFLECT = (
            RoutingDecision.EJECT, RoutingDecision.DESCEND,
            RoutingDecision.CIRCLE, RoutingDecision.DEFLECT)
        resident = self._resident
        moved: Dict[int, VortexPacket] = {}
        decisions: Dict[int, RoutingDecision] = {}
        for i in sorted(resident):
            pkt = resident[i]
            pkt.hops += 1
            dest = pkt.destination_height
            if i < n_inner:  # innermost: eject or circle
                if heights[i] == dest:
                    decisions[pkt.packet_id] = EJECT
                    self.output_queues[dest].append(pkt)
                    self.stats.record_delivery(pkt, self.cycle + 1)
                    continue
                decision = CIRCLE
            elif (heights[i] ^ dest) & mask[i]:  # routing bit differs
                decision = CIRCLE
            elif desc[i] not in moved:  # the way in is free
                moved[desc[i]] = pkt
                decisions[pkt.packet_id] = DESCEND
                continue
            else:
                pkt.deflections += 1
                self.stats.deflections += 1
                decision = DEFLECT
            target = cross[i]
            if target in moved:
                raise FabricError(
                    f"crossing-link contention at slot {target}: "
                    "the crossing pattern must be a permutation"
                )
            moved[target] = pkt
            decisions[pkt.packet_id] = decision
        self._resident = moved
        return decisions

    def _inject(self) -> None:
        """Inject into free outermost nodes, round-robin by angle."""
        queue = self.injection_queue
        if not queue:
            return
        resident = self._resident
        inject = self._links.inject
        n_angles = len(inject)
        a0 = self._inject_angle
        for k in range(n_angles):
            if not queue:
                break
            for i in inject[(a0 + k) % n_angles]:
                if not queue:
                    break
                if i in resident:
                    continue
                packet = queue.popleft()
                packet.injected_cycle = self.cycle
                resident[i] = packet
                self.stats.injected += 1
        # Backpressure is measured in packet-cycles spent waiting:
        # every packet still queued after the scan was blocked this
        # cycle. (Counting per occupied *node* scanned both inflated
        # the figure when a packet injected anyway and missed stalls
        # entirely once the angle scan was exhausted.)
        self.stats.injection_blocks += len(queue)
        self._inject_angle = (a0 + 1) % n_angles

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
        return len(self._resident)

    def occupancy_by_cylinder(self) -> Dict[int, int]:
        """Resident packet count per cylinder."""
        counts = dict.fromkeys(range(self.topology.n_cylinders), 0)
        cylinders = self._links.cylinders
        for i in self._resident:
            counts[cylinders[i]] += 1
        return counts

    def delivered(self, height: Optional[int] = None) -> List[VortexPacket]:
        """Packets delivered (optionally at one output height)."""
        if height is not None:
            return list(self.output_queues[height])
        out: List[VortexPacket] = []
        for q in self.output_queues.values():
            out.extend(q)
        return out
