"""Traffic generators and load-sweep utilities for the Data Vortex.

The test bed's purpose is characterizing the fabric under "various
signaling protocols"; these generators provide the standard network-
evaluation workloads (uniform random, hotspot, permutation, bursty)
and a sweep harness producing latency/throughput curves.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.vortex.fabric import DataVortexFabric, FabricConfig
from repro.vortex.stats import FabricStats


class TrafficPattern:
    """Base: pick a destination for each generated packet."""

    def destination(self, rng: np.random.Generator,
                    n_heights: int) -> int:
        raise NotImplementedError


class UniformTraffic(TrafficPattern):
    """Destinations uniform over all outputs."""

    def destination(self, rng, n_heights):
        return int(rng.integers(0, n_heights))


class HotspotTraffic(TrafficPattern):
    """A fraction of traffic aims at one hot output.

    Parameters
    ----------
    hot_output:
        The contended port.
    hot_fraction:
        Probability a packet targets it (the rest is uniform).
    """

    def __init__(self, hot_output: int = 0, hot_fraction: float = 0.5):
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot fraction must be in [0, 1], got {hot_fraction}"
            )
        self.hot_output = int(hot_output)
        self.hot_fraction = float(hot_fraction)

    def destination(self, rng, n_heights):
        if rng.random() < self.hot_fraction:
            return self.hot_output % n_heights
        return int(rng.integers(0, n_heights))


class PermutationTraffic(TrafficPattern):
    """Each source angle always sends to one fixed output (a static
    permutation, the classic worst reasonable case)."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._mapping: Optional[np.ndarray] = None
        self._cursor = 0

    def destination(self, rng, n_heights):
        if self._mapping is None or len(self._mapping) != n_heights:
            perm_rng = np.random.default_rng(self._seed)
            self._mapping = perm_rng.permutation(n_heights)
        dest = int(self._mapping[self._cursor % n_heights])
        self._cursor += 1
        return dest


class BurstyTraffic(TrafficPattern):
    """Runs of packets to the same destination (packet trains)."""

    def __init__(self, burst_length: int = 8):
        if burst_length < 1:
            raise ConfigurationError("burst length must be >= 1")
        self.burst_length = int(burst_length)
        self._remaining = 0
        self._current = 0

    def destination(self, rng, n_heights):
        if self._remaining == 0:
            self._current = int(rng.integers(0, n_heights))
            self._remaining = self.burst_length
        self._remaining -= 1
        return self._current


@dataclasses.dataclass(frozen=True)
class LoadPoint:
    """One point of a load sweep.

    Attributes
    ----------
    offered_load:
        Injection attempts per input per cycle (0-1).
    stats:
        The fabric's counters after the run.
    """

    offered_load: float
    stats: FabricStats

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency, cycles."""
        return self.stats.mean_latency()

    @property
    def throughput(self) -> float:
        """Delivered packets per cycle."""
        return self.stats.throughput()

    @property
    def deflection_rate(self) -> float:
        """Deflections per delivered packet."""
        return self.stats.deflection_rate()


def run_load_point(pattern: TrafficPattern, offered_load: float,
                   n_cycles: int = 300,
                   config: FabricConfig = FabricConfig(),
                   seed: int = 0,
                   drain: bool = True) -> LoadPoint:
    """Drive the fabric at one offered load.

    Each cycle, every injection angle attempts a packet with
    probability *offered_load*. Run it inside
    :func:`repro.telemetry.use_registry` to profile a whole load
    point in isolation.
    """
    if not 0.0 <= offered_load <= 1.0:
        raise ConfigurationError(
            f"offered load must be in [0, 1], got {offered_load}"
        )
    if n_cycles < 1:
        raise ConfigurationError("need >= 1 cycle")
    fab = DataVortexFabric(config)
    rng = np.random.default_rng(seed)
    for _ in range(n_cycles):
        for _ in range(config.n_angles):
            if rng.random() < offered_load:
                fab.submit(pattern.destination(rng,
                                               config.n_heights))
        fab.step()
    if drain:
        fab.drain(max_cycles=100_000)
    return LoadPoint(offered_load=offered_load, stats=fab.stats)


def load_sweep(pattern: TrafficPattern,
               loads=(0.1, 0.3, 0.5, 0.7, 0.9),
               **kwargs) -> List[LoadPoint]:
    """Latency/throughput curve over several offered loads."""
    return [run_load_point(pattern, load, **kwargs) for load in loads]


def compare_patterns(loads=(0.2, 0.6),
                     config: FabricConfig = FabricConfig(),
                     seed: int = 0) -> Dict[str, List[LoadPoint]]:
    """All four standard patterns over the same loads."""
    patterns = {
        "uniform": UniformTraffic(),
        "hotspot": HotspotTraffic(hot_fraction=0.5),
        "permutation": PermutationTraffic(seed=seed),
        "bursty": BurstyTraffic(burst_length=8),
    }
    return {
        name: load_sweep(p, loads=loads, config=config, seed=seed)
        for name, p in patterns.items()
    }
