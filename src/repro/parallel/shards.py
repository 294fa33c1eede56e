"""Shard planning: partition an ordered workload into shards.

A :class:`ShardPlan` slices an ordered workload — the bit budget
of a long BER run — into contiguous, near-equal shards that execute
independently; concatenating the shards' items reproduces the
canonical order, so the caller puts per-shard results back where
the serial code would have produced them. Planning is pure
bookkeeping: the same plan drives every executor backend, which is
what makes backend equivalence testable.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class Shard:
    """One independent slice of a workload.

    Attributes
    ----------
    index:
        Position of this shard in the plan.
    start:
        Offset of the shard's first item in the canonical order.
    items:
        The work items themselves, in canonical order.
    """

    index: int
    start: int
    items: Tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A partition of an ordered workload into independent shards.

    Attributes
    ----------
    shards:
        The shards, ordered by :attr:`Shard.index`; concatenating
        their items reproduces the canonical item order.
    total:
        Total items across all shards.
    """

    shards: Tuple[Shard, ...]
    total: int

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    # -- construction ------------------------------------------------------

    @classmethod
    def split(cls, items: Sequence[Any], n_shards: int) -> "ShardPlan":
        """Partition *items* into at most *n_shards* contiguous shards.

        Shard sizes differ by at most one item; order is preserved.
        More shards than items collapses to one item per shard.
        """
        items = list(items)
        if not items:
            raise ConfigurationError("cannot shard an empty workload")
        if n_shards < 1:
            raise ConfigurationError(
                f"need >= 1 shard, got {n_shards}"
            )
        n_shards = min(n_shards, len(items))
        bounds = np.linspace(0, len(items), n_shards + 1).astype(int)
        shards = []
        for k in range(n_shards):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            shards.append(Shard(index=k, start=lo,
                                items=tuple(items[lo:hi])))
        return cls(shards=tuple(shards), total=len(items))

    @classmethod
    def for_range(cls, total: int, n_shards: int) -> "ShardPlan":
        """Shard a 1-D budget (e.g. a BER run's bit count).

        Each shard carries one ``(start, count)`` item; counts sum
        to *total* and differ by at most one.
        """
        if total < 1:
            raise ConfigurationError(
                f"need a positive budget, got {total}"
            )
        if n_shards < 1:
            raise ConfigurationError(
                f"need >= 1 shard, got {n_shards}"
            )
        n_shards = min(n_shards, total)
        bounds = np.linspace(0, total, n_shards + 1).astype(int)
        ranges = [(int(bounds[k]), int(bounds[k + 1] - bounds[k]))
                  for k in range(n_shards)]
        return cls.split(ranges, n_shards)
