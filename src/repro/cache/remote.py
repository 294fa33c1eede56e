"""The shared cross-host cache tier: read through to the master.

A :class:`RemoteCacheTier` gives a remote executor worker the full
:class:`~repro.cache.artifact.ArtifactCache` surface while layering
two stores: a small private in-memory LRU (so a shard that reuses
an artifact hundreds of times pays one fetch), and the pool
master's cache reached over the worker's wire connection (so the
first worker to compute an artifact warms every other worker on
every host). Lookup order is local memory, then the master, then
compute — and computed values publish back to the master, which
already has the atomic disk backing for cross-run persistence.

The tier is transport-agnostic: it takes two callables,
``fetch(key) -> (hit, value)`` and ``publish(key, value)``, which
:class:`repro.service.worker.WorkerSession` binds to
``cache_get``/``cache_put`` frames. Any failure on the wire
degrades to a local miss — a flaky master link slows a worker down,
never breaks it.

Stage-level counters keep their meaning: ``cache.{hits,misses,
stores}`` reflect the *tier* outcome (the inner LRU is silenced),
while ``cache.remote.{local_hits,hits,misses,puts}`` break out
where each hit came from. Both ride home to the master in the
per-chunk telemetry snapshot, so a merged registry counts
read-through traffic from every worker.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro import telemetry
from repro.cache.artifact import ArtifactCache

#: Default size of the worker-local front LRU.
LOCAL_ENTRIES = 256
LOCAL_BYTES = 64 * 1024 * 1024


class RemoteCacheTier:
    """Worker-side cache: local LRU over the master's shared store.

    Parameters
    ----------
    fetch:
        ``fetch(key) -> (hit, value)`` — one read-through round
        trip to the master (must degrade to a miss on failure).
    publish:
        ``publish(key, value)`` — fire-and-forget upload of a
        computed artifact.

    The front cache is a private in-memory :class:`ArtifactCache`
    (no disk backing — the master owns the disk tier). It runs
    silenced, so its own bookkeeping never double-counts the tier's
    telemetry.

    Counts go to the registry active at call time, so those recorded
    inside a chunk's collection scope ride home in its snapshot.
    """

    #: Stages consult this before building keys, like the real cache.
    enabled = True

    def __init__(self, fetch: Callable[[str], Tuple[bool, Any]],
                 publish: Callable[[str, Any], None]):
        self._fetch = fetch
        self._publish = publish
        self._local = ArtifactCache(max_entries=LOCAL_ENTRIES,
                                    max_bytes=LOCAL_BYTES)
        self.local_hits = 0
        self.remote_hits = 0
        self.misses = 0
        self.puts = 0

    # -- ArtifactCache surface ------------------------------------------

    def get(self, key: str):
        """``(hit, value)``: local memory, then the master's store."""
        tel = telemetry.active()
        with telemetry.use_registry(telemetry.NULL_REGISTRY):
            hit, value = self._local.get(key)
        if hit:
            self.local_hits += 1
            tel.counter("cache.hits").inc()
            tel.counter("cache.remote.local_hits").inc()
            return True, value
        hit, value = self._fetch(key)
        if hit:
            # Keep a private copy so the next probe is local.
            with telemetry.use_registry(telemetry.NULL_REGISTRY):
                self._local.put(key, value)
            self.remote_hits += 1
            tel.counter("cache.hits").inc()
            tel.counter("cache.remote.hits").inc()
            return True, value
        self.misses += 1
        tel.counter("cache.misses").inc()
        tel.counter("cache.remote.misses").inc()
        return False, None

    def put(self, key: str, value) -> None:
        """Store locally and publish to the master's shared store."""
        tel = telemetry.active()
        with telemetry.use_registry(telemetry.NULL_REGISTRY):
            self._local.put(key, value)
        self._publish(key, value)
        self.puts += 1
        tel.counter("cache.stores").inc()
        tel.counter("cache.remote.puts").inc()

    def get_or_compute(self, key: str, compute: Callable[[], Any]):
        """Cached value for *key*, computing (and publishing) on
        miss."""
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop the local front (the master's store is untouched)."""
        with telemetry.use_registry(telemetry.NULL_REGISTRY):
            self._local.clear()

    def stats(self) -> dict:
        """Tier traffic counters (plain dict)."""
        return {
            "local_hits": self.local_hits,
            "remote_hits": self.remote_hits,
            "hits": self.local_hits + self.remote_hits,
            "misses": self.misses,
            "puts": self.puts,
            "local_entries": len(self._local),
        }

    def __len__(self) -> int:
        return len(self._local)

    def __contains__(self, key: str) -> bool:
        return key in self._local

    def __repr__(self) -> str:
        return (f"RemoteCacheTier({self.local_hits} local hits, "
                f"{self.remote_hits} remote hits, "
                f"{self.misses} misses)")
