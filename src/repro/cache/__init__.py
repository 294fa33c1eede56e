"""repro.cache — content-addressed memoization of stage artifacts.

Sweeps (shmoo plots, BER characterization, wafer sort) re-run almost
identical simulation pipelines point after point: the same PRBS
stream, the same rendered waveform, the same channel convolution,
with only a threshold or sampling phase moved. This subsystem caches
those stage outputs under canonical digests of their *producing
configuration*, so a warm sweep pays only for the stages that
actually changed.

Usage
-----
Opt-in per call or per component::

    from repro.cache import ArtifactCache
    from repro.signal.prbs import prbs_bits

    cache = ArtifactCache(max_bytes=64 << 20)
    bits = prbs_bits(7, 4000, cache=cache)     # computes + stores
    bits = prbs_bits(7, 4000, cache=cache)     # hit

Scoped activation (every cache-aware stage underneath resolves it)::

    from repro import cache as artifact_cache

    with artifact_cache.use_cache(cache):
        runner.run(rates, swings)              # warm across cells

Sharing across ``repro.parallel`` process shards: give the cache a
``disk_path`` — workers receive an empty clone pointing at the same
directory and read each other's atomically-published entries.

Concurrent thread shards share one cache without duplicating work:
:meth:`ArtifactCache.get_or_compute` is single-flight, so the first
thread to miss a key computes it and the others asking for that key
meanwhile wait for its result (``misses`` equals the number of
computes).

Cache traffic is observable through ``repro.telemetry`` as
``cache.{hits,misses,evictions,stores,waits}`` counters plus the
``cache.bytes`` gauge, and locally via :meth:`ArtifactCache.stats`;
``cache.waits`` counts the lookups that waited on another thread's
compute, i.e. how much of a sweep serialized on in-flight keys.

Correctness contract: a cached pipeline is *bit-identical* to the
uncached one — stages only consult the cache when their inputs fully
determine their output (e.g. ``NRZEncoder.encode`` bypasses it when
a jitter model would draw from a caller-supplied RNG).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.cache.artifact import ArtifactCache, NullCache
from repro.cache.keys import DIGEST_SIZE, array_digest, canonical_digest
from repro.cache.remote import RemoteCacheTier

__all__ = [
    "ArtifactCache", "NullCache", "NULL_CACHE", "RemoteCacheTier",
    "canonical_digest", "array_digest", "DIGEST_SIZE",
    "active", "resolve", "enable", "disable", "enabled", "use_cache",
    "get_or_compute_rows",
]

#: The shared disabled-path cache; `active()` returns it whenever
#: caching is off.
NULL_CACHE = NullCache()

_active: Union[ArtifactCache, NullCache] = NULL_CACHE


def active() -> Union[ArtifactCache, NullCache]:
    """The cache stage code should consult right now.

    An activated :class:`ArtifactCache` when caching is on; the
    shared :data:`NULL_CACHE` otherwise.
    """
    return _active


def resolve(cache: Optional[ArtifactCache]
            ) -> Union[ArtifactCache, NullCache]:
    """*cache* if injected, else whatever :func:`active` returns.

    The one-line helper every cache-aware stage with an injectable
    ``cache=`` argument uses (mirroring ``telemetry.resolve``).
    """
    return cache if cache is not None else _active


def get_or_compute_rows(store, keys: Sequence[str],
                        compute: Callable[[List[int]], Sequence[Any]]
                        ) -> List[Any]:
    """Per-row values for a batched stage, computing only the misses.

    Row *i* is looked up under ``keys[i]`` (the scalar entry point's
    key for that row, so the two paths share entries). The missing
    row indices go to *compute* in one call, which returns their
    values in the same order as a sub-batch; each is stored under
    its own key. Returns every row's value, hits and fresh alike.
    """
    values = []
    for key in keys:
        hit, value = store.get(key)
        values.append(value if hit else None)
    missing = [i for i, value in enumerate(values) if value is None]
    if missing:
        for i, value in zip(missing, compute(missing)):
            store.put(keys[i], value)
            values[i] = value
    return values


def enable(cache: Optional[ArtifactCache] = None) -> ArtifactCache:
    """Activate *cache* (a fresh default-sized one if omitted).

    Returns the now-active cache.
    """
    global _active
    _active = cache if cache is not None else ArtifactCache()
    return _active


def disable() -> None:
    """Deactivate; stages revert to the compute-every-time path."""
    global _active
    _active = NULL_CACHE


def enabled() -> bool:
    """True while a real cache is active."""
    return _active is not NULL_CACHE


@contextmanager
def use_cache(cache: Optional[ArtifactCache] = None):
    """Temporarily activate *cache* (a fresh one by default).

    Restores the previous state on exit; yields the cache. The
    scoping primitive ``TestProgram`` and ``ShmooRunner`` build on.
    """
    global _active
    c = cache if cache is not None else ArtifactCache()
    previous = _active
    _active = c
    try:
        yield c
    finally:
        _active = previous
