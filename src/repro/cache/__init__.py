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
Open a scope; every cache-aware stage called inside it consults
the scope's cache through :func:`active`::

    from repro import cache as artifact_cache
    from repro.signal.prbs import prbs_bits

    cache = artifact_cache.ArtifactCache(max_bytes=64 << 20)
    with artifact_cache.use_cache(cache):
        bits = prbs_bits(7, 4000)              # computes + stores
        bits = prbs_bits(7, 4000)              # hit
        runner.run(rates, swings)              # warm across cells

A signal stage has one cached route, its single-row call
(``NRZEncoder.encode``, ``LTIChannel.apply``,
``EyeDiagram.from_waveform``): a single-flight
:meth:`ArtifactCache.get_or_compute` around a one-row call of the
stage's batch form. The batch forms (``encode_batch``,
``apply_batch``, ``from_batch``) always compute, also inside a
scope.

:func:`enable` and :func:`disable` set the process-wide default
cache. :func:`use_cache` opens a scope that is local to the current
:mod:`contextvars` context, so two sweeps on two threads each see
their own cache. A scope covers the calling thread, the asyncio
tasks and ``asyncio.to_thread`` work it starts, the chunks a
``serial`` or ``thread`` :class:`~repro.parallel.Executor` runs for
it, and the event loop of a service started in it with
:func:`~repro.service.serve_in_thread`. It does not cover a thread
the caller starts itself: that thread sees the default (run its
target under ``contextvars.copy_context().run`` to carry the scope
over). A remote :class:`~repro.parallel.WorkerPool` serves its
workers the cache that was active where its latest run was called.

A ``process`` executor runs each chunk in an empty clone of the
caller's active cache, whatever the pool's start method, and ships
none when caching is off. Give the cache a ``disk_path`` and the
clones point at the same directory and read each other's
atomically-published entries.

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

import contextvars
from contextlib import contextmanager
from typing import Optional, Union

from repro.cache.artifact import ArtifactCache, NullCache
from repro.cache.keys import DIGEST_SIZE, array_digest, canonical_digest
from repro.cache.remote import RemoteCacheTier

__all__ = [
    "ArtifactCache", "NullCache", "NULL_CACHE", "RemoteCacheTier",
    "canonical_digest", "array_digest", "DIGEST_SIZE",
    "active", "enable", "disable", "enabled", "use_cache",
]

#: The shared disabled-path cache; `active()` returns it whenever
#: caching is off.
NULL_CACHE = NullCache()

#: The process-wide default, set by :func:`enable`/:func:`disable`.
_default: Union[ArtifactCache, NullCache] = NULL_CACHE
#: The innermost :func:`use_cache` scope of the current context
#: (unset outside any scope).
_scope: contextvars.ContextVar = contextvars.ContextVar(
    "repro.cache.scope")


def active() -> Union[ArtifactCache, NullCache]:
    """The cache stage code should consult right now.

    The innermost :func:`use_cache` scope of the current context,
    else the process-wide default: the cache :func:`enable`
    installed, or the shared :data:`NULL_CACHE` when disabled.
    """
    return _scope.get(_default)


def enable(cache: Optional[ArtifactCache] = None) -> ArtifactCache:
    """Make *cache* (a fresh one if omitted) the process default.

    Contexts with an open :func:`use_cache` scope keep their scope.
    Returns the new default.
    """
    global _default
    _default = cache if cache is not None else ArtifactCache()
    return _default


def disable() -> None:
    """Make the compute-every-time path the process default again."""
    global _default
    _default = NULL_CACHE


def enabled() -> bool:
    """True while :func:`active` is a real cache."""
    return active() is not NULL_CACHE


@contextmanager
def use_cache(cache: Optional[ArtifactCache] = None):
    """Activate *cache* (a fresh one by default) in this context.

    The scope is local to the current :mod:`contextvars` context (see
    the module docstring for what it covers) and is reset on exit;
    yields the cache. The one way to hand a cache to stage calls,
    also for executor runs: ``process`` chunks each get an empty
    clone of it and ``remote`` workers read through it.
    ``ShmooRunner(cache=)`` opens it around each sweep.
    """
    c = cache if cache is not None else ArtifactCache()
    token = _scope.set(c)
    try:
        yield c
    finally:
        _scope.reset(token)
