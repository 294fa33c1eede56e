"""Worker-side entry points for the parallel executor.

Everything here is a module-level function so the process backend
can pickle it. The chunk runner is the one frame every backend
executes; the BER shard worker shows the pattern for heavyweight
per-worker state (a tester rebuilt from a picklable spec and cached
for the worker's lifetime).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import telemetry

#: Chunk entries are ``(global_index, item, seed)`` triples.
ChunkEntry = Tuple[int, Any, Optional[int]]


def run_chunk(fn: Callable[[Any, Optional[int]], Any],
              entries: Sequence[ChunkEntry],
              collect_telemetry: bool) -> Tuple[List[Any],
                                                Optional[dict]]:
    """Execute one chunk of work items; the universal worker frame.

    Returns ``(results, telemetry_snapshot)``. With
    *collect_telemetry* the chunk runs inside a private registry
    whose snapshot rides back for the parent to merge — the process
    backend's path. The serial and thread backends pass ``False``:
    they run the chunk in the caller's context (the thread backend
    in a copy of it), so instrumented code already records into the
    caller's active registry directly.
    """
    if collect_telemetry:
        with telemetry.use_registry() as reg:
            results = [fn(item, seed) for _, item, seed in entries]
        return results, reg.to_dict()
    return [fn(item, seed) for _, item, seed in entries], None


# -- per-worker tester cache (BER characterization) -----------------------

# Thread-local so the thread backend gives each worker thread its own
# tester (MiniTester mutates DLC state during a loopback); each
# process-backend worker gets its own copy of the module state anyway.
_tester_cache = threading.local()


def _cached_system(spec: dict):
    """Rebuild (once per worker) the system described by *spec*."""
    from repro.core.system import TestSystem

    cache = getattr(_tester_cache, "by_spec", None)
    if cache is None:
        cache = _tester_cache.by_spec = {}
    key = (spec["class"], tuple(sorted(spec["kwargs"].items())))
    system = cache.get(key)
    if system is None:
        system = cache[key] = TestSystem.from_clone_spec(spec)
    return system


def ber_shard(tester, rate_gbps: Optional[float], item: Tuple[int, int],
              seed: Optional[int]) -> Tuple[int, int]:
    """One BER shard: loop back ``count`` bits on *tester*.

    *item* is a :meth:`ShardPlan.for_range` ``(start, count)``
    range; *seed* the shard's spawned seed. Returns
    ``(n_bits, n_errors)``.
    """
    _, count = item
    ber = tester.run_loopback(n_bits=int(count), seed=int(seed),
                              rate_gbps=rate_gbps).ber
    return ber.n_bits, ber.n_errors


def ber_shard_worker(spec: dict, rate_gbps: Optional[float],
                     item: Tuple[int, int],
                     seed: Optional[int]) -> Tuple[int, int]:
    """:func:`ber_shard` on this worker's cached clone of *spec*."""
    return ber_shard(_cached_system(spec), rate_gbps, item, seed)
