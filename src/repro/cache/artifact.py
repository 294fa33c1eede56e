"""The content-addressed artifact cache.

:class:`ArtifactCache` memoizes expensive stage outputs (PRBS
bitstreams, rendered waveforms, channel convolutions, folded eyes)
under canonical digests of their producing configuration. Entries
live in a bounded in-memory LRU; an optional on-disk backing store
extends hits across processes — writes are atomic
(temp-file + ``os.replace``), so concurrent readers in
``repro.parallel`` process workers only ever see complete entries.

Mutable values (numpy arrays) are copied both into and out of the
store, so a hit can never alias state a caller later mutates;
:class:`~repro.signal.waveform.Waveform` instances are externally
immutable and pass through uncopied (zero-copy hits).

:meth:`ArtifactCache.get_or_compute` is single-flight: the first
thread to miss a key computes it, and threads asking for that key
meanwhile wait for its result instead of computing it again.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import telemetry
from repro.errors import ConfigurationError

#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISSING = object()


def _sizeof(value) -> int:
    """Approximate retained bytes of one cached value."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_sizeof(v) for v in value) + 16 * len(value)
    if isinstance(value, dict):
        return sum(_sizeof(k) + _sizeof(v)
                   for k, v in value.items()) + 32 * len(value)
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if hasattr(value, "values") and hasattr(value, "dt"):
        # Waveform-shaped: dominated by its sample array.
        try:
            return int(value.values.nbytes) + 64
        except AttributeError:
            pass
    if hasattr(value, "voltages") and hasattr(value, "crossing_phases"):
        # EyeDiagram-shaped: the arrays it owns. A view's memory
        # belongs to the array it views (typically a cached
        # waveform, counted under that waveform's own key).
        return sum(int(a.nbytes) for a in vars(value).values()
                   if isinstance(a, np.ndarray) and a.base is None) + 64
    return 64


def _copy_out(value):
    """A mutation-safe version of *value* to hand to a caller.

    Arrays are copied; containers recurse; everything else (scalars,
    strings, externally immutable objects like ``Waveform``) passes
    through.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(_copy_out(v) for v in value)
    if isinstance(value, list):
        return [_copy_out(v) for v in value]
    if isinstance(value, dict):
        return {k: _copy_out(v) for k, v in value.items()}
    return value


class ArtifactCache:
    """Bounded content-addressed memoization store.

    Parameters
    ----------
    max_entries:
        In-memory entry cap; least-recently-used entries evict first.
    max_bytes:
        In-memory retained-size cap (approximate, array-dominated).
    disk_path:
        Optional directory for a persistent backing store shared
        across processes. Misses fall through to disk before
        computing; computed entries are written back atomically, so
        ``repro.parallel`` process shards warm each other's caches.

    Traffic is recorded into the telemetry registry active where each
    call runs, as ``cache.{hits,misses,evictions,stores,waits}``
    counters and the ``cache.bytes`` gauge; ``cache.waits`` counts
    the :meth:`get_or_compute` lookups that waited on another
    thread's compute of the same key.
    """

    #: A real cache memoizes; the :class:`NullCache` twin reports
    #: False so stages skip key construction entirely.
    enabled = True

    def __init__(self, max_entries: int = 512,
                 max_bytes: int = 256 * 1024 * 1024,
                 disk_path=None):
        if max_entries < 1:
            raise ConfigurationError(
                f"need >= 1 entry, got {max_entries}"
            )
        if max_bytes < 1:
            raise ConfigurationError(
                f"need a positive byte budget, got {max_bytes}"
            )
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.disk_path = Path(disk_path) if disk_path is not None \
            else None
        if self.disk_path is not None:
            self.disk_path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        self.waits = 0
        self._entries: "OrderedDict[str, Tuple[Any, int]]" \
            = OrderedDict()
        self._nbytes = 0
        self._lock = threading.RLock()
        # Key -> (computing thread's ident, event set when it ends).
        self._flights: Dict[str, Tuple[int, threading.Event]] = {}

    # -- pickling (process-backend workers) ----------------------------

    def __getstate__(self):
        # Workers get the *configuration*, not the contents: an
        # empty same-shaped cache whose disk path (when set) still
        # points at the shared store.
        return {
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "disk_path": str(self.disk_path)
            if self.disk_path is not None else None,
        }

    def __setstate__(self, state):
        self.__init__(max_entries=state["max_entries"],
                      max_bytes=state["max_bytes"],
                      disk_path=state["disk_path"])

    # -- core ----------------------------------------------------------

    def get(self, key: str):
        """``(hit, value)`` for *key*; checks memory, then disk."""
        tel = telemetry.active()
        with self._lock:
            value = self._memory_hit(key, tel)
        if value is _MISSING:
            value = self._disk_hit(key, tel)
        if value is not _MISSING:
            return True, value
        self.misses += 1
        tel.counter("cache.misses").inc()
        return False, None

    def put(self, key: str, value) -> None:
        """Store *value* under *key* (memory and, if set, disk)."""
        value = _copy_out(value)  # detach from the caller
        self._insert(key, value)
        if self.disk_path is not None:
            self._disk_write(key, value)
        tel = telemetry.active()
        self.stores += 1
        tel.counter("cache.stores").inc()

    def get_or_compute(self, key: str, compute: Callable[[], Any]):
        """Return the cached value for *key*, computing it on miss.

        Single-flight: the first thread to miss *key* claims it and
        runs *compute* outside the cache lock; other threads asking
        for *key* meanwhile wait for the claim to end and read the
        stored entry (a hit, counted in :attr:`waits` too), so
        ``misses`` equals the number of computes. If the compute
        raises, or its entry is gone by the time a waiter reads it,
        the waiter claims the key and computes it itself: it gets
        its own value or its own error, never a missing one. A
        compute that asks for its own key on the same thread
        computes it inline. Keys a compute asks for are its inputs'
        keys, so claims form no cycle between threads.
        """
        tel = telemetry.active()
        while True:
            with self._lock:
                value = self._memory_hit(key, tel)
                if value is not _MISSING:
                    return value
                me = threading.get_ident()
                flight = self._flights.get(key)
                if flight is None:
                    claim = self._flights[key] = (me, threading.Event())
                    break
                if flight[0] == me:
                    claim = None  # our own compute asks: run inline
                    break
                self.waits += 1
            tel.counter("cache.waits").inc()
            flight[1].wait()
        try:
            value = self._disk_hit(key, tel)
            if value is not _MISSING:
                return value
            self.misses += 1
            tel.counter("cache.misses").inc()
            value = compute()
            self.put(key, value)
            return value
        finally:
            if claim is not None:
                with self._lock:
                    del self._flights[key]
                claim[1].set()

    # -- bookkeeping ---------------------------------------------------

    def _memory_hit(self, key: str, tel):
        """A copy of *key*'s in-memory value (counted as a hit), or
        ``_MISSING``. The caller holds ``_lock``."""
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return _MISSING
        self._entries.move_to_end(key)
        self.hits += 1
        tel.counter("cache.hits").inc()
        return _copy_out(entry[0])

    def _disk_hit(self, key: str, tel):
        """A copy of *key*'s on-disk value, promoted to memory and
        counted as a hit, or ``_MISSING``."""
        if self.disk_path is None:
            return _MISSING
        value = self._disk_read(key)
        if value is _MISSING:
            return _MISSING
        self._insert(key, value)
        self.hits += 1
        tel.counter("cache.hits").inc()
        return _copy_out(value)

    def _insert(self, key: str, value) -> None:
        size = _sizeof(value)
        tel = telemetry.active()
        with self._lock:
            old = self._entries.pop(key, _MISSING)
            if old is not _MISSING:
                self._nbytes -= old[1]
            self._entries[key] = (value, size)
            self._nbytes += size
            while self._entries and (
                    len(self._entries) > self.max_entries
                    or self._nbytes > self.max_bytes):
                if len(self._entries) == 1 \
                        and self._nbytes <= self.max_bytes:
                    break
                _, (_, dropped) = self._entries.popitem(last=False)
                self._nbytes -= dropped
                self.evictions += 1
                tel.counter("cache.evictions").inc()
            tel.gauge("cache.bytes").set(self._nbytes)

    # -- disk backing --------------------------------------------------

    def _disk_file(self, key: str) -> Path:
        return self.disk_path / f"{key}.pkl"

    def _disk_read(self, key: str):
        try:
            with open(self._disk_file(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError,
                AttributeError, ImportError):
            return _MISSING

    def _disk_write(self, key: str, value) -> None:
        # Atomic publish: a reader either sees the complete file or
        # no file, never a partial write.
        try:
            fd, tmp = tempfile.mkstemp(dir=self.disk_path,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._disk_file(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PickleError):
            pass  # a full disk degrades to memory-only caching

    # -- introspection -------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Approximate retained in-memory size."""
        return self._nbytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are kept)."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            telemetry.active().gauge("cache.bytes").set(0)

    def stats(self) -> dict:
        """Plain-dict counters snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "waits": self.waits,
            "entries": len(self._entries),
            "bytes": self._nbytes,
        }

    def __repr__(self) -> str:
        disk = f", disk={self.disk_path}" if self.disk_path else ""
        return (f"ArtifactCache({len(self._entries)} entries, "
                f"{self._nbytes} bytes, {self.hits} hits, "
                f"{self.misses} misses{disk})")


class NullCache:
    """The disabled fast path: never stores, computes every time.

    Shares the :class:`ArtifactCache` surface so stages write one
    code path; ``enabled`` is False so they can skip even building
    the key.
    """

    enabled = False

    hits = 0
    misses = 0
    evictions = 0
    stores = 0
    waits = 0
    nbytes = 0

    def get(self, key: str):
        """Always a miss."""
        return False, None

    def put(self, key: str, value) -> None:
        """Discard."""

    def get_or_compute(self, key: str, compute: Callable[[], Any]):
        """Compute directly; nothing is stored."""
        return compute()

    def clear(self) -> None:
        """Nothing to drop."""

    def stats(self) -> dict:
        """All-zero counters."""
        return {"hits": 0, "misses": 0, "evictions": 0,
                "stores": 0, "waits": 0, "entries": 0, "bytes": 0}

    def __len__(self) -> int:
        return 0

    def __contains__(self, key: str) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullCache()"
