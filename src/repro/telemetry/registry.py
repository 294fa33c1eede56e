"""Metric registries and trace spans.

A :class:`Registry` owns a flat namespace of hierarchically *named*
(dotted) counters, gauges, and timers, plus a span stack that turns
nested ``with registry.span(...)`` blocks into slash-joined trace
paths ("session.qualify/testprogram.eye_qual_5G"). Registries merge
associatively, so per-worker registries can be combined into one
fleet view.

The :class:`NullRegistry` twin implements the same surface as
do-nothing singletons — the module-level disabled fast path.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.telemetry.instruments import (
    NULL_COUNTER, NULL_GAUGE, NULL_SPAN, NULL_TIMER,
    Counter, Gauge, NullSpan, Timer,
)


class Span:
    """One timed trace region, pushed onto the registry's span stack.

    On entry the span composes its full path from the enclosing
    spans ("outer/inner"); on exit it records the elapsed time into
    the registry timer of that path and increments the matching
    ``<path>.calls`` counter.
    """

    __slots__ = ("_registry", "name", "path", "_start")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self.name = name
        self.path = ""
        self._start = 0.0

    def __enter__(self) -> "Span":
        self.path = self._registry._push_span(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._registry._pop_span()
        self._registry.timer(self.path).observe(elapsed)
        self._registry.counter(self.path + ".calls").inc()


class Registry:
    """A namespace of counters, gauges, timers, and trace spans.

    Instruments are created on first use and live for the registry's
    lifetime. Counter/gauge/timer updates are plain attribute writes
    (safe under the GIL); the span stack is thread-local so spans
    nest correctly per thread.
    """

    #: A real registry records; the null twin reports False so hot
    #: loops can skip tallying entirely.
    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._spans = threading.local()

    # -- instruments ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Fetch (creating on first use) the counter called *name*."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(self._check(name))
        return c

    def gauge(self, name: str) -> Gauge:
        """Fetch (creating on first use) the gauge called *name*."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(self._check(name))
        return g

    def timer(self, name: str) -> Timer:
        """Fetch (creating on first use) the timer called *name*."""
        t = self._timers.get(name)
        if t is None:
            t = self._timers[name] = Timer(self._check(name))
        return t

    @staticmethod
    def _check(name: str) -> str:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        return name

    # -- spans ------------------------------------------------------------

    def span(self, name: str) -> Span:
        """A context manager timing a named trace region.

        Nested spans compose slash-joined paths; each path gets its
        own timer plus a ``<path>.calls`` counter.
        """
        return Span(self, self._check(name))

    def current_span_path(self) -> str:
        """The active span path in this thread ("" outside spans)."""
        stack = getattr(self._spans, "stack", None)
        return stack[-1] if stack else ""

    def _push_span(self, name: str) -> str:
        stack = getattr(self._spans, "stack", None)
        if stack is None:
            stack = self._spans.stack = []
        path = f"{stack[-1]}/{name}" if stack else name
        stack.append(path)
        return path

    def _pop_span(self) -> None:
        self._spans.stack.pop()

    # -- snapshot / export ------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-dict snapshot: counters, gauges, timer stats.

        The snapshot is detached (new containers, scalar values), so
        taking it never perturbs the registry — snapshots are
        idempotent.
        """
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value
                       for n, g in sorted(self._gauges.items())},
            "timers": {n: t.as_dict()
                       for n, t in sorted(self._timers.items())},
        }

    def to_json(self, indent=None) -> str:
        """The snapshot as a JSON document."""
        from repro.telemetry.export import snapshot_to_json
        return snapshot_to_json(self.to_dict(), indent=indent)

    def to_prometheus(self, prefix: str = "repro") -> str:
        """The snapshot as flat Prometheus-style exposition text."""
        from repro.telemetry.export import snapshot_to_prometheus
        return snapshot_to_prometheus(self.to_dict(), prefix=prefix)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Registry":
        """Rebuild a registry from a :meth:`to_dict` snapshot.

        The inverse of :meth:`to_dict` up to timer mean (recomputed)
        — the bridge that lets worker processes ship their registries
        home as plain dicts for the parent to merge.
        """
        reg = cls()
        for n, v in snapshot.get("counters", {}).items():
            reg.counter(n).inc(v)
        for n, v in snapshot.get("gauges", {}).items():
            reg.gauge(n).set(v)
        for n, d in snapshot.get("timers", {}).items():
            t = reg.timer(n)
            t.count = int(d["count"])
            t.total_s = float(d["total_s"])
            if t.count:
                t.min_s = float(d["min_s"])
                t.max_s = float(d["max_s"])
        return reg

    # -- lifecycle --------------------------------------------------------

    def names(self) -> List[str]:
        """Every metric name in the registry, sorted."""
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._timers))

    def reset(self) -> None:
        """Drop every instrument (names included)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()

    def merge(self, other: "Registry") -> "Registry":
        """A new registry combining this one with *other*.

        Counters sum; timers pool their statistics; gauges take
        *other*'s value where both define one (last-writer-wins).
        All three rules are associative, so any merge tree over a
        set of registries yields the same totals.

        Safe while producer threads keep recording into either
        source (instrument tables are snapshotted before iteration)
        and while either source has open spans — span stacks are
        per-thread runtime state, not merged data, so an in-flight
        span simply contributes nothing until it closes.
        """
        return Registry().absorb(self).absorb(other)

    def absorb(self, other: "Registry") -> "Registry":
        """Merge *other* into this registry in place; returns self.

        The mutating twin of :meth:`merge`, for sinking worker
        registries into a long-lived parent (the active session
        registry) without replacing it. Same associative rules.
        """
        for n, c in list(other._counters.items()):
            self.counter(n).inc(c.value)
        for n, g in list(other._gauges.items()):
            self.gauge(n).set(g.value)
        for n, t in list(other._timers.items()):
            dst = self.timer(n)
            dst.count += t.count
            dst.total_s += t.total_s
            if t.count:
                dst.min_s = min(dst.min_s, t.min_s)
                dst.max_s = max(dst.max_s, t.max_s)
        return self

    def __repr__(self) -> str:
        return (f"Registry({len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._timers)} timers)")


class NullRegistry:
    """The disabled fast path: every lookup returns a shared no-op.

    Implements the full :class:`Registry` reading/writing surface;
    snapshots are empty and instruments discard their updates. A
    single module-level instance backs every disabled call site, so
    no per-call allocation happens.
    """

    enabled = False

    # Empty instrument tables, shared and read-only: Registry.merge
    # reads these, so a null registry merges as the identity.
    _counters: dict = {}
    _gauges: dict = {}
    _timers: dict = {}

    def counter(self, name: str) -> object:
        """The shared no-op counter."""
        return NULL_COUNTER

    def gauge(self, name: str) -> object:
        """The shared no-op gauge."""
        return NULL_GAUGE

    def timer(self, name: str) -> object:
        """The shared no-op timer."""
        return NULL_TIMER

    def span(self, name: str) -> NullSpan:
        """The shared no-op span context manager."""
        return NULL_SPAN

    def current_span_path(self) -> str:
        """Always "" — the null registry tracks nothing."""
        return ""

    def to_dict(self) -> dict:
        """An empty snapshot."""
        return {"counters": {}, "gauges": {}, "timers": {}}

    def to_json(self, indent=None) -> str:
        """An empty snapshot as JSON."""
        from repro.telemetry.export import snapshot_to_json
        return snapshot_to_json(self.to_dict(), indent=indent)

    def to_prometheus(self, prefix: str = "repro") -> str:
        """An empty exposition document."""
        from repro.telemetry.export import snapshot_to_prometheus
        return snapshot_to_prometheus(self.to_dict(), prefix=prefix)

    def names(self) -> List[str]:
        """Always empty."""
        return []

    def reset(self) -> None:
        """Nothing to drop."""

    def merge(self, other) -> Registry:
        """Merging with nothing copies *other* (the identity)."""
        return Registry().merge(other)

    def absorb(self, other) -> "NullRegistry":
        """Absorbing into the null registry discards *other*."""
        return self

    def __repr__(self) -> str:
        return "NullRegistry()"
