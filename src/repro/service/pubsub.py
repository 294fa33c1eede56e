"""Topic pub/sub with bounded per-subscriber queues.

The live-streaming half of the test-floor master: jobs publish
partial results (shmoo cells, BER tallies, eye snapshots) and state
changes to topics like ``job.3.partial``; RPC connections subscribe
with optional trailing-``*`` wildcards (``job.*`` matches every
job's stream).

Backpressure is per-subscriber and lossy-oldest: each subscription
owns a bounded :class:`asyncio.Queue`, and a publish that finds it
full evicts the oldest queued event to make room. A slow reader
therefore lags (observable as a gap in the per-topic ``seq``
numbers) without ever stalling the publisher or other subscribers.
Drops are counted in ``service.events_dropped`` and the worst
subscriber backlog is exported as the ``service.stream_lag`` gauge.

All hub methods must run on the event-loop thread; worker threads
hand events over with ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Iterable, Optional, Tuple

from repro import telemetry
from repro.errors import ConfigurationError


def topic_matches(pattern: str, topic: str) -> bool:
    """True when *topic* falls under *pattern*.

    Patterns are exact strings, except a trailing ``*`` which
    matches any suffix: ``job.*`` covers ``job.3.partial`` and
    ``job.7.state``; bare ``*`` covers everything.
    """
    if pattern.endswith("*"):
        return topic.startswith(pattern[:-1])
    return topic == pattern


class Subscription:
    """One subscriber's bounded event stream.

    Obtained from :meth:`PubSubHub.subscribe`; iterate with
    :meth:`get` until :meth:`PubSubHub.unsubscribe` (or hub close)
    delivers the ``None`` sentinel.
    """

    def __init__(self, patterns: Tuple[str, ...], maxsize: int):
        self.patterns = patterns
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        #: Events evicted from this queue because it was full.
        self.dropped = 0
        self.closed = False

    def matches(self, topic: str) -> bool:
        """True when any of this subscription's patterns covers
        *topic*."""
        return any(topic_matches(p, topic) for p in self.patterns)

    async def get(self) -> Optional[dict]:
        """Next event dict, or None once the subscription closes."""
        if self.closed and self.queue.empty():
            return None
        event = await self.queue.get()
        return event

    def _offer(self, event: dict) -> bool:
        """Enqueue, evicting the oldest event when full; True when
        an eviction happened."""
        evicted = False
        while True:
            try:
                self.queue.put_nowait(event)
                return evicted
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                    evicted = True
                except asyncio.QueueEmpty:  # pragma: no cover
                    # Only reachable if maxsize is 0 (unbounded) —
                    # excluded at subscribe time.
                    return evicted


class PubSubHub:
    """Fan events out to matching subscriptions.

    Parameters
    ----------
    default_maxsize:
        Queue bound for subscriptions that don't pick their own.
    """

    def __init__(self, default_maxsize: int = 256):
        if default_maxsize < 1:
            raise ConfigurationError(
                f"queue bound must be >= 1, got {default_maxsize}"
            )
        self.default_maxsize = int(default_maxsize)
        self._subs: Dict[int, Subscription] = {}
        self._ids = itertools.count(1)
        self._seq: Dict[str, int] = {}

    @property
    def n_subscribers(self) -> int:
        """Currently attached subscriptions."""
        return len(self._subs)

    def subscribe(self, patterns: Iterable[str],
                  maxsize: Optional[int] = None) -> Subscription:
        """Attach a subscription covering *patterns*."""
        patterns = tuple(str(p) for p in patterns)
        if not patterns:
            raise ConfigurationError("subscribe needs >= 1 pattern")
        bound = self.default_maxsize if maxsize is None else int(maxsize)
        if bound < 1:
            raise ConfigurationError(
                f"queue bound must be >= 1, got {bound}"
            )
        sub = Subscription(patterns, bound)
        sub._sub_id = next(self._ids)
        self._subs[sub._sub_id] = sub
        tel = telemetry.active()
        tel.gauge("service.subscribers").set(len(self._subs))
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach *sub* and wake its reader with the None sentinel."""
        self._subs.pop(getattr(sub, "_sub_id", None), None)
        if not sub.closed:
            sub.closed = True
            sub._offer(None)
        tel = telemetry.active()
        tel.gauge("service.subscribers").set(len(self._subs))

    def publish(self, topic: str, data) -> int:
        """Deliver one event to every matching subscription.

        Stamps the topic's next ``seq`` (monotonic per topic, so a
        subscriber can detect its own drops) and returns it. Must
        be called on the event-loop thread.
        """
        seq = self._seq.get(topic, 0) + 1
        self._seq[topic] = seq
        event = {"event": topic, "seq": seq, "data": data}
        tel = telemetry.active()
        delivered = 0
        dropped = 0
        worst_lag = 0
        for sub in list(self._subs.values()):
            if sub.closed or not sub.matches(topic):
                continue
            if sub._offer(event):
                dropped += 1
            delivered += 1
            worst_lag = max(worst_lag, sub.queue.qsize())
        tel.counter("service.events_published").inc()
        if dropped:
            tel.counter("service.events_dropped").inc(dropped)
        tel.gauge("service.stream_lag").set(worst_lag)
        return seq

    def close(self) -> None:
        """Detach every subscription (each reader sees the
        sentinel)."""
        for sub in list(self._subs.values()):
            self.unsubscribe(sub)
