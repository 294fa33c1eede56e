"""repro.telemetry — counters, gauges, timers, and trace spans.

The simulation stack's observability layer: hierarchical named
counters/gauges/histogram-timers plus context-manager trace spans,
with a snapshot/export API (:meth:`Registry.to_dict`, Prometheus
text, JSON) and a module-level no-op fast path that makes the whole
subsystem essentially free when disabled (the default).

Usage
-----
Process-wide collection (the default registry)::

    from repro import telemetry

    reg = telemetry.enable()          # activates the singleton
    bed.measure_eye(n_bits=2000)      # instrumented internally
    print(reg.to_prometheus())
    telemetry.disable()               # back to the free no-op path

Scoped collection (tests, one job, one worker chunk)::

    with telemetry.use_registry(telemetry.Registry()) as reg:
        fabric.run(100)
    assert reg.to_dict()["counters"]["vortex.steps"] == 100

Scopes
------
:func:`enable` and :func:`disable` set the process-wide default.
:func:`use_registry` opens a scope that is local to the current
:mod:`contextvars` context, so two jobs on two threads each record
into their own registry. A scope covers the calling thread, the
asyncio tasks and ``asyncio.to_thread`` work it starts, the chunks
a ``thread`` :class:`~repro.parallel.Executor` runs for it, and the
event loop of a service started in it with
:func:`~repro.service.serve_in_thread`. It does not cover a thread
the caller starts itself: that thread sees the default (run its
target under ``contextvars.copy_context().run`` to carry the scope
over). Process and remote workers record into private registries
whose snapshots merge back into the scope that ran them.

Instrumentation sites call :func:`active` at call time and never
touch the singleton directly, so the disabled path is one context
lookup plus shared no-op singletons — no allocation, no dict writes.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Optional, Union

from repro.telemetry.export import (
    sanitize_metric_name, snapshot_to_json, snapshot_to_prometheus,
    split_labels,
)
from repro.telemetry.instruments import (
    NULL_COUNTER, NULL_GAUGE, NULL_SPAN, NULL_TIMER,
    Counter, Gauge, NullCounter, NullGauge, NullSpan, NullTimer, Timer,
)
from repro.telemetry.registry import NullRegistry, Registry, Span

__all__ = [
    "Counter", "Gauge", "Timer", "Span", "Registry", "NullRegistry",
    "NULL_REGISTRY", "get_registry", "active", "enable",
    "disable", "enabled", "use_registry",
    "sanitize_metric_name", "snapshot_to_json", "snapshot_to_prometheus",
    "split_labels",
]

#: The shared disabled-path registry; `active()` returns it whenever
#: telemetry is off.
NULL_REGISTRY = NullRegistry()

_singleton: Optional[Registry] = None
#: The process-wide default, set by :func:`enable`/:func:`disable`.
_default: Union[Registry, NullRegistry] = NULL_REGISTRY
#: The innermost :func:`use_registry` scope of the current context
#: (unset outside any scope).
_scope: contextvars.ContextVar = contextvars.ContextVar(
    "repro.telemetry.scope")


def get_registry() -> Registry:
    """The process-wide singleton registry (created on first use).

    Returned whether or not collection is enabled; :func:`enable`
    makes it the active sink for instrumented code.
    """
    global _singleton
    if _singleton is None:
        _singleton = Registry()
    return _singleton


def active() -> Union[Registry, NullRegistry]:
    """The registry instrumented code should record into right now.

    The innermost :func:`use_registry` scope of the current context,
    else the process-wide default: the registry :func:`enable`
    installed, or the shared :data:`NULL_REGISTRY` when disabled.
    """
    return _scope.get(_default)


def enable(registry: Optional[Registry] = None) -> Registry:
    """Make *registry* (default: the singleton) the process default.

    Contexts with an open :func:`use_registry` scope keep recording
    into their scope. Returns the new default.
    """
    global _default
    _default = registry if registry is not None else get_registry()
    return _default


def disable() -> None:
    """Make the no-op path the process default again."""
    global _default
    _default = NULL_REGISTRY


def enabled() -> bool:
    """True while :func:`active` is a real, collecting registry."""
    return active() is not NULL_REGISTRY


@contextmanager
def use_registry(registry: Optional[Registry] = None):
    """Collect into *registry* (a fresh one by default) in this context.

    The scope is local to the current :mod:`contextvars` context (see
    the module docstring for what it covers) and is reset on exit, so
    concurrent scopes on other threads neither see nor clobber it.
    Yields the registry.
    """
    reg = registry if registry is not None else Registry()
    token = _scope.set(reg)
    try:
        yield reg
    finally:
        _scope.reset(token)
