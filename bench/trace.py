"""Span recording from outside the program, and the per-layer report.

:class:`Tracer` wraps public callables of the library at run time —
class attributes and module-level functions are replaced by timing
wrappers, with no edit to ``src/``. Each call made while recording
becomes one span: ``(id, name, start, end, parent, thread, op)``.
The parent comes from a thread-local stack, so nesting is exact
within a thread; work handed to another thread starts a new root
there. ``op`` is the benchmark operation (block, record, sweep or
service job) the span belongs to.

Spans stay in memory and are written once, at the end of a traced
run. A span's *self* time is its duration minus the time its child
spans cover; :func:`span_tree` sums self and total time per
slash-joined path of span names (``shmoo.run/parallel.executor_run``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    """Records spans around patched callables while :attr:`recording`.

    Not recording, a wrapper costs one attribute read and a call.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self.recording = False
        #: Op id for threads that did not set their own (pool
        #: threads working for the single op the main loop runs).
        self.current_op = None
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- op attribution ------------------------------------------------

    def set_thread_op(self, op) -> None:
        """Attribute spans opened on this thread to *op* (None: the
        tracer-wide :attr:`current_op`)."""
        self._tls.op = op

    def _op(self):
        op = getattr(self._tls, "op", None)
        return self.current_op if op is None else op

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- spans ---------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), self._op()))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* with every call recorded as a span named *name*."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- patching ------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str,
                     make: Optional[Callable] = None) -> None:
        """Replace ``cls.attr`` by a traced wrapper.

        Class- and static methods keep their kind. *make*, when
        given, builds the wrapper from the original function instead
        of :meth:`wrap` (for spans that need the call's arguments).
        """
        owned = attr in cls.__dict__
        raw = inspect.getattr_static(cls, attr)
        build = make or (lambda fn: self.wrap(fn, name))
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(build(raw.__func__))
        else:
            new = build(raw)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, raw) if owned
                          else delattr(cls, attr))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Replace a module-level function everywhere it is bound.

        Every loaded module holding the same function object under
        any name (``from x import f`` re-binds it) gets the wrapper,
        so callers that imported it by name are traced too.
        """
        original = getattr(module, attr)
        traced = self.wrap(original, name)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = traced
                    self._undo.append(
                        functools.partial(namespace.__setitem__,
                                          key, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()


def self_times(spans: Iterable[tuple]) -> Dict[int, float]:
    """Span id -> self time in seconds (duration minus children)."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for _sid, _name, t0, t1, parent, _thr, _op in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child_time.get(sid, 0.0)
            for sid, _name, t0, t1, _p, _thr, _op in spans}


def span_tree(spans: Iterable[tuple]) -> Dict[str, dict]:
    """Per slash-joined path: call count, total and self time in ms.

    A path is the chain of span names from a thread's root span down
    to the span, e.g. ``eye.accumulator`` or
    ``service.run.ber/minitester.loopback/channel.lti``.
    """
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    paths: Dict[int, str] = {}

    def path_of(sid: int) -> str:
        if sid not in paths:
            _, name, _t0, _t1, parent, _thr, _op = by_id[sid]
            paths[sid] = name if parent not in by_id \
                else f"{path_of(parent)}/{name}"
        return paths[sid]

    tree: Dict[str, dict] = {}
    for sid, _name, t0, t1, _parent, _thr, _op in spans:
        node = tree.setdefault(path_of(sid),
                               {"count": 0, "total_ms": 0.0,
                                "self_ms": 0.0})
        node["count"] += 1
        node["total_ms"] += 1e3 * (t1 - t0)
        node["self_ms"] += 1e3 * selfs[sid]
    return dict(sorted(tree.items()))
