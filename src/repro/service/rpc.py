"""NDJSON RPC over asyncio streams, plus a small sync client.

The control plane of the test-floor master. Each TCP connection
carries newline-delimited JSON both ways: requests in
(``{"id", "method", "params"}``), responses out (``{"id", "ok",
"result" | "error"}``), and — once a connection subscribes —
server-pushed event lines (``{"event", "seq", "data"}``)
interleaved with responses. Every request is dispatched as its own
task, so one connection can have many calls in flight and a slow
job submission never blocks a status poll.

Handler exceptions never tear down the connection: they come back
as structured errors (type, message, traceback) which the sync
:class:`Client` re-raises as :class:`RemoteError`.

The client is deliberately synchronous and tiny — a background
reader thread demultiplexes responses (by id) from events (by the
``event`` key) so tests, examples, and shop-floor scripts don't
need an event loop of their own.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import socket
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.errors import ProtocolError, ReproError
from repro.service import wire
from repro.service.pubsub import PubSubHub


class RemoteError(ReproError):
    """A server-side failure, re-raised client-side.

    Attributes
    ----------
    remote_type:
        Exception class name on the server.
    remote_traceback:
        Server-side traceback text (may be empty).
    """

    def __init__(self, remote_type: str, message: str,
                 remote_traceback: str = ""):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback


class _Connection:
    """Per-client server state: writer lock, subscription, tasks."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.subscription = None
        self.pump_task: Optional[asyncio.Task] = None
        self.tasks: set = set()

    async def send(self, obj: Any) -> None:
        """Write one wire line (serialized per connection)."""
        async with self.lock:
            self.writer.write(wire.encode_line(obj))
            await self.writer.drain()


class RPCServer:
    """Serves a method table over NDJSON/TCP.

    Parameters
    ----------
    methods:
        ``name -> callable(**params)`` table; callables may be
        plain functions or coroutines and must return JSON-ready
        payloads. A ``subscribe`` method is provided by the server
        itself (it needs the connection).
    hub:
        The :class:`~.pubsub.PubSubHub` events are streamed from.
    host, port:
        Bind address; port 0 picks a free port (see
        :attr:`address` after :meth:`start`).
    """

    def __init__(self, methods: Dict[str, Callable], hub: PubSubHub,
                 host: str = "127.0.0.1", port: int = 0):
        self._methods = dict(methods)
        self.hub = hub
        self.host = host
        self.port = int(port)
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port,
            limit=wire.MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        """Stop accepting and drop every live connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._conns):
            await self._close_conn(conn)

    async def _close_conn(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        if conn.subscription is not None:
            self.hub.unsubscribe(conn.subscription)
            conn.subscription = None
        if conn.pump_task is not None:
            conn.pump_task.cancel()
        for task in list(conn.tasks):
            task.cancel()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._conns.add(conn)
        tel = telemetry.active()
        tel.counter("service.rpc_connections").inc()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = wire.decode_line(line)
                except ProtocolError as exc:
                    tel.counter("service.rpc_errors").inc()
                    await conn.send({"id": None, "ok": False,
                                     "error": wire.error_payload(exc)})
                    continue
                task = asyncio.ensure_future(
                    self._dispatch(conn, req))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._close_conn(conn)

    async def _dispatch(self, conn: _Connection, req: dict) -> None:
        rid = req.get("id")
        method = req.get("method")
        params = req.get("params") or {}
        tel = telemetry.active()
        tel.counter("service.rpc_requests").inc()
        try:
            if not isinstance(params, dict):
                raise ProtocolError("params must be an object")
            if method == "subscribe":
                result = self._subscribe(conn, **params)
            elif method == "methods":
                result = sorted(self._methods) + ["subscribe",
                                                  "methods"]
            else:
                try:
                    handler = self._methods[method]
                except KeyError:
                    raise ProtocolError(
                        f"unknown method {method!r}"
                    ) from None
                result = handler(**params)
                if asyncio.iscoroutine(result):
                    result = await result
            await conn.send({"id": rid, "ok": True,
                             "result": result})
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            tel.counter("service.rpc_errors").inc()
            try:
                await conn.send({
                    "id": rid, "ok": False,
                    "error": wire.error_payload(
                        exc, traceback.format_exc()),
                })
            except (ConnectionError, OSError):
                pass

    def _subscribe(self, conn: _Connection,
                   patterns=None, maxsize=None) -> dict:
        """Attach (or retarget) this connection's event stream."""
        patterns = list(patterns or ["*"])
        if conn.subscription is not None:
            self.hub.unsubscribe(conn.subscription)
            conn.pump_task.cancel()
        conn.subscription = self.hub.subscribe(patterns,
                                               maxsize=maxsize)
        conn.pump_task = asyncio.ensure_future(self._pump(conn))
        return {"patterns": patterns}

    async def _pump(self, conn: _Connection) -> None:
        """Forward one subscription's events onto the wire."""
        sub = conn.subscription
        try:
            while True:
                event = await sub.get()
                if event is None:
                    break
                await conn.send(event)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


class Client:
    """Blocking NDJSON RPC client with an event inbox.

    A daemon reader thread splits incoming lines into responses
    (matched to waiting calls by ``id``) and events (queued for
    :meth:`next_event`). Any server method is callable as an
    attribute: ``client.submit(kind="ber", priority=2)``.

    Use as a context manager, or :meth:`close` explicitly.
    """

    def __init__(self, host: str, port: int,
                 timeout_s: float = 30.0):
        self.timeout_s = float(timeout_s)
        self._sock = socket.create_connection((host, int(port)))
        self._file = self._sock.makefile("rb")
        self._wlock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, "queue.Queue"] = {}
        self._events: "queue.Queue" = queue.Queue()
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop,
                                        daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            for line in self._file:
                obj = wire.decode_line(line)
                if "event" in obj:
                    self._events.put(obj)
                    continue
                waiter = self._pending.pop(obj.get("id"), None)
                if waiter is not None:
                    waiter.put(obj)
        except (OSError, ValueError, ProtocolError):
            pass
        finally:
            # Wake every waiter so calls fail fast on disconnect.
            for waiter in list(self._pending.values()):
                waiter.put(None)

    def call(self, method: str, **params) -> Any:
        """One RPC round-trip; raises :class:`RemoteError` on a
        server-side failure."""
        if self._closed:
            raise ProtocolError("client is closed")
        rid = next(self._ids)
        waiter: "queue.Queue" = queue.Queue()
        self._pending[rid] = waiter
        payload = wire.encode_line({"id": rid, "method": method,
                                    "params": params})
        with self._wlock:
            self._sock.sendall(payload)
        try:
            reply = waiter.get(timeout=self.timeout_s)
        except queue.Empty:
            self._pending.pop(rid, None)
            raise ProtocolError(
                f"no reply to {method!r} within {self.timeout_s}s"
            ) from None
        if reply is None:
            raise ProtocolError("connection closed mid-call")
        if reply.get("ok"):
            return reply.get("result")
        err = reply.get("error") or {}
        raise RemoteError(err.get("type", "Exception"),
                          err.get("message", "remote failure"),
                          err.get("traceback", ""))

    def subscribe(self, *patterns: str,
                  maxsize: Optional[int] = None) -> dict:
        """Start streaming events matching *patterns* (default
        everything)."""
        return self.call("subscribe",
                         patterns=list(patterns) or ["*"],
                         maxsize=maxsize)

    def next_event(self,
                   timeout_s: Optional[float] = None
                   ) -> Optional[dict]:
        """The next queued event, or None after *timeout_s*."""
        try:
            return self._events.get(
                timeout=self.timeout_s if timeout_s is None
                else timeout_s)
        except queue.Empty:
            return None

    def drain_events(self) -> List[dict]:
        """Every event received so far, without blocking."""
        out = []
        while True:
            try:
                out.append(self._events.get_nowait())
            except queue.Empty:
                return out

    def close(self) -> None:
        """Shut the connection down; outstanding calls fail."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name: str) -> Callable:
        if name.startswith("_"):
            raise AttributeError(name)

        def proxy(**params):
            return self.call(name, **params)

        proxy.__name__ = name
        proxy.__doc__ = f"RPC proxy for the {name!r} server method."
        return proxy
