"""The remote worker pool: master side of the distributed backend.

One :class:`WorkerPool` turns N worker *processes* — spawned locally
or connected from other hosts — into an executor backend with the
same contracts as the in-process ones: per-item seeds precomputed by
the parent, chunks executed through the universal
:func:`repro.parallel.workers.run_chunk` frame, results reassembled
in canonical submission order, worker telemetry snapshots merged
back into the parent registry. The master/worker split follows the
ARTIQ pattern: workers dial in over TCP, handshake with an HMAC
shared-secret challenge/response (mutual — pickled payloads are
never accepted from an unauthenticated peer; the wire is
trusted-network-only) plus a protocol version check, answer
heartbeats from a reader thread (so a busy
worker still pongs; only a dead or frozen process goes silent), and
any chunk in flight on a worker that dies is requeued to the
survivors — a mid-run ``kill -9`` costs latency, never results.

The pool also serves the master's :class:`~repro.cache.ArtifactCache`
to its workers over the same wire (``cache_get``/``cache_put``
frames), making the content-addressed store a shared cross-host
tier: a worker consults its local memory, then the master, before
computing — see :class:`repro.cache.remote.RemoteCacheTier`.

The pool keeps no dispatch books of its own. Attempts, deadlines,
timeouts and the retry verdict live in the run's
:class:`~repro.parallel.executor.ChunkLedger`, the state machine
every executor backend shares; the pool's loop only moves frames,
tracks which worker is busy, and fails a worker whose chunk the
ledger reports as timed out.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import cache as artifact_cache
from repro import telemetry
from repro.errors import ConfigurationError, ProtocolError
from repro.parallel import transport
from repro.parallel.executor import ShardError

#: Dispatch-loop poll interval (s); bounds abort/timeout latency.
_POLL_S = 0.02

#: Grace (s) between SIGTERM and SIGKILL when reaping spawned
#: workers (a SIGSTOPped worker ignores SIGTERM until resumed, so
#: the kill must always follow).
_REAP_GRACE_S = 1.0


class _Worker:
    """Master-side record of one connected worker."""

    __slots__ = ("name", "stream", "pid", "proc", "alive", "busy",
                 "last_seen", "jobs_seen", "chunks_done",
                 "reader", "label")

    def __init__(self, name: str, stream: transport.MessageStream,
                 pid: int, proc: Optional[subprocess.Popen] = None):
        self.name = name
        self.stream = stream
        self.pid = pid
        self.proc = proc
        self.alive = True
        self.busy = False
        self.last_seen = time.monotonic()
        self.jobs_seen: set = set()
        self.chunks_done = 0
        self.reader: Optional[threading.Thread] = None
        #: Telemetry label suffix, e.g. ``{worker=w0}``.
        self.label = "{worker=%s}" % name


class WorkerPool:
    """Master for remote executor workers over NDJSON/TCP.

    Parameters
    ----------
    n_workers:
        Workers to spawn locally (``spawn=True``) or to wait for at
        :meth:`start` (``spawn=False`` — external workers launched
        with ``python -m repro.service.worker --connect HOST:PORT``).
        May be 0 with ``spawn=False`` to start an empty listening
        pool that workers join later.
    spawn:
        Spawn local worker subprocesses (the default). With False
        the pool only listens.
    host, port:
        Bind address; port 0 picks a free port (see :attr:`address`
        after :meth:`start`). Bind a routable address to accept
        workers from other hosts — on a **trusted network only**:
        the handshake authenticates (HMAC shared secret) but the
        wire is neither encrypted nor hardened against a hostile
        peer that holds the secret.
    secret:
        Shared HMAC secret every worker must prove during the
        handshake (payloads are pickles, so unauthenticated peers
        must never get a frame accepted). Defaults to the
        ``REPRO_POOL_SECRET`` environment variable, else a fresh
        random secret; spawned workers inherit it automatically,
        external workers must be launched with the same value
        (``--secret`` or the environment variable). Exposed as
        :attr:`secret` for handing to external launches.
    heartbeat_s:
        Ping interval. Workers answer from their reader thread, so
        heartbeats detect dead or frozen processes, not slow chunks.
    heartbeat_timeout_s:
        Silence (no pong, result, or any frame) after which a worker
        is declared dead and its in-flight chunks requeue; defaults
        to ``4 * heartbeat_s``.
    connect_timeout_s:
        How long :meth:`start` waits for the initial *n_workers*.

    The cache served to workers for the shared read-through tier is
    the one active where the latest run was called
    (:func:`repro.cache.active`), so a ``use_cache`` scope on the
    master extends across the whole pool. The pool's own threads do
    not run in the caller's context, so each run captures the
    caller's cache (and telemetry registry) for them, and the
    capture stays in force after the run returns, for publishes that
    land late. Before the first run they use the process defaults.

    Remote traffic is recorded into the telemetry registry active
    where the run was called, as ``parallel.remote.*`` counters and
    per-worker labeled gauges
    (``parallel.remote.worker.alive{worker=w0}`` ...).
    """

    def __init__(self, n_workers: int = 2, *, spawn: bool = True,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_s: float = 0.5,
                 heartbeat_timeout_s: Optional[float] = None,
                 connect_timeout_s: float = 60.0,
                 secret: Optional[str] = None):
        if n_workers < 0 or (spawn and n_workers < 1):
            raise ConfigurationError(
                f"need >= 1 spawned worker, got {n_workers}"
            )
        if heartbeat_s <= 0.0:
            raise ConfigurationError(
                f"heartbeat interval must be positive, got "
                f"{heartbeat_s}"
            )
        if heartbeat_timeout_s is None:
            heartbeat_timeout_s = 4.0 * heartbeat_s
        if heartbeat_timeout_s <= heartbeat_s:
            raise ConfigurationError(
                f"heartbeat timeout ({heartbeat_timeout_s}) must "
                f"exceed the interval ({heartbeat_s})"
            )
        self.n_workers = int(n_workers)
        self.spawn = bool(spawn)
        self.host = host
        self.port = int(port)
        self.heartbeat_s = float(heartbeat_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        resolved = transport.resolve_secret(secret)
        #: The handshake secret (text) — hand this to external
        #: worker launches (``--secret`` / ``REPRO_POOL_SECRET``).
        self.secret = resolved.decode("utf-8") if resolved \
            else transport.new_nonce()
        #: ``(registry, cache)`` active where the latest run was
        #: called; what the pool's own threads record into and serve.
        self._caller: Optional[tuple] = None
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._workers: Dict[str, _Worker] = {}
        self._lock = threading.RLock()
        self._events: "queue.Queue" = queue.Queue()
        self._joined = threading.Condition(self._lock)
        self._accept_thread: Optional[threading.Thread] = None
        self._procs: List[subprocess.Popen] = []
        self._job_ids = iter(range(1, 1 << 62)).__next__
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Bind, spawn/await workers, start heartbeating.

        Returns self (chainable); raises :class:`ShardError` if the
        initial workers do not all join in time.
        """
        if self._started:
            return self
        self._started = True
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(max(4, 2 * self.n_workers))
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-pool-accept",
            daemon=True)
        self._accept_thread.start()
        threading.Thread(target=self._heartbeat_loop,
                         name="repro-pool-heartbeat",
                         daemon=True).start()
        if self.spawn:
            for k in range(self.n_workers):
                self._procs.append(self._spawn_worker(f"w{k}"))
        if self.n_workers:
            self.wait_for_workers(self.n_workers,
                                  timeout_s=self.connect_timeout_s)
        return self

    def _spawn_worker(self, name: str) -> subprocess.Popen:
        host, port = self.address
        env = os.environ.copy()
        # Workers must resolve the same modules the master pickles
        # against (repro itself plus any test/bench module the work
        # function lives in), so they inherit the master's sys.path.
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p)
        env[transport.SECRET_ENV] = self.secret
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--connect", f"{host}:{port}", "--name", name],
            env=env, stdout=subprocess.DEVNULL,
        )

    def wait_for_workers(self, n: int,
                         timeout_s: Optional[float] = None) -> int:
        """Block until *n* workers are alive; returns the count.

        Raises :class:`ShardError` on timeout — the actionable
        failure for a worker that crashed on import or was launched
        against the wrong address.
        """
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        with self._joined:
            while self._n_alive_locked() < n:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ShardError(
                        f"only {self._n_alive_locked()} of {n} remote "
                        f"workers joined within {timeout_s:g}s "
                        f"(address {self.address})"
                    )
                self._joined.wait(timeout=remaining)
            return self._n_alive_locked()

    def _n_alive_locked(self) -> int:
        return sum(1 for w in self._workers.values() if w.alive)

    @property
    def n_alive(self) -> int:
        """Workers currently alive."""
        with self._lock:
            return self._n_alive_locked()

    @property
    def worker_names(self) -> List[str]:
        """Names of the workers currently alive, sorted."""
        with self._lock:
            return sorted(name for name, w in self._workers.items()
                          if w.alive)

    def kill_worker(self, name: str) -> bool:
        """Hard-kill a live worker's process (chaos/demo hook).

        Returns True when the signal was delivered. The master
        notices through the dropped connection and requeues any
        chunk the worker had in flight — the sanctioned way to
        demonstrate (or test) mid-run failure recovery.
        """
        import signal

        with self._lock:
            worker = self._workers.get(name)
        if worker is None or not worker.alive or not worker.pid:
            return False
        try:
            os.kill(worker.pid,
                    getattr(signal, "SIGKILL", signal.SIGTERM))
        except OSError:
            return False
        return True

    def close(self) -> None:
        """Shut every worker down and release the listener."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            workers = list(self._workers.values())
        for w in workers:
            try:
                w.stream.send({"type": "close"})
            except (ConnectionError, ProtocolError):
                pass
            w.stream.close()
        if self._listener is not None:
            # shutdown() wakes the accept thread out of accept();
            # close() alone leaves it blocked, and a stale thread
            # can later accept (and reject) another pool's worker.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=_REAP_GRACE_S)
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + _REAP_GRACE_S
        for proc in self._procs:
            while proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            if proc.poll() is None:
                # SIGTERM is queued (not delivered) while a worker
                # is SIGSTOPped; SIGKILL always lands.
                proc.kill()
                proc.wait()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{self.n_alive} alive" if self._started else "cold")
        return f"WorkerPool(n_workers={self.n_workers}, {state})"

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down
            if self._closed:
                sock.close()
                return
            threading.Thread(target=self._handshake, args=(sock,),
                             daemon=True).start()

    def _handshake(self, sock: socket.socket) -> None:
        stream = transport.MessageStream(sock)
        stream.settimeout(transport.HANDSHAKE_TIMEOUT_S)
        tel = self._telemetry()
        nonce = transport.new_nonce()
        try:
            stream.send({"type": "challenge", "nonce": nonce,
                         "protocol": transport.PROTOCOL_VERSION})
            msg = stream.recv()
            if msg is None:
                raise ProtocolError("peer closed before hello")
            # Auth is verified inside check_hello: no pickled frame
            # is ever accepted from a peer without the pool secret.
            name = transport.check_hello(msg, secret=self.secret,
                                         challenge_nonce=nonce)
            with self._lock:
                if name in self._workers \
                        and self._workers[name].alive:
                    raise ProtocolError(
                        f"worker name {name!r} already connected"
                    )
        except (ProtocolError, ConnectionError, OSError) as exc:
            tel.counter("parallel.remote.rejects").inc()
            try:
                stream.send({"type": "reject", "reason": str(exc),
                             "protocol": transport.PROTOCOL_VERSION})
            except (ConnectionError, ProtocolError):
                pass
            stream.close()
            return
        stream.settimeout(None)
        worker = _Worker(name, stream, int(msg.get("pid", 0)))
        stream.send({"type": "welcome",
                     "protocol": transport.PROTOCOL_VERSION,
                     "heartbeat_s": self.heartbeat_s,
                     # Mutual auth: prove the master holds the
                     # secret too, over the worker's nonce.
                     "auth": transport.auth_digest(
                         self.secret, str(msg.get("nonce", "")),
                         "master")})
        reader = threading.Thread(target=self._reader_loop,
                                  args=(worker,),
                                  name=f"repro-pool-read-{name}",
                                  daemon=True)
        worker.reader = reader
        with self._joined:
            self._workers[name] = worker
            self._set_worker_gauges(worker)
            tel.counter("parallel.remote.joins").inc()
            tel.gauge("parallel.remote.workers_alive") \
                .set(self._n_alive_locked())
            self._joined.notify_all()
        reader.start()

    def _reader_loop(self, worker: _Worker) -> None:
        """Drain one worker's frames; serves pongs and cache calls."""
        try:
            while True:
                msg = worker.stream.recv()
                if msg is None:
                    break
                worker.last_seen = time.monotonic()
                kind = msg.get("type")
                if kind == "pong":
                    continue
                if kind == "result":
                    self._events.put(("result", worker, msg))
                elif kind == "cache_get":
                    self._serve_cache_get(worker, msg)
                elif kind == "cache_put":
                    self._serve_cache_put(worker, msg)
                # Unknown frame types are ignored (forward compat).
        except (ConnectionError, ProtocolError):
            pass
        self._fail_worker(worker, "connection lost")

    # -- shared cache tier (master side) -----------------------------------

    def _telemetry(self):
        """The registry the pool's own threads record into."""
        caller = self._caller
        return telemetry.active() if caller is None else caller[0]

    def _active_cache(self):
        """The cache the pool's own threads serve to workers."""
        caller = self._caller
        return artifact_cache.active() if caller is None else caller[1]

    def _serve_cache_get(self, worker: _Worker, msg: dict) -> None:
        tel = self._telemetry()
        tel.counter("parallel.remote.cache.gets").inc()
        cache = self._active_cache()
        hit, value = cache.get(str(msg.get("key", "")))
        reply: dict = {"type": "cache_hit" if hit else "cache_miss",
                       "req": msg.get("req")}
        if hit:
            tel.counter("parallel.remote.cache.served").inc()
            reply["payload"] = transport.pack_payload(value)
        try:
            worker.stream.send(reply)
        except ProtocolError:
            # Value too large for one wire frame: degrade to a miss
            # so the worker recomputes locally instead of timing out.
            try:
                worker.stream.send({"type": "cache_miss",
                                    "req": msg.get("req")})
            except (ConnectionError, ProtocolError):
                pass
        except ConnectionError:
            pass  # the reader loop will notice the death

    def _serve_cache_put(self, worker: _Worker, msg: dict) -> None:
        self._telemetry().counter("parallel.remote.cache.puts").inc()
        cache = self._active_cache()
        if not cache.enabled:
            return
        try:
            value = transport.unpack_payload(msg.get("payload", ""))
        except Exception:
            return  # a corrupt publish only costs a future miss
        cache.put(str(msg.get("key", "")), value)

    # -- worker failure ----------------------------------------------------

    def _fail_worker(self, worker: _Worker, reason: str) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            worker.busy = False
            tel = self._telemetry()
            tel.counter("parallel.remote.worker_deaths").inc()
            tel.gauge("parallel.remote.workers_alive") \
                .set(self._n_alive_locked())
            self._set_worker_gauges(worker)
        worker.stream.close()
        self._events.put(("death", worker, reason))

    def _heartbeat_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat_s)
            now = time.monotonic()
            with self._lock:
                workers = [w for w in self._workers.values()
                           if w.alive]
            for w in workers:
                if now - w.last_seen > self.heartbeat_timeout_s:
                    self._telemetry().counter(
                        "parallel.remote.heartbeat_misses").inc()
                    self._fail_worker(
                        w, f"no heartbeat for "
                           f"{self.heartbeat_timeout_s:g}s")
                    continue
                try:
                    w.stream.send({"type": "ping", "seq": int(now)})
                except ConnectionError:
                    self._fail_worker(w, "ping failed")

    def _set_worker_gauges(self, worker: _Worker) -> None:
        tel = self._telemetry()
        base = "parallel.remote.worker."
        tel.gauge(base + "alive" + worker.label) \
            .set(1.0 if worker.alive else 0.0)
        tel.gauge(base + "busy" + worker.label) \
            .set(1.0 if worker.busy else 0.0)
        tel.gauge(base + "chunks_done" + worker.label) \
            .set(worker.chunks_done)

    # -- chunk execution ---------------------------------------------------

    def execute(self, executor, fn, chunks: Sequence[Sequence],
                state, progress, should_abort,
                collect: bool) -> None:
        """Run *chunks* across the pool, mutating *state* in place.

        The run's ``state.ledger`` keeps the books, as on every
        backend: a chunk *failure* or timeout consumes one of
        ``executor.max_retries``, a worker *death* requeues for
        free, and a result the ledger no longer expects is dropped.
        Completed chunks go through the canonical
        ``Executor._record`` bookkeeping. Stale results from an
        aborted earlier run are discarded by job id.
        """
        if not self._started:
            self.start()
        self._caller = (telemetry.active(), artifact_cache.active())
        tel = self._caller[0]
        # Re-assert liveness gauges into the registry of *this* run
        # (joins may predate it).
        with self._lock:
            tel.gauge("parallel.remote.workers_alive") \
                .set(self._n_alive_locked())
            for w in self._workers.values():
                self._set_worker_gauges(w)
        job_id = self._job_ids()
        fn_blob = transport.pack_payload(fn)
        cache_on = bool(self._active_cache().enabled)
        ledger = state.ledger

        def dispatch() -> None:
            with self._lock:
                idle = [w for w in self._workers.values()
                        if w.alive and not w.busy]
            for w in idle:
                cid = ledger.assign(w.name)
                if cid is None:
                    return
                try:
                    if job_id not in w.jobs_seen:
                        w.stream.send({
                            "type": "job", "job": job_id,
                            "fn": fn_blob, "collect": bool(collect),
                            "cache": cache_on,
                        })
                    w.stream.send({
                        "type": "chunk", "job": job_id,
                        "chunk": cid,
                        "entries": transport.pack_payload(
                            list(chunks[cid])),
                    })
                except ProtocolError as exc:
                    # The frame itself is too big for the wire —
                    # retrying or blaming the worker cannot help.
                    raise ConfigurationError(
                        f"chunk {cid} ({len(chunks[cid])} item(s)) "
                        f"cannot be dispatched: {exc}; reduce "
                        f"Executor(chunk_size=...) or shrink the "
                        f"work function/items"
                    ) from exc
                except ConnectionError:
                    ledger.requeue_worker(w.name)
                    self._fail_worker(w, "dispatch failed")
                    continue
                # busy/jobs_seen move under the lock so a worker
                # failed between the idle snapshot and the send is
                # never re-marked busy after death.
                with self._lock:
                    w.jobs_seen.add(job_id)
                    if w.alive:
                        w.busy = True
                    self._set_worker_gauges(w)
                ledger.start(cid, time.monotonic())
                tel.counter("parallel.remote.dispatches").inc()

        while not ledger.finished:
            if should_abort is not None and should_abort():
                state.aborted = True
                return
            if self.n_alive == 0:
                raise ShardError(
                    f"no live remote workers ({len(chunks)} chunk(s) "
                    f"outstanding); they crashed or never joined"
                )
            dispatch()
            for _cid, name in ledger.expired(time.monotonic()):
                # The worker is wedged past its deadline: declare it
                # dead rather than double-run the retried chunk.
                with self._lock:
                    worker = self._workers.get(name)
                if worker is not None:
                    self._fail_worker(worker, "chunk timeout")
            try:
                kind, worker, payload = self._events.get(
                    timeout=_POLL_S)
            except queue.Empty:
                continue
            if kind == "death":
                lost = ledger.requeue_worker(worker.name)
                if lost:
                    tel.counter("parallel.remote.requeues") \
                        .inc(len(lost))
                continue
            # kind == "result"
            cid = int(payload.get("chunk", -1))
            with self._lock:
                worker.busy = False
                self._set_worker_gauges(worker)
            if payload.get("job") != job_id:
                continue  # stale result from an aborted run
            if not payload.get("ok"):
                err = payload.get("error") or {}
                ledger.fail(cid, worker.name,
                            f"remote worker {worker.name!r} raised "
                            f"{err.get('type', 'Error')}: "
                            f"{err.get('message', '')}")
                continue
            if not ledger.complete(cid, worker.name):
                continue  # timed out, or no longer this worker's
            results = transport.unpack_payload(payload["payload"])
            worker.chunks_done += 1
            with self._lock:
                self._set_worker_gauges(worker)
            executor._record(state, chunks[cid], results,
                             payload.get("telemetry"), progress)
