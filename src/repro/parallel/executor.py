"""The sharded execution engine: one set of books, four backends.

One :class:`Executor` drives every parallel path in the stack
(shmoo sweeps, wafer test floors, BER characterization). Work
arrives as an ordered list of items, gets grouped into chunks to
amortize dispatch overhead, and runs on one of four fixed backends
(``serial``, ``thread``, ``process``, ``remote``) with:

- deterministic per-item seeding (``SeedSequence.spawn`` via
  :mod:`repro._rng` — shard k sees seed k on every backend),
- bounded retry of failed or crashed chunks,
- wall-clock timeout detection for wedged chunks,
- cooperative cancellation (``should_abort``) with partial results,
- telemetry aggregation: process workers record into private
  registries whose snapshots merge back into the parent through the
  registry's associative merge, so a 16-worker run's counters read
  identically to a serial run's.

Every backend keeps its books in one :class:`ChunkLedger`: attempts,
the retry budget, deadlines, timeouts and stale-result rejection
live there and nowhere else, so one property-tested state machine
decides retries and timeouts whatever the transport. Each backend's
loop keeps only its transport's own work: running a chunk inline,
submitting futures to a pool (and rebuilding a broken or wedged
process pool), or moving frames to remote workers.

The serial backend executes the identical chunk frame inline, which
is what makes "backend equivalence" a testable property rather than
a hope.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import math
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, Future, ProcessPoolExecutor, ThreadPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import cache as artifact_cache
from repro import telemetry
from repro._rng import spawn_seeds
from repro.errors import ConfigurationError, ReproError
from repro.parallel.workers import run_chunk
from repro.telemetry.registry import Registry

#: The backend names :class:`Executor` accepts.
_BACKENDS = ("serial", "thread", "process", "remote")

#: Poll interval (s) while watching for timeouts or abort requests.
_POLL_S = 0.02


class ShardError(ReproError):
    """A shard failed, crashed, or timed out beyond its retry budget."""


class ChunkLedger:
    """Which chunk is where, and what it has cost: the dispatch books.

    Chunks move ``pending -> in flight (on one worker) -> done``.
    Every backend's loop drives one ledger per run and keeps no
    books of its own. A failed attempt (:meth:`fail`) or a passed
    deadline (:meth:`expired`) charges the chunk one attempt and
    requeues it at the front, until its attempts exceed
    ``max_retries`` and the ledger raises :class:`ShardError`. A
    worker death (:meth:`requeue_worker`) requeues for free. A result
    the ledger no longer expects — the chunk timed out, or the worker
    no longer holds it — changes nothing. The class holds no
    sockets, threads or clocks, which is what makes "any interleaving
    runs every chunk exactly once, or raises ShardError" a
    hypothesis property instead of a hope.

    Parameters
    ----------
    n_chunks:
        Chunks in the run (at least one).
    max_retries:
        Charged attempts a chunk survives; the next one raises
        :class:`ShardError`.
    timeout_s:
        Wall-clock limit on one attempt, counted from :meth:`start`;
        None never expires.
    """

    def __init__(self, n_chunks: int, max_retries: int = 1,
                 timeout_s: Optional[float] = None):
        if n_chunks < 1:
            raise ConfigurationError(
                f"need >= 1 chunk, got {n_chunks}"
            )
        self.pending: deque = deque(range(n_chunks))
        self.in_flight: Dict[int, str] = {}
        self.done: set = set()
        self.n_chunks = n_chunks
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        #: Attempts charged to each chunk (failures and timeouts).
        self.attempts = [0] * n_chunks
        #: Deadline of each in-flight chunk that has started.
        self.deadlines: Dict[int, float] = {}
        #: Attempts charged run-wide, and how many were timeouts.
        self.retries = 0
        self.timeouts = 0

    def assign(self, worker: str) -> Optional[int]:
        """Move the next pending chunk onto *worker*; None if idle."""
        if not self.pending:
            return None
        cid = self.pending.popleft()
        self.in_flight[cid] = worker
        return cid

    def start(self, cid: int, now: float) -> None:
        """Arm an in-flight chunk's deadline once, as it starts."""
        if self.timeout_s is not None and cid in self.in_flight:
            self.deadlines.setdefault(cid, now + self.timeout_s)

    def complete(self, cid: int, worker: str) -> bool:
        """Mark *worker*'s chunk finished.

        Returns False, changing nothing, for a result the ledger no
        longer expects: the chunk timed out, or *worker* no longer
        holds it.
        """
        if self.in_flight.get(cid) != worker:
            return False
        del self.in_flight[cid]
        self.deadlines.pop(cid, None)
        self.done.add(cid)
        return True

    def fail(self, cid: int, worker: str, cause) -> bool:
        """Charge *worker*'s chunk one failed attempt.

        The chunk requeues at the front; once its attempts exceed
        ``max_retries`` this raises :class:`ShardError` reading
        ``chunk <cid> failed after <n> attempt(s): <cause>``. Returns
        False, changing nothing, for a failure the ledger no longer
        expects (as :meth:`complete`).
        """
        if self.in_flight.get(cid) != worker:
            return False
        self._charge(cid, "failed", f": {cause}",
                     cause if isinstance(cause, BaseException) else None)
        return True

    def expired(self, now: float) -> List[Tuple[int, str]]:
        """Charge each started chunk past its deadline as a timeout.

        Returns the ``(cid, worker)`` pairs that timed out, for the
        loop to stop or abandon those workers; raises
        :class:`ShardError` for a chunk out of attempts.
        """
        late = [(cid, self.in_flight[cid])
                for cid, deadline in sorted(self.deadlines.items())
                if now > deadline]
        for cid, _ in late:
            self.timeouts += 1
            self._charge(cid, "timed out",
                         f" ({self.timeout_s:g}s each)")
        return late

    def requeue_worker(self, worker: str) -> List[int]:
        """Reclaim every chunk in flight on *worker*, free of charge.

        Returns the requeued chunk ids (prepended to pending so the
        recovery work dispatches first).
        """
        lost = sorted(cid for cid, w in self.in_flight.items()
                      if w == worker)
        for cid in reversed(lost):
            del self.in_flight[cid]
            self.deadlines.pop(cid, None)
            self.pending.appendleft(cid)
        return lost

    def _charge(self, cid: int, how: str, detail: str,
                cause: Optional[BaseException] = None) -> None:
        del self.in_flight[cid]
        self.deadlines.pop(cid, None)
        self.pending.appendleft(cid)
        self.attempts[cid] += 1
        self.retries += 1
        if self.attempts[cid] > self.max_retries:
            raise ShardError(
                f"chunk {cid} {how} after {self.attempts[cid]} "
                f"attempt(s){detail}"
            ) from cause

    @property
    def finished(self) -> bool:
        """True once every chunk is done."""
        return len(self.done) == self.n_chunks

    def check_invariants(self) -> None:
        """Every chunk is in exactly one of pending/in-flight/done,
        only in-flight chunks hold deadlines, and every charged
        attempt is counted."""
        pend = set(self.pending)
        fly = set(self.in_flight)
        states = [pend, fly, self.done]
        assert sum(len(s) for s in states) == self.n_chunks
        assert pend | fly | self.done == set(range(self.n_chunks))
        assert set(self.deadlines) <= fly
        assert self.retries == sum(self.attempts)
        assert self.timeouts <= self.retries


class CallbackGuard:
    """Shields a run from exceptions raised by caller hooks.

    ``progress`` and ``should_abort`` callbacks are caller code
    executing inside the engine's dispatch loop; one that raises
    used to propagate out of :meth:`Executor.run` (or a
    :class:`~repro.host.shmoo.ShmooRunner` sweep) mid-run, losing
    every completed shard. Wrapped in a guard, the first hook
    failure is counted as ``parallel.callback_errors``, the failing
    hook is never called again, and the run converts to a clean
    cooperative abort — partial results with ``aborted=True`` —
    exactly as if ``should_abort`` had returned True.
    """

    __slots__ = ("_progress", "_should_abort", "failed")

    def __init__(self, progress=None, should_abort=None):
        self._progress = progress
        self._should_abort = should_abort
        #: True once any hook has raised; latches the abort.
        self.failed = False

    @property
    def active(self) -> bool:
        """True when at least one hook is present (guard needed)."""
        return (self._progress is not None
                or self._should_abort is not None)

    def _note_failure(self) -> None:
        self.failed = True
        telemetry.active().counter("parallel.callback_errors").inc()

    def progress(self, *args) -> None:
        """Forward to the caller's progress hook, absorbing errors."""
        if self.failed or self._progress is None:
            return
        try:
            self._progress(*args)
        except Exception:
            self._note_failure()

    def should_abort(self) -> bool:
        """Poll the caller's abort hook; a raised error aborts."""
        if self.failed:
            return True
        if self._should_abort is None:
            return False
        try:
            return bool(self._should_abort())
        except Exception:
            self._note_failure()
            return True


@dataclasses.dataclass
class ExecutionResult:
    """What one :meth:`Executor.run` produced.

    Attributes
    ----------
    results:
        Per-item results in canonical (submission) order; ``None``
        for items skipped by an abort.
    completed:
        Per-item completion flags (all True unless aborted).
    retries:
        Chunk attempts beyond the first, run-wide.
    aborted:
        True when ``should_abort`` stopped the run early.
    """

    results: List[Any]
    completed: List[bool]
    retries: int
    aborted: bool

    @property
    def ok(self) -> bool:
        """True when every item completed."""
        return all(self.completed)

    @property
    def n_completed(self) -> int:
        """Items that finished."""
        return sum(1 for c in self.completed if c)

    def to_dict(self) -> dict:
        """Wire-ready plain-dict form (for the RPC service layer).

        Per-item results ride through verbatim, so they must
        themselves be JSON-friendly (numbers, strings, lists,
        dicts, or ``None``) for the dict to serialize.
        """
        return {
            "results": list(self.results),
            "completed": [bool(c) for c in self.completed],
            "retries": int(self.retries),
            "aborted": bool(self.aborted),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            results=list(data["results"]),
            completed=[bool(c) for c in data["completed"]],
            retries=int(data["retries"]),
            aborted=bool(data["aborted"]),
        )


class _RunState:
    """Mutable bookkeeping for one run: results beside the ledger."""

    def __init__(self, total: int, ledger: ChunkLedger):
        self.results: List[Any] = [None] * total
        self.completed = [False] * total
        self.done = 0
        self.ledger = ledger
        self.aborted = False
        self.snapshots: List[dict] = []


class Executor:
    """Sharded work execution over a chosen backend.

    Parameters
    ----------
    backend:
        One of four fixed names: ``"serial"`` (inline, the
        default), ``"thread"``
        (:class:`~concurrent.futures.ThreadPoolExecutor` — right for
        workloads that sleep or release the GIL), ``"process"``
        (:class:`~concurrent.futures.ProcessPoolExecutor` — true
        parallelism; work functions and their bound arguments must
        be picklable) or ``"remote"`` (a
        :class:`~repro.parallel.pool.WorkerPool` of worker
        *processes* over NDJSON/TCP — local or on other hosts, with
        heartbeat supervision, requeue on worker death, and the
        shared read-through cache tier). Only ``process`` and
        ``remote`` ship work to another process.
    max_workers:
        Pool width for the thread/process backends; spawned worker
        count for an owned remote pool.
    chunk_size:
        Items per dispatched chunk; default balances ~4 chunks per
        worker to amortize IPC while keeping the queue responsive.
    max_retries:
        How many times a failed/crashed/timed-out chunk is retried
        before :class:`ShardError` (0 disables retry).
    timeout_s:
        Wall-clock limit for one chunk's *execution* (measured from
        when it starts running, not from submission). A timed-out
        chunk counts as a failure and consumes a retry. What happens
        to the wedged work depends on the backend: ``serial`` runs
        each chunk inline to its end and ignores the limit;
        ``thread`` abandons the stuck future — a thread cannot be
        killed, so the chunk may still run to completion in the
        background, and work functions should be idempotent;
        ``process`` terminates the pool's worker processes and
        rebuilds the pool, requeuing its other chunks for free (the
        workers are also terminated when the run raises after a
        timeout); ``remote`` declares the wedged worker dead, so a
        retry runs on the survivors.
    backend_options:
        Backend-specific settings. The remote backend reads
        ``pool`` (a started :class:`~repro.parallel.pool.WorkerPool`
        to share — the executor will not close it) or, when
        spawning its own, ``heartbeat_s`` / ``heartbeat_timeout_s``
        / ``connect_timeout_s`` / ``spawn`` / ``host`` / ``port``.
        The other backends read nothing from it.
    """

    def __init__(self, backend: str = "serial",
                 max_workers: int = 4,
                 chunk_size: Optional[int] = None,
                 max_retries: int = 1,
                 timeout_s: Optional[float] = None,
                 backend_options: Optional[dict] = None):
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; backends: "
                f"{', '.join(_BACKENDS)}"
            )
        if max_workers < 1:
            raise ConfigurationError(
                f"need >= 1 worker, got {max_workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk size must be >= 1, got {chunk_size}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {max_retries}"
            )
        if timeout_s is not None and timeout_s <= 0.0:
            raise ConfigurationError(
                f"timeout must be positive, got {timeout_s}"
            )
        self.backend = backend
        self.max_workers = int(max_workers)
        self.chunk_size = chunk_size
        self.max_retries = int(max_retries)
        self.timeout_s = timeout_s
        self.backend_options = dict(backend_options or {})
        self._remote_pool = None
        self._owns_pool = False

    def __repr__(self) -> str:
        return (f"Executor(backend={self.backend!r}, "
                f"max_workers={self.max_workers}, "
                f"max_retries={self.max_retries})")

    # -- remote-pool lifecycle ---------------------------------------------

    def _ensure_remote_pool(self):
        """The WorkerPool this executor dispatches remote runs on.

        An injected ``backend_options={"pool": ...}`` pool is used
        as-is (and never closed here); otherwise the executor
        spawns and owns a local pool of ``max_workers`` workers,
        kept warm across runs until :meth:`close`.
        """
        if self._remote_pool is not None:
            return self._remote_pool
        pool = self.backend_options.get("pool")
        if pool is None:
            from repro.parallel.pool import WorkerPool

            opts = {k: v for k, v in self.backend_options.items()
                    if k in ("heartbeat_s", "heartbeat_timeout_s",
                             "connect_timeout_s", "spawn", "host",
                             "port")}
            pool = WorkerPool(n_workers=self.max_workers, **opts)
            self._owns_pool = True
        self._remote_pool = pool
        return pool

    def close(self) -> None:
        """Release backend resources (the owned remote pool).

        Safe to call on any backend; in-process backends hold
        nothing between runs. Executors used as context managers
        close on exit.
        """
        if self._remote_pool is not None and self._owns_pool:
            self._remote_pool.close()
        self._remote_pool = None
        self._owns_pool = False

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def run(self, fn: Callable[[Any, Optional[int]], Any],
            items: Sequence[Any], *,
            seed_root=None,
            progress: Optional[Callable[[int, int, Tuple[int, ...]],
                                        None]] = None,
            should_abort: Optional[Callable[[], bool]] = None
            ) -> ExecutionResult:
        """Run ``fn(item, seed)`` over every item; results in order.

        Parameters
        ----------
        fn:
            The work function. For the process backend it must be
            picklable (a module-level function or a
            :func:`functools.partial` over one). Serial and thread
            chunks see the caller's cache scope itself; a
            ``process`` chunk runs in an empty clone of the caller's
            active cache (sharing its ``disk_path``, when set), and
            none when caching is off; ``remote`` workers read
            through the pool's cache tier.
        items:
            Ordered work items (a shmoo's cells, a
            :class:`ShardPlan`'s shards, ...).
        seed_root:
            When given, per-item integer seeds are spawned
            deterministically from this root (int or sequence of
            ints) and passed as ``fn``'s second argument; otherwise
            the seed argument is ``None``.
        progress:
            ``progress(done, total, just_completed_indices)`` fired
            after every completed chunk.
        should_abort:
            Polled between chunks; returning True stops dispatch,
            cancels what it can, and yields partial results with
            ``aborted=True``.

        Worker-side telemetry is collected exactly when the caller's
        active registry is enabled and the backend is ``"process"``
        or ``"remote"``, whose workers' snapshots merge into that
        registry. Serial chunks run in the caller's context and
        thread chunks in a copy of it, so they record into the
        caller's registry directly.
        """
        items = list(items)
        if not items:
            raise ConfigurationError("no work items to run")
        tel = telemetry.active()
        guard = CallbackGuard(progress, should_abort)
        if guard.active:
            # A raising hook converts to a clean abort instead of
            # propagating mid-run (counted as
            # parallel.callback_errors).
            progress = guard.progress if progress is not None else None
            should_abort = guard.should_abort
        shipped = self.backend in ("process", "remote")
        collect_telemetry = bool(tel.enabled) and shipped
        seeds: List[Optional[int]]
        if seed_root is not None:
            seeds = list(spawn_seeds(len(items), root=seed_root))
        else:
            seeds = [None] * len(items)
        entries = [(i, item, seed)
                   for i, (item, seed) in enumerate(zip(items, seeds))]
        if shipped:
            self._check_portable(fn, entries[0])
        if self.backend == "process" and artifact_cache.enabled():
            # Each chunk unpickles its own empty clone of the caller's
            # cache (remote workers read through the pool's tier).
            fn = functools.partial(_run_in_cache,
                                   artifact_cache.active(), fn)
        size = self.chunk_size if self.chunk_size is not None else \
            max(1, math.ceil(len(items) / (self.max_workers * 4)))
        chunks = [entries[i:i + size]
                  for i in range(0, len(entries), size)]
        ledger = ChunkLedger(len(chunks), self.max_retries,
                             self.timeout_s)
        state = _RunState(len(items), ledger)
        try:
            with tel.span("parallel.run"):
                if self.backend == "serial":
                    self._run_serial(fn, chunks, state, progress,
                                     should_abort)
                elif self.backend == "remote":
                    self._ensure_remote_pool().execute(
                        self, fn, chunks, state, progress,
                        should_abort, collect_telemetry)
                else:
                    self._run_pooled(fn, chunks, state, progress,
                                     should_abort, collect_telemetry)
        finally:
            # Commit the run's accounting even when a shard error
            # propagates — failed runs must stay observable.
            tel.counter("parallel.runs").inc()
            tel.counter("parallel.chunks").inc(len(chunks))
            tel.counter("parallel.items").inc(state.done)
            if ledger.retries:
                tel.counter("parallel.retries").inc(ledger.retries)
            if ledger.timeouts:
                tel.counter("parallel.timeouts").inc(ledger.timeouts)
            if state.aborted:
                tel.counter("parallel.aborts").inc()
            self._absorb_snapshots(tel, state)
        return ExecutionResult(results=state.results,
                               completed=state.completed,
                               retries=ledger.retries,
                               aborted=state.aborted)

    # -- submit-time portability check -------------------------------------

    def _check_portable(self, fn, first_entry) -> None:
        """Fail fast when work cannot travel to another process.

        On an isolated backend an unpicklable work function (a
        lambda, a bound method of an unpicklable object) or work
        item used to surface as an opaque per-chunk failure — and a
        retry storm — mid-run. One representative pickle of the
        function and the first ``(index, item, seed)`` entry at
        submit time turns that into an immediate, actionable
        :class:`ConfigurationError`.
        """
        if self.backend == "remote" \
                and getattr(fn, "__module__", None) == "__main__":
            name = getattr(fn, "__qualname__", None) or repr(fn)
            raise ConfigurationError(
                f"work function {name} lives in __main__, which "
                f"remote workers cannot import (they run as their "
                f"own __main__); move it into an importable module "
                f"or run with backend='serial'/'process'"
            )
        try:
            pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            name = getattr(fn, "__qualname__", None) or repr(fn)
            raise ConfigurationError(
                f"work function {name} is not picklable, but the "
                f"{self.backend!r} backend ships work to other "
                f"processes ({exc}); use a module-level function "
                f"or a functools.partial over one, or run with "
                f"backend='serial'/'thread'"
            ) from exc
        try:
            pickle.dumps(first_entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ConfigurationError(
                f"work item 0 ({first_entry[1]!r}) is not picklable, "
                f"but the {self.backend!r} backend ships work to "
                f"other processes ({exc}); pass plain-data items or "
                f"run with backend='serial'/'thread'"
            ) from exc

    # -- serial backend ----------------------------------------------------

    def _run_serial(self, fn, chunks, state, progress, should_abort):
        """Run each chunk inline; a chunk cannot time out here."""
        ledger = state.ledger
        while ledger.pending:
            if should_abort is not None and should_abort():
                state.aborted = True
                return
            cid = ledger.assign("serial")
            try:
                results, snap = run_chunk(fn, chunks[cid], False)
            except Exception as exc:
                ledger.fail(cid, "serial", exc)
                continue
            ledger.complete(cid, "serial")
            self._record(state, chunks[cid], results, snap, progress)

    # -- pooled backends ---------------------------------------------------

    def _make_pool(self):
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.max_workers)
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _run_pooled(self, fn, chunks, state, progress, should_abort,
                    collect):
        """Thread/process loop: the pool is one worker to the ledger,
        and every pending chunk is submitted to it at once."""
        ledger, me = state.ledger, self.backend
        pool = self._make_pool()
        running: Dict[Future, int] = {}
        block = _POLL_S if (self.timeout_s is not None
                            or should_abort is not None) else None

        def submit_pending() -> None:
            cid = ledger.assign(me)
            while cid is not None:
                call = (run_chunk, fn, chunks[cid], collect)
                if me == "thread":
                    # The chunk runs in a copy of the caller's
                    # context, so its cache and telemetry scopes
                    # reach the pool thread.
                    call = (contextvars.copy_context().run,) + call
                fut = pool.submit(*call)
                running[fut] = cid
                cid = ledger.assign(me)

        def replace_pool() -> None:
            # Every future on the old pool is lost with it: requeue
            # its chunks for free and stop its workers.
            nonlocal pool
            ledger.requeue_worker(me)
            running.clear()
            _shut_down(pool, terminate=True)
            pool = self._make_pool()

        try:
            submit_pending()
            while running:
                if should_abort is not None and should_abort():
                    state.aborted = True
                    break
                wait(running, timeout=block,
                     return_when=FIRST_COMPLETED)
                # Completions first, so a finished chunk never gets
                # charged a timeout it beat by a poll interval.
                for fut in [f for f in running if f.done()]:
                    cid = running.pop(fut)
                    try:
                        results, snap = fut.result()
                    except BrokenProcessPool as exc:
                        # A worker died; charge the chunk we saw it
                        # on, the pool's other chunks go back free.
                        ledger.fail(cid, me, f"a worker crashed ({exc})")
                        replace_pool()
                        break
                    except Exception as exc:
                        ledger.fail(cid, me, exc)
                    else:
                        ledger.complete(cid, me)
                        self._record(state, chunks[cid], results,
                                     snap, progress)
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for fut, cid in running.items():
                        if fut.running():
                            ledger.start(cid, now)
                    late = {cid for cid, _ in ledger.expired(now)}
                    if late and me == "process":
                        # The worker is wedged; replace the pool so
                        # the retry is not starved behind it.
                        replace_pool()
                    elif late:
                        # A stuck thread cannot be killed: abandon
                        # its future and retry the chunk.
                        for fut in [f for f, cid in running.items()
                                    if cid in late]:
                            del running[fut]
                submit_pending()
        finally:
            # After a timeout the pool may still hold a wedged worker
            # process (when the run raises), and interpreter exit
            # would wait for it.
            _shut_down(pool, terminate=ledger.timeouts > 0)

    # -- shared plumbing ---------------------------------------------------

    @staticmethod
    def _record(state, chunk, results, snap, progress):
        indices = []
        for (gidx, _, _), res in zip(chunk, results):
            state.results[gidx] = res
            state.completed[gidx] = True
            indices.append(gidx)
        state.done += len(indices)
        if snap is not None:
            state.snapshots.append(snap)
        if progress is not None:
            progress(state.done, len(state.results), tuple(indices))

    @staticmethod
    def _absorb_snapshots(tel, state) -> None:
        if not state.snapshots:
            return
        combined = Registry.from_snapshot(state.snapshots[0])
        for snap in state.snapshots[1:]:
            combined = combined.merge(Registry.from_snapshot(snap))
        tel.absorb(combined)


def _run_in_cache(cache, fn, item, seed):
    """``fn(item, seed)`` inside a ``use_cache(cache)`` scope.

    Module-level so a ``process`` run can pickle it around its work
    function: each chunk then runs in the empty clone that
    unpickling *cache* builds.
    """
    with artifact_cache.use_cache(cache):
        return fn(item, seed)


def _shut_down(pool, terminate: bool = False) -> None:
    """Shut *pool* down without waiting, cancelling queued futures.

    With *terminate*, a process pool's worker processes are stopped
    too. ``ProcessPoolExecutor`` has no public terminate before
    Python 3.14, and ``shutdown()`` clears ``_processes``, so it is
    read first.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values()) \
        if terminate else []
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.terminate()
