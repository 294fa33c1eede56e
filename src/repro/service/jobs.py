"""Job model for the test-floor master.

A job is one queued unit of tester work (a shmoo, a BER
characterization, an eye capture, a wafer sort) with a priority, an
optional deadline, and a lifecycle::

    pending -> running -> completed | failed | aborted
                  ^  \\
                  |   v
               paused <- pausing

Control is cooperative and rides the measurement stack's existing
``should_abort`` seam: the worker thread polls
:meth:`JobContext.should_abort` between cells/shards/touchdowns/chunks, and
that checkpoint is where an abort is observed and where a pause
physically parks the thread (blocking on a condition until resume
or abort). Because the pause happens *inside* the callback — the
measurement code just sees ``should_abort() -> False`` once the
job resumes — a paused-then-resumed run produces bit-identical
results to an uninterrupted one.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError

#: Lifecycle states (plain strings so they serialize as-is).
PENDING = "pending"
RUNNING = "running"
PAUSING = "pausing"
PAUSED = "paused"
COMPLETED = "completed"
FAILED = "failed"
ABORTED = "aborted"

#: States a job never leaves.
TERMINAL_STATES = frozenset({COMPLETED, FAILED, ABORTED})


class Job:
    """One unit of queued tester work and its control plumbing.

    Parameters
    ----------
    job_id:
        Scheduler-assigned identifier.
    kind:
        Registered job type (``"shmoo"``, ``"ber"``, ``"eye"``,
        ``"wafer"``, or anything the runner knows).
    params:
        JSON-ready keyword arguments for the job type.
    priority:
        Higher runs first; ties run in submission order.
    deadline_s:
        Optional wall-clock budget from the moment the job starts
        running; overruns are aborted.
    """

    def __init__(self, job_id: int, kind: str, params: Dict[str, Any],
                 priority: int = 0,
                 deadline_s: Optional[float] = None):
        if deadline_s is not None and deadline_s <= 0.0:
            raise ConfigurationError(
                f"deadline must be positive, got {deadline_s}"
            )
        self.job_id = int(job_id)
        self.kind = str(kind)
        self.params = dict(params)
        self.priority = int(priority)
        self.deadline_s = deadline_s
        self.state = PENDING
        self.result: Any = None
        self.partial: Any = None
        self.error: Optional[str] = None
        self.abort_reason: Optional[str] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Set by the scheduler when a preemption (not a client
        #: pause) parked the job, so it re-queues itself.
        self.auto_resume = False
        # Worker-side control flags, guarded by the condition. The
        # worker thread reads them inside should_abort; the event
        # loop writes them via request_*.
        self._cond = threading.Condition()
        self._abort_requested = False
        self._pause_requested = False

    # -- control requests (called from the event-loop thread) -----------

    def request_abort(self, reason: str = "abort requested") -> None:
        """Ask the worker to stop at its next checkpoint (also
        wakes a worker parked in pause)."""
        with self._cond:
            if self.abort_reason is None:
                self.abort_reason = reason
            self._abort_requested = True
            self._pause_requested = False
            self._cond.notify_all()

    def request_pause(self) -> None:
        """Ask the worker to park at its next checkpoint."""
        with self._cond:
            if not self._abort_requested:
                self._pause_requested = True

    def request_resume(self) -> None:
        """Release a parked worker."""
        with self._cond:
            self._pause_requested = False
            self._cond.notify_all()

    @property
    def abort_requested(self) -> bool:
        """True once an abort has been asked for."""
        with self._cond:
            return self._abort_requested

    # -- worker-side checkpoint (called from the worker thread) ----------

    def checkpoint(self,
                   on_paused: Optional[Callable[[], None]] = None
                   ) -> bool:
        """The worker's ``should_abort`` body.

        Returns True to stop the measurement. A pending pause
        request parks the calling thread here: *on_paused* fires
        (threadsafe scheduler hand-off — this is what frees the
        slot), and the thread waits on the condition. A resume
        releases it with False, so the measurement continues exactly
        where it left off; an abort releases it with True.
        """
        with self._cond:
            if self._abort_requested:
                return True
            if not self._pause_requested:
                return False
            if on_paused is not None:
                on_paused()
            while self._pause_requested and not self._abort_requested:
                self._cond.wait()
            return self._abort_requested

    # -- wire form -------------------------------------------------------

    def describe(self) -> dict:
        """Wire-ready status summary."""
        out = {
            "job_id": self.job_id,
            "kind": self.kind,
            "priority": self.priority,
            "state": self.state,
            "deadline_s": self.deadline_s,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.abort_reason is not None:
            out["abort_reason"] = self.abort_reason
        if self.state in TERMINAL_STATES:
            out["result"] = self.result
            if self.partial is not None and self.result is None:
                out["partial"] = self.partial
        return out

    def __repr__(self) -> str:
        return (f"Job(id={self.job_id}, kind={self.kind!r}, "
                f"priority={self.priority}, state={self.state!r})")


class JobContext:
    """What a running job's worker thread sees.

    Bridges the worker back to the event loop: progress and partial
    results are handed to the loop with ``call_soon_threadsafe``
    and published on the job's topics; :meth:`should_abort` is the
    cooperative checkpoint wired into the measurement stack's
    existing hooks.

    Checkpoints and events are separate choices of the job type.
    Every event is one hand-off through the loop, the wire and each
    subscribed client, so a job polls :meth:`should_abort` as often
    as its pause latency needs and publishes only as often as a
    reader can use: the builtin shmoo checkpoints and publishes a
    partial per cell, the BER job per shard, the wafer job
    checkpoints per touchdown with one progress tick each, and the
    eye job checkpoints every chunk but publishes at most every
    :data:`repro.service.runner.EYE_PUBLISH_INTERVAL_S`.

    Topics: ``job.<id>.state``, ``job.<id>.progress``,
    ``job.<id>.partial``.
    """

    def __init__(self, job: Job, loop, hub,
                 on_paused: Optional[Callable[[], None]] = None):
        self.job = job
        self._loop = loop
        self._hub = hub
        self._on_paused = on_paused

    def should_abort(self) -> bool:
        """Cooperative checkpoint; pass as the measurement's
        ``should_abort`` hook."""
        return self.job.checkpoint(on_paused=self._on_paused)

    def emit(self, channel: str, data) -> None:
        """Publish *data* on ``job.<id>.<channel>`` (threadsafe)."""
        topic = f"job.{self.job.job_id}.{channel}"
        self._loop.call_soon_threadsafe(self._hub.publish, topic,
                                        data)

    def progress(self, done: int, total: int) -> None:
        """Publish a progress tick; wire into ``progress`` hooks."""
        self.emit("progress", {"done": int(done),
                               "total": int(total)})

    def partial(self, data) -> None:
        """Publish a partial result and remember the latest one (an
        aborted job returns it)."""
        self.job.partial = data
        self.emit("partial", data)
