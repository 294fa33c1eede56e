"""Priority scheduler: bounded slots, preemption, deadlines.

The test-floor master's dispatch brain. Jobs queue on a priority
heap (higher priority first, FIFO within a priority) and run on at
most *max_slots* worker threads via ``asyncio.to_thread``. All
scheduler state lives on the event-loop thread; worker threads
only touch their own :class:`~.jobs.Job` condition and hand
notifications back with ``call_soon_threadsafe``.

Preemption is cooperative: when a strictly higher-priority job is
queued and every slot is busy, the lowest-priority running job is
asked to pause. Its worker thread parks at the next
``should_abort`` checkpoint and acks back, which is the moment the
slot actually frees — the scheduler never yanks a thread
mid-measurement. The preempted job re-queues itself
(``auto_resume``) and continues, bit-identical, when a slot opens.

Deadlines are wall-clock from job start (pauses included): an
overrunning job gets an abort request and finishes with its
partials.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Dict, List, Optional

from repro import telemetry
from repro.errors import ConfigurationError
from repro.service.jobs import (
    ABORTED, COMPLETED, FAILED, PAUSED, PAUSING, PENDING, RUNNING,
    TERMINAL_STATES, Job, JobContext,
)
from repro.service.pubsub import PubSubHub
from repro.service.runner import JobRunner


class Scheduler:
    """Priority job scheduler over bounded worker slots.

    Parameters
    ----------
    runner:
        The :class:`~.runner.JobRunner` executing job kinds.
    hub:
        The :class:`~.pubsub.PubSubHub` receiving job events.
    max_slots:
        Concurrent worker threads.
    """

    def __init__(self, runner: JobRunner, hub: PubSubHub,
                 max_slots: int = 2):
        if max_slots < 1:
            raise ConfigurationError(
                f"need >= 1 slot, got {max_slots}"
            )
        self.runner = runner
        self.hub = hub
        self.max_slots = int(max_slots)
        self.jobs: Dict[int, Job] = {}
        self._heap: List[tuple] = []
        self._queued: set = set()
        self._running: set = set()
        self._ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._tasks: Dict[int, asyncio.Task] = {}
        self._deadlines: Dict[int, asyncio.TimerHandle] = {}

    # -- client surface (event-loop thread) ------------------------------

    def submit(self, kind: str, params: Optional[dict] = None,
               priority: int = 0,
               deadline_s: Optional[float] = None) -> Job:
        """Queue a job; returns it (dispatch happens immediately
        when a slot is free)."""
        if kind not in self.runner.kinds:
            raise ConfigurationError(
                f"unknown job kind {kind!r}; "
                f"registered: {', '.join(self.runner.kinds)}"
            )
        job = Job(next(self._ids), kind, params or {},
                  priority=priority, deadline_s=deadline_s)
        self.jobs[job.job_id] = job
        self._enqueue(job)
        tel = telemetry.active()
        tel.counter("service.jobs_submitted").inc()
        self._publish_state(job)
        self._pump()
        return job

    def get(self, job_id: int) -> Job:
        """The job, or :class:`ConfigurationError` if unknown."""
        try:
            return self.jobs[int(job_id)]
        except (KeyError, ValueError, TypeError):
            raise ConfigurationError(
                f"unknown job id {job_id!r}"
            ) from None

    def pause(self, job_id: int) -> dict:
        """Ask a running job to park at its next checkpoint."""
        job = self.get(job_id)
        if job.state not in (RUNNING, PAUSING, PAUSED):
            raise ConfigurationError(
                f"job {job.job_id} is {job.state}; only running "
                f"jobs pause"
            )
        if job.state == RUNNING:
            job.state = PAUSING
            job.auto_resume = False
            job.request_pause()
            self._publish_state(job)
            self._update_gauges()
        else:
            # Already pausing/paused: a client pause cancels any
            # pending auto-resume so the job stays parked.
            job.auto_resume = False
            self._drop_from_queue(job)
        return job.describe()

    def resume(self, job_id: int) -> dict:
        """Re-queue a paused job (it runs when a slot opens)."""
        job = self.get(job_id)
        if job.state == PAUSING:
            # The worker has not parked yet; just cancel the pause.
            job.request_resume()
            job.state = RUNNING
            self._publish_state(job)
            self._update_gauges()
        elif job.state == PAUSED:
            self._enqueue(job)
            self._pump()
        elif job.state not in (RUNNING,):
            raise ConfigurationError(
                f"job {job.job_id} is {job.state}; only paused "
                f"jobs resume"
            )
        return job.describe()

    def abort(self, job_id: int,
              reason: str = "abort requested") -> dict:
        """Stop a job: immediately if pending, at the next
        checkpoint if running, waking it if parked."""
        job = self.get(job_id)
        if job.state in TERMINAL_STATES:
            return job.describe()
        if job.state == PENDING:
            job.state = ABORTED
            job.abort_reason = reason
            job.finished_at = time.monotonic()
            self._drop_from_queue(job)
            telemetry.active().counter("service.jobs_aborted").inc()
            self._publish_state(job)
            self._update_gauges()
            self._pump()
        else:
            self._drop_from_queue(job)
            job.request_abort(reason)
        return job.describe()

    def list_jobs(self) -> list:
        """Wire-ready summaries of every known job, by id."""
        return [self.jobs[jid].describe()
                for jid in sorted(self.jobs)]

    async def drain(self) -> None:
        """Wait until the queue is empty and every worker is done.

        Follows the cascade: a finishing job's slot admits the next
        queued one, which drain also waits out. A job parked by a
        client pause (no auto-resume) blocks drain until it is
        resumed or aborted — its worker thread is still alive.
        """
        while True:
            tasks = [t for t in self._tasks.values()
                     if not t.done()]
            if tasks:
                await asyncio.gather(*tasks,
                                     return_exceptions=True)
                continue
            self._pump()
            if not self._tasks:
                return

    def shutdown(self) -> None:
        """Abort everything still live (drain afterwards to wait)."""
        for job in list(self.jobs.values()):
            if job.state not in TERMINAL_STATES:
                self.abort(job.job_id, reason="server shutdown")

    # -- dispatch --------------------------------------------------------

    def _enqueue(self, job: Job) -> None:
        if job.job_id in self._queued:
            return
        heapq.heappush(self._heap,
                       (-job.priority, next(self._seq), job.job_id))
        self._queued.add(job.job_id)

    def _drop_from_queue(self, job: Job) -> None:
        # Lazy removal: the id leaves the queued set now; the heap
        # entry is skipped when popped.
        self._queued.discard(job.job_id)

    def _peek(self) -> Optional[Job]:
        """Highest-priority queued job, discarding stale entries."""
        while self._heap:
            _, _, jid = self._heap[0]
            job = self.jobs.get(jid)
            if jid in self._queued and job is not None \
                    and job.state in (PENDING, PAUSED):
                return job
            heapq.heappop(self._heap)
        return None

    def _pump(self) -> None:
        """Fill free slots from the queue, then consider
        preemption."""
        while len(self._running) < self.max_slots:
            job = self._peek()
            if job is None:
                break
            heapq.heappop(self._heap)
            self._queued.discard(job.job_id)
            if job.state == PENDING:
                self._start(job)
            else:  # PAUSED: grant the slot back and wake the worker
                self._running.add(job.job_id)
                job.state = RUNNING
                job.request_resume()
                telemetry.active().counter("service.jobs_resumed").inc()
                self._publish_state(job)
        self._maybe_preempt()
        self._update_gauges()

    def _maybe_preempt(self) -> None:
        top = self._peek()
        if top is None or len(self._running) < self.max_slots:
            return
        running = [self.jobs[jid] for jid in self._running]
        if any(j.state == PAUSING for j in running):
            return  # a slot is already on its way out
        candidates = [j for j in running if j.state == RUNNING]
        if not candidates:
            return
        victim = min(candidates,
                     key=lambda j: (j.priority, -j.job_id))
        if top.priority <= victim.priority:
            return
        victim.state = PAUSING
        victim.auto_resume = True
        victim.request_pause()
        telemetry.active().counter("service.preemptions").inc()
        self._publish_state(victim)

    def _start(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        self._running.add(job.job_id)
        job.state = RUNNING
        job.started_at = time.monotonic()
        ctx = JobContext(
            job, loop, self.hub,
            on_paused=lambda: loop.call_soon_threadsafe(
                self._on_pause_ack, job),
        )
        if job.deadline_s is not None:
            self._deadlines[job.job_id] = loop.call_later(
                job.deadline_s, self._on_deadline, job)
        self._publish_state(job)
        self._tasks[job.job_id] = loop.create_task(
            self._run(job, ctx))

    def _on_pause_ack(self, job: Job) -> None:
        """The worker thread has actually parked: free its slot."""
        if job.state != PAUSING:
            return  # resumed or aborted before the ack landed
        job.state = PAUSED
        self._running.discard(job.job_id)
        telemetry.active().counter("service.jobs_paused").inc()
        self._publish_state(job)
        if job.auto_resume:
            self._enqueue(job)
        self._pump()

    def _on_deadline(self, job: Job) -> None:
        self._deadlines.pop(job.job_id, None)
        if job.state not in TERMINAL_STATES:
            telemetry.active().counter("service.deadline_aborts").inc()
            self.abort(job.job_id, reason="deadline exceeded")

    async def _run(self, job: Job, ctx: JobContext) -> None:
        tel = telemetry.active()
        try:
            payload = await asyncio.to_thread(self.runner.run, job,
                                              ctx)
        except Exception as exc:
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            tel.counter("service.jobs_failed").inc()
        else:
            if job.abort_requested:
                job.state = ABORTED
                if payload is not None:
                    job.partial = payload
                tel.counter("service.jobs_aborted").inc()
            else:
                job.state = COMPLETED
                job.result = payload
                tel.counter("service.jobs_completed").inc()
        finally:
            job.finished_at = time.monotonic()
            handle = self._deadlines.pop(job.job_id, None)
            if handle is not None:
                handle.cancel()
            self._running.discard(job.job_id)
            self._queued.discard(job.job_id)
            self._tasks.pop(job.job_id, None)
            self._publish_state(job)
            self._pump()

    # -- bookkeeping -----------------------------------------------------

    def _publish_state(self, job: Job) -> None:
        data = {"job_id": job.job_id, "kind": job.kind,
                "state": job.state, "priority": job.priority}
        if job.error is not None:
            data["error"] = job.error
        if job.abort_reason is not None:
            data["abort_reason"] = job.abort_reason
        self.hub.publish(f"job.{job.job_id}.state", data)

    def _update_gauges(self) -> None:
        tel = telemetry.active()
        states = [j.state for j in self.jobs.values()]
        tel.gauge("service.jobs_queued").set(states.count(PENDING))
        tel.gauge("service.jobs_running").set(len(self._running))
        tel.gauge("service.jobs_paused").set(
            states.count(PAUSED) + states.count(PAUSING))
