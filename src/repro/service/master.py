"""The test-floor master: RPC + scheduler + streaming, assembled.

One :class:`TestFloorMaster` is the paper's PC controller promoted
to a shared shop-floor service: multiple operators (RPC clients)
submit shmoo/BER/eye/wafer jobs with priorities, watch partial
results stream live, and pause/resume/abort work — all multiplexed
onto a bounded pool of worker threads driving the same measurement
library a direct caller would use, with identical numbers.

For synchronous callers (tests, examples, shop scripts) the
:func:`serve_in_thread` helper runs a whole master on a background
event-loop thread and hands back its address::

    with serve_in_thread(max_slots=2) as handle:
        with handle.client() as cli:
            job = cli.submit(kind="ber",
                             params={"total_bits": 2000})
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from typing import Optional, Tuple

from repro import telemetry
from repro.errors import ReproError
from repro.parallel import Executor
from repro.service.pubsub import PubSubHub
from repro.service.rpc import Client, RPCServer
from repro.service.runner import JobRunner
from repro.service.scheduler import Scheduler


class TestFloorMaster:
    """RPC job server + priority scheduler + live event streams.

    Every layer records into the telemetry registry (and jobs consult
    the artifact cache) active in the context the master's event loop
    runs in; jobs run on ``asyncio.to_thread`` workers, which carry
    that context.

    Parameters
    ----------
    host, port:
        Bind address (port 0 picks a free port).
    max_slots:
        Concurrent worker threads for jobs.
    executor:
        Optional :class:`repro.parallel.Executor` (serial/thread)
        the runner shards sweeps on.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_slots: int = 2,
                 executor: Optional[Executor] = None):
        self.hub = PubSubHub()
        self.runner = JobRunner(executor=executor)
        self.scheduler = Scheduler(self.runner, self.hub,
                                   max_slots=max_slots)
        self.server = RPCServer(self._methods(), self.hub,
                                host=host, port=port)

    def _methods(self) -> dict:
        return {
            "ping": self._ping,
            "kinds": self._kinds,
            "submit": self._submit,
            "status": self._status,
            "result": self._result,
            "list_jobs": self.scheduler.list_jobs,
            "pause": self.scheduler.pause,
            "resume": self.scheduler.resume,
            "abort": self.scheduler.abort,
            "telemetry": self._telemetry,
        }

    # -- RPC method handlers (event-loop thread) -------------------------

    def _ping(self) -> dict:
        """Liveness check."""
        return {"ok": True, "kinds": list(self.runner.kinds)}

    def _kinds(self) -> list:
        """Registered job types."""
        return list(self.runner.kinds)

    def _submit(self, kind: str, params: Optional[dict] = None,
                priority: int = 0,
                deadline_s: Optional[float] = None) -> dict:
        """Queue a job; returns its status summary (with id)."""
        job = self.scheduler.submit(kind, params,
                                    priority=int(priority),
                                    deadline_s=deadline_s)
        return job.describe()

    def _status(self, job_id: int) -> dict:
        """One job's status summary."""
        return self.scheduler.get(job_id).describe()

    def _result(self, job_id: int) -> dict:
        """One job's payloads: final result and latest partial."""
        job = self.scheduler.get(job_id)
        return {"job_id": job.job_id, "state": job.state,
                "result": job.result, "partial": job.partial}

    def _telemetry(self) -> dict:
        """Snapshot of the registry the service records into."""
        return telemetry.active().to_dict()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        return await self.server.start()

    async def stop(self) -> None:
        """Abort live jobs, wait for workers, stop the server."""
        self.scheduler.shutdown()
        await self.scheduler.drain()
        await self.server.stop()
        self.hub.close()


class MasterHandle:
    """A running background master: address, client factory, stop.

    Returned by :func:`serve_in_thread`; also a context manager
    (stops the master on exit).
    """

    def __init__(self, master: TestFloorMaster,
                 address: Tuple[str, int], loop, stop_event,
                 thread: threading.Thread):
        self.master = master
        self.address = address
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread

    def client(self, timeout_s: float = 30.0) -> Client:
        """A fresh sync :class:`~.rpc.Client` for this master."""
        host, port = self.address
        return Client(host, port, timeout_s=timeout_s)

    def stop(self, timeout_s: float = 30.0) -> None:
        """Shut the master down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "MasterHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(timeout_s: float = 30.0,
                    **master_kwargs) -> MasterHandle:
    """Run a :class:`TestFloorMaster` on a background loop thread.

    Blocks until the server is bound; raises :class:`ReproError`
    if the master cannot be built or bound, or fails to come up
    within *timeout_s*. Keyword arguments go to the
    :class:`TestFloorMaster` constructor. The loop thread runs in a
    copy of the caller's context, so the service records into the
    :func:`~repro.telemetry.use_registry` (and consults the
    :func:`~repro.cache.use_cache`) scope open where it was started.
    """
    started = threading.Event()
    holder: dict = {}

    def main() -> None:
        async def body() -> None:
            try:
                master = TestFloorMaster(**master_kwargs)
                address = await master.start()
            except Exception as exc:  # surface config/bind failures
                holder["error"] = exc
                started.set()
                return
            stop_event = asyncio.Event()
            holder.update(master=master, address=address,
                          loop=asyncio.get_running_loop(),
                          stop=stop_event)
            started.set()
            try:
                await stop_event.wait()
            finally:
                await master.stop()

        asyncio.run(body())

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(main,), daemon=True,
                              name="repro-service-master")
    thread.start()
    if not started.wait(timeout=timeout_s) or "error" in holder:
        error = holder.get("error")
        raise ReproError(
            f"test-floor master failed to start: {error}"
        )
    return MasterHandle(holder["master"], holder["address"],
                        holder["loop"], holder["stop"], thread)
