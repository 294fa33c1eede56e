"""Tests for the priority scheduler: slots, preemption, deadlines.

Synthetic job kinds (a step-wise spinner and an event-gated job)
drive the lifecycle deterministically without tester work, so
these tests pin scheduling semantics: priority + FIFO order,
bounded slots, cooperative pause/resume, preemption with
auto-resume, deadline aborts, and slot release on abort.
"""

import asyncio
import threading

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, ReproError
from repro.parallel import Executor
from repro.service import (
    ABORTED, COMPLETED, FAILED, PAUSED, PAUSING, PENDING, RUNNING,
    JobRunner, PubSubHub, Scheduler, TestFloorMaster, serve_in_thread,
)


def make_scheduler(max_slots=1):
    """A scheduler with synthetic "spin" and "gate" job kinds."""
    runner = JobRunner()

    def spin(ctx, params):
        steps = int(params.get("steps", 50))
        done = 0
        for i in range(steps):
            if ctx.should_abort():
                break
            done += 1
            ctx.partial({"step": done})
        return {"steps_done": done, "complete": done == steps}

    gates = {}

    def gate(ctx, params):
        event = gates[params["gate"]]
        while not event.wait(timeout=0.01):
            if ctx.should_abort():
                return {"released": False}
        return {"released": True}

    def boom(ctx, params):
        raise ValueError("job blew up")

    runner.register("spin", spin)
    runner.register("gate", gate)
    runner.register("boom", boom)
    hub = PubSubHub()
    sched = Scheduler(runner, hub, max_slots=max_slots)
    sched._test_gates = gates
    return sched


def open_gate(sched, name):
    sched._test_gates[name] = threading.Event()
    return name


async def wait_until(predicate, timeout_s=10.0):
    """Poll *predicate* on the loop until true (or fail)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


class TestOrdering:
    def test_priority_then_fifo(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            blocker = sched.submit("gate",
                                   {"gate": open_gate(sched, "g")})
            order = []

            def tracked(tag):
                def run(ctx, params):
                    order.append(tag)
                    return tag
                return run

            for tag, prio in (("lo1", 0), ("hi", 5), ("mid", 2),
                              ("lo2", 0)):
                sched.runner.register(f"job-{tag}", tracked(tag))
                sched.submit(f"job-{tag}", {}, priority=prio)
            sched._test_gates["g"].set()
            await sched.drain()
            assert order == ["hi", "mid", "lo1", "lo2"]
            assert sched.get(blocker.job_id).state == COMPLETED

        asyncio.run(body())

    def test_slots_bound_concurrency(self):
        async def body():
            sched = make_scheduler(max_slots=2)
            gates = [open_gate(sched, f"g{i}") for i in range(3)]
            jobs = [sched.submit("gate", {"gate": g})
                    for g in gates]
            await wait_until(
                lambda: jobs[0].state == RUNNING
                and jobs[1].state == RUNNING)
            assert jobs[2].state == PENDING  # no third slot
            sched._test_gates["g0"].set()
            await wait_until(lambda: jobs[2].state == RUNNING)
            for g in gates:
                sched._test_gates[g].set()
            await sched.drain()
            assert all(j.state == COMPLETED for j in jobs)

        asyncio.run(body())

    def test_unknown_kind_rejected_at_submit(self):
        async def body():
            sched = make_scheduler()
            with pytest.raises(ConfigurationError):
                sched.submit("no-such-kind", {})

        asyncio.run(body())

    def test_failed_job_frees_slot(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            bad = sched.submit("boom", {})
            good = sched.submit("spin", {"steps": 2})
            await sched.drain()
            assert bad.state == FAILED
            assert "ValueError" in bad.error
            assert good.state == COMPLETED

        asyncio.run(body())


class TestPauseResume:
    def test_pause_frees_slot_and_resume_completes(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            long = sched.submit("spin", {"steps": 10_000})
            await wait_until(lambda: long.state == RUNNING)
            sched.pause(long.job_id)
            await wait_until(lambda: long.state == PAUSED)
            # The freed slot admits another job while parked.
            quick = sched.submit("spin", {"steps": 3})
            await wait_until(lambda: quick.state == COMPLETED)
            assert long.state == PAUSED  # no auto-resume on client pause
            sched.resume(long.job_id)
            await sched.drain()
            assert long.state == COMPLETED
            assert long.result["steps_done"] == 10_000

        asyncio.run(body())

    def test_pause_pending_rejected(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            sched.submit("gate", {"gate": open_gate(sched, "g")})
            queued = sched.submit("spin", {"steps": 1})
            with pytest.raises(ConfigurationError):
                sched.pause(queued.job_id)
            sched._test_gates["g"].set()
            await sched.drain()

        asyncio.run(body())

    def test_resume_completed_rejected(self):
        async def body():
            sched = make_scheduler()
            job = sched.submit("spin", {"steps": 1})
            await sched.drain()
            with pytest.raises(ConfigurationError):
                sched.resume(job.job_id)

        asyncio.run(body())


class TestPreemption:
    def test_higher_priority_preempts_and_both_complete(self):
        async def body():
            with telemetry.use_registry() as reg:
                sched = make_scheduler(max_slots=1)
                low = sched.submit("spin", {"steps": 50_000},
                                   priority=0)
                await wait_until(lambda: low.state == RUNNING)
                high = sched.submit("gate",
                                    {"gate": open_gate(sched, "g")},
                                    priority=5)
                # The running low job is asked to park...
                await wait_until(lambda: low.state == PAUSED)
                # ...and the high job takes its slot.
                await wait_until(lambda: high.state == RUNNING)
                sched._test_gates["g"].set()
                # Auto-resume: low re-queued itself and finishes.
                await sched.drain()
                assert high.state == COMPLETED
                assert low.state == COMPLETED
                assert low.result["steps_done"] == 50_000
                counters = reg.to_dict()["counters"]
                assert counters["service.preemptions"] == 1
                assert counters["service.jobs_resumed"] == 1

        asyncio.run(body())

    def test_equal_priority_does_not_preempt(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            first = sched.submit("gate",
                                 {"gate": open_gate(sched, "g")},
                                 priority=3)
            await wait_until(lambda: first.state == RUNNING)
            second = sched.submit("spin", {"steps": 1}, priority=3)
            await asyncio.sleep(0.05)
            assert first.state == RUNNING
            assert second.state == PENDING
            sched._test_gates["g"].set()
            await sched.drain()

        asyncio.run(body())


class TestAbort:
    def test_abort_pending_is_immediate(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            sched.submit("gate", {"gate": open_gate(sched, "g")})
            queued = sched.submit("spin", {"steps": 5})
            sched.abort(queued.job_id)
            assert queued.state == ABORTED
            sched._test_gates["g"].set()
            await sched.drain()

        asyncio.run(body())

    def test_abort_running_returns_partials_and_frees_slot(self):
        async def body():
            with telemetry.use_registry() as reg:
                sched = make_scheduler(max_slots=1)
                job = sched.submit("spin", {"steps": 100_000})
                await wait_until(
                    lambda: job.partial is not None)
                sched.abort(job.job_id, reason="operator stop")
                await wait_until(lambda: job.state == ABORTED)
                assert job.abort_reason == "operator stop"
                # The job's own return value becomes the partial.
                assert 0 < job.partial["steps_done"] < 100_000
                assert not job.partial["complete"]
                after = sched.submit("spin", {"steps": 2})
                await sched.drain()
                assert after.state == COMPLETED
                assert reg.to_dict()["counters"][
                    "service.jobs_aborted"] == 1

        asyncio.run(body())

    def test_abort_wakes_paused_job(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            job = sched.submit("spin", {"steps": 100_000})
            await wait_until(lambda: job.state == RUNNING)
            sched.pause(job.job_id)
            await wait_until(lambda: job.state == PAUSED)
            sched.abort(job.job_id)
            await sched.drain()
            assert job.state == ABORTED

        asyncio.run(body())

    def test_shutdown_aborts_everything(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            running = sched.submit("spin", {"steps": 100_000})
            queued = sched.submit("spin", {"steps": 5})
            await wait_until(lambda: running.state == RUNNING)
            sched.shutdown()
            await sched.drain()
            assert running.state == ABORTED
            assert queued.state == ABORTED

        asyncio.run(body())


class TestDeadline:
    def test_deadline_aborts_overrunning_job(self):
        async def body():
            with telemetry.use_registry() as reg:
                sched = make_scheduler(max_slots=1)
                job = sched.submit(
                    "gate", {"gate": open_gate(sched, "never")},
                    deadline_s=0.1)
                await sched.drain()
                assert job.state == ABORTED
                assert job.abort_reason == "deadline exceeded"
                assert reg.to_dict()["counters"][
                    "service.deadline_aborts"] == 1

        asyncio.run(body())

    def test_fast_job_beats_deadline(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            job = sched.submit("spin", {"steps": 2}, deadline_s=30.0)
            await sched.drain()
            assert job.state == COMPLETED

        asyncio.run(body())

    def test_bad_deadline_rejected(self):
        async def body():
            sched = make_scheduler()
            with pytest.raises(ConfigurationError):
                sched.submit("spin", {}, deadline_s=-1.0)

        asyncio.run(body())


class TestObservability:
    def test_lifecycle_counters(self):
        async def body():
            with telemetry.use_registry() as reg:
                sched = make_scheduler(max_slots=2)
                for _ in range(3):
                    sched.submit("spin", {"steps": 2})
                await sched.drain()
                counters = reg.to_dict()["counters"]
                assert counters["service.jobs_submitted"] == 3
                assert counters["service.jobs_completed"] == 3
                gauges = reg.to_dict()["gauges"]
                assert gauges["service.jobs_queued"] == 0
                assert gauges["service.jobs_running"] == 0

        asyncio.run(body())

    def test_state_events_published(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            sub = sched.hub.subscribe(["job.*"])
            job = sched.submit("spin", {"steps": 2})
            await sched.drain()
            states = []
            while not sub.queue.empty():
                event = await sub.get()
                if event["event"].endswith(".state"):
                    states.append(event["data"]["state"])
            assert states[0] == PENDING
            assert RUNNING in states
            assert states[-1] == COMPLETED
            assert job.state == COMPLETED

        asyncio.run(body())

    def test_list_jobs_and_describe(self):
        async def body():
            sched = make_scheduler(max_slots=1)
            a = sched.submit("spin", {"steps": 1}, priority=1)
            await sched.drain()
            listed = sched.list_jobs()
            assert [j["job_id"] for j in listed] == [a.job_id]
            assert listed[0]["state"] == COMPLETED
            assert listed[0]["result"]["steps_done"] == 1
            with pytest.raises(ConfigurationError):
                sched.get(999)

        asyncio.run(body())

        # Touch the imported-but-rare states so the aliases stay
        # exported (and linters quiet).
        assert PAUSING and PENDING

    def test_scheduler_config_rejected(self):
        runner = JobRunner()
        with pytest.raises(ConfigurationError):
            Scheduler(runner, PubSubHub(), max_slots=0)

        asyncio.run(asyncio.sleep(0))

    @pytest.mark.parametrize("backend", ("process", "remote"))
    def test_shipped_executors_rejected_up_front(self, backend):
        """Shmoo jobs stream partials through closures that neither
        shipped backend can pickle, so the runner (and with it the
        master and ``serve_in_thread``) refuses such an executor at
        construction instead of failing every shmoo job. Building
        an ``Executor`` starts no worker."""
        with pytest.raises(ConfigurationError, match=backend):
            JobRunner(executor=Executor(backend))
        with pytest.raises(ConfigurationError, match=backend):
            TestFloorMaster(executor=Executor(backend))
        with pytest.raises(ReproError, match=backend):
            serve_in_thread(timeout_s=10.0, executor=Executor(backend))
