"""Test-floor service benches: scheduler throughput, RPC round trip.

Not paper figures — the DATE'05 hosts drove one board from one test
program — but the service layer is what a shared floor of them
needs, and its overhead has to stay negligible next to the
measurements it dispatches. Benched here: dispatch throughput of
the priority scheduler on synthetic no-op jobs (pure scheduling
overhead), and the full NDJSON-RPC round trip running a small BER
job through a live server, checked bit-identical against the
direct library call.
"""

import asyncio
import time

from repro.service import JobRunner, PubSubHub, Scheduler, serve_in_thread

from _report import report
from conftest import one_shot

N_JOBS = 60
BER_PARAMS = {"total_bits": 400, "n_shards": 2, "seed": 1}


def _timed_one_shot(benchmark, func, *args):
    """:func:`one_shot`, plus the mean wall time of its rounds by
    ``time.perf_counter`` (``benchmark.stats`` is None under
    ``--benchmark-disable``)."""
    times = []

    def timed():
        t0 = time.perf_counter()
        out = func(*args)
        times.append(time.perf_counter() - t0)
        return out

    out = one_shot(benchmark, timed)
    return out, sum(times) / len(times)


def _drain_n_jobs(n_jobs):
    """Submit *n_jobs* no-op jobs across 3 priorities and drain."""

    async def body():
        runner = JobRunner()
        runner.register("noop", lambda ctx, params: params["i"])
        sched = Scheduler(runner, PubSubHub(), max_slots=4)
        jobs = [sched.submit("noop", {"i": i}, priority=i % 3)
                for i in range(n_jobs)]
        await sched.drain()
        return jobs

    return asyncio.run(body())


def test_service_scheduler_throughput(benchmark):
    """Pure scheduling overhead: submit/queue/dispatch/complete for
    60 jobs over 4 slots, no tester work in the jobs."""
    jobs, mean_s = _timed_one_shot(benchmark, _drain_n_jobs, N_JOBS)
    report(
        "Service — scheduler dispatch throughput",
        ("metric", "reference", "measured"),
        [
            ("jobs dispatched", str(N_JOBS), str(len(jobs))),
            ("slots", "4", "4"),
            ("throughput", "—",
             f"{N_JOBS / mean_s:.0f} jobs/s"),
            ("per-job overhead", "—",
             f"{1e3 * mean_s / N_JOBS:.2f} ms"),
        ],
    )
    assert all(j.state == "completed" for j in jobs)
    assert all(j.result == i for i, j in enumerate(jobs))


def _ber_over_rpc(handle):
    """One BER job submitted, polled, and fetched over the socket."""
    with handle.client(timeout_s=60) as cli:
        job = cli.submit(kind="ber", params=BER_PARAMS)
        while cli.status(job_id=job["job_id"])["state"] not in (
                "completed", "failed", "aborted"):
            pass
        return cli.result(job_id=job["job_id"])["result"]


def test_service_rpc_roundtrip_smoke(benchmark):
    """The whole wire path — submit over NDJSON-RPC, worker thread
    runs the shards, result marshalled back — against the direct
    serial computation."""
    from repro._rng import spawn_seeds
    from repro.core.minitester import MiniTester
    from repro.parallel import ShardPlan

    tester = MiniTester()
    plan = ShardPlan.for_range(BER_PARAMS["total_bits"],
                               BER_PARAMS["n_shards"])
    ranges = [s.items[0] for s in plan.shards]
    errors = []
    for (_s, count), seed in zip(
            ranges, spawn_seeds(len(ranges),
                                root=BER_PARAMS["seed"])):
        errors.append(tester.run_loopback(
            n_bits=int(count), seed=int(seed)).ber.n_errors)

    with serve_in_thread(max_slots=1) as handle:
        result, mean_s = _timed_one_shot(benchmark, _ber_over_rpc,
                                         handle)
    report(
        "Service — BER job over NDJSON-RPC round trip",
        ("metric", "reference", "measured"),
        [
            ("total bits", str(BER_PARAMS["total_bits"]),
             str(result["total_bits"])),
            ("shard errors (direct)", str(errors),
             str(result["shard_errors"])),
            ("round trip", "—", f"{1e3 * mean_s:.0f} ms"),
        ],
    )
    assert result["complete"]
    assert result["total_bits"] == BER_PARAMS["total_bits"]
    assert result["shard_errors"] == errors
