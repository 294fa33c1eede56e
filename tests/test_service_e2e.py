"""End-to-end acceptance test for the test-floor master.

The whole stack at once: three concurrent RPC clients submit
shmoo/BER/eye jobs at different priorities onto a single-slot
master, the higher-priority submissions preempt (pause) the
running shmoo, everything completes, and every final result is
bit-identical to the direct library call with the same parameters.
Subscribers watch partial results grow monotonically before
completion, and an aborted job hands back its partials and frees
the slot. A wafer sort, the floor's long job, meets a deadline and
yields its slot to a priority job mid-sort; that a pause parks within
one touchdown is pinned in ``tests/test_service_runner.py``.
"""

import time

import numpy as np
import pytest

from repro.service import serve_in_thread

# Small but non-trivial workloads: the shmoo is long enough (24
# cells, ~0.2 s) that a job submitted after its first cell lands
# mid-sweep.
SHMOO_PARAMS = {"rates": [2.0, 2.6, 3.2, 3.8, 4.4, 5.0],
                "strobe_fracs": [0.08, 0.3, 0.5, 0.7],
                "n_bits": 150, "seed": 3}
BER_PARAMS = {"total_bits": 2000, "n_shards": 4, "seed": 1,
              "rate_gbps": 5.0}
EYE_PARAMS = {"n_bits": 800, "rate_gbps": 2.5, "seed": 2,
              "chunk_samples": 1024, "n_time_bins": 24,
              "n_volt_bins": 24}

#: A sort long enough to interrupt: 161 touchdowns of 7-10 ms each.
WAFER_PARAMS = {"diameter_mm": 150.0, "die_mm": 5.0, "n_sites": 4,
                "test_time_s": 0.5, "seed": 0}

TERMINAL = ("completed", "failed", "aborted")


def wait_terminal(cli, job_id, timeout_s=60.0):
    """Poll a job's status until it lands in a terminal state."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = cli.status(job_id=job_id)
        if status["state"] in TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def wait_for_event(cli, name, where=lambda data: True, timeout_s=60.0):
    """Read *cli*'s events up to the first named *name* whose data
    satisfies *where*; returns every event read, that one last."""
    deadline = time.monotonic() + timeout_s
    seen = []
    while not seen or seen[-1]["event"] != name \
            or not where(seen[-1]["data"]):
        assert time.monotonic() < deadline, f"no {name} event"
        event = cli.next_event(timeout_s=1.0)
        if event is not None:
            seen.append(event)
    return seen


def direct_shmoo():
    from repro.core.minitester import MiniTester
    from repro.host.shmoo import minitester_strobe_rate_shmoo

    p = SHMOO_PARAMS
    return minitester_strobe_rate_shmoo(
        MiniTester(), p["rates"], p["strobe_fracs"],
        n_bits=p["n_bits"], seed=p["seed"]).to_dict()


def direct_ber():
    from repro._rng import spawn_seeds
    from repro.core.minitester import MiniTester
    from repro.parallel import ShardPlan

    p = BER_PARAMS
    tester = MiniTester()
    plan = ShardPlan.for_range(p["total_bits"], p["n_shards"])
    ranges = [s.items[0] for s in plan.shards]
    pairs = []
    for (_s, count), seed in zip(
            ranges, spawn_seeds(len(ranges), root=p["seed"])):
        ber = tester.run_loopback(n_bits=int(count), seed=int(seed),
                                  rate_gbps=p["rate_gbps"]).ber
        pairs.append((ber.n_bits, ber.n_errors))
    return {"total_bits": sum(b for b, _ in pairs),
            "total_errors": sum(e for _, e in pairs),
            "shard_errors": [e for _, e in pairs]}


def wafer_and_card():
    from repro.wafer.map import WaferMap
    from repro.wafer.probe import ProbeCard

    p = WAFER_PARAMS
    return (WaferMap(diameter_mm=p["diameter_mm"],
                     die_width_mm=p["die_mm"], die_height_mm=p["die_mm"]),
            ProbeCard(n_sites=p["n_sites"]))


def direct_wafer():
    from repro.wafer.inkmap import summarize
    from repro.wafer.scheduler import MultiSiteScheduler

    p = WAFER_PARAMS
    wafer, card = wafer_and_card()
    scheduler = MultiSiteScheduler(card, test_time_s=p["test_time_s"])
    run = scheduler.sort_wafer(wafer, seed=p["seed"])
    summary = summarize(wafer)
    return {"dies_tested": run.dies_tested, "touchdowns": run.touchdowns,
            "total_time_s": run.total_time_s,
            "bins": {"total": summary.total, "passed": summary.passed,
                     "failed": summary.failed,
                     "skipped": summary.skipped,
                     "untested": summary.untested},
            "complete": True}


def direct_eye():
    from repro.eye import EyeAccumulator
    from repro.signal.nrz import bits_to_waveform
    from repro.signal.prbs import prbs_bits

    p = EYE_PARAMS
    wf = bits_to_waveform(prbs_bits(7, p["n_bits"]),
                          p["rate_gbps"], v_low=-0.4, v_high=0.4,
                          t20_80=72.0,
                          rng=np.random.default_rng(p["seed"]))
    acc = EyeAccumulator(p["rate_gbps"], (-0.45, 0.45), 0.0,
                         n_time_bins=p["n_time_bins"],
                         n_volt_bins=p["n_volt_bins"])
    acc.update(wf)  # one shot; chunking never changes the fold
    return acc.snapshot()


class TestMultiTenantFloor:
    def test_three_clients_preemption_and_bit_identical(self):
        with serve_in_thread(max_slots=1) as handle:
            cli_a = handle.client(timeout_s=60)
            cli_b = handle.client(timeout_s=60)
            cli_c = handle.client(timeout_s=60)
            try:
                watcher = cli_b  # also watches the event stream
                watcher.subscribe("job.*")

                # A: low-priority shmoo grabs the only slot.
                shmoo = cli_a.submit(kind="shmoo",
                                     params=SHMOO_PARAMS,
                                     priority=0)
                # Preempt only once it is sweeping: its first cell's
                # partial is out. The events read while waiting join
                # the later checks.
                early = wait_for_event(
                    watcher, f"job.{shmoo['job_id']}.partial")
                # B: high-priority BER preempts; C: mid-priority eye
                # queues behind it but ahead of the shmoo's resume.
                ber = cli_b.submit(kind="ber", params=BER_PARAMS,
                                   priority=5)
                eye = cli_c.submit(kind="eye", params=EYE_PARAMS,
                                   priority=2)

                ber_final = wait_terminal(cli_b, ber["job_id"])
                eye_final = wait_terminal(cli_c, eye["job_id"])
                shmoo_final = wait_terminal(cli_a, shmoo["job_id"])
                assert ber_final["state"] == "completed"
                assert eye_final["state"] == "completed"
                assert shmoo_final["state"] == "completed"

                # -- preemption was real: the shmoo paused and the
                # whole lifecycle streamed to the subscriber. Its
                # terminal state event can reach the watcher after
                # its status did, so read up to that event.
                events = early + wait_for_event(
                    watcher, f"job.{shmoo['job_id']}.state",
                    where=lambda data: data["state"] in TERMINAL)
                shmoo_states = [
                    e["data"]["state"] for e in events
                    if e["event"] ==
                    f"job.{shmoo['job_id']}.state"]
                assert "pausing" in shmoo_states
                assert "paused" in shmoo_states
                assert shmoo_states[-1] == "completed"
                # It came back: running again after paused.
                assert "running" in shmoo_states[
                    shmoo_states.index("paused"):]

                # -- partials grew monotonically before completion.
                cells = [e["data"]["cells_done"] for e in events
                         if e["event"] ==
                         f"job.{shmoo['job_id']}.partial"]
                total = (len(SHMOO_PARAMS["rates"])
                         * len(SHMOO_PARAMS["strobe_fracs"]))
                assert cells == sorted(cells)
                assert len(cells) == total == cells[-1]
                ber_bits = [e["data"]["bits"] for e in events
                            if e["event"] ==
                            f"job.{ber['job_id']}.partial"]
                assert ber_bits == sorted(ber_bits)
                assert ber_bits[-1] == BER_PARAMS["total_bits"]
                eye_samples = [
                    e["data"]["n_samples"] for e in events
                    if e["event"] ==
                    f"job.{eye['job_id']}.partial"]
                assert eye_samples == sorted(eye_samples)
                assert len(eye_samples) >= 2

                # -- every result is bit-identical to the direct
                # library call, preemption and all.
                got_shmoo = cli_a.result(
                    job_id=shmoo["job_id"])["result"]
                want_shmoo = direct_shmoo()
                assert got_shmoo["passes"] == want_shmoo["passes"]
                assert got_shmoo["evaluated"] == \
                    want_shmoo["evaluated"]
                assert got_shmoo["complete"]

                got_ber = cli_b.result(job_id=ber["job_id"])["result"]
                want_ber = direct_ber()
                assert got_ber["total_bits"] == \
                    want_ber["total_bits"]
                assert got_ber["total_errors"] == \
                    want_ber["total_errors"]
                assert got_ber["shard_errors"] == \
                    want_ber["shard_errors"]

                got_eye = cli_c.result(job_id=eye["job_id"])["result"]
                want_eye = direct_eye()
                assert got_eye["grid"] == want_eye["grid"]
                assert got_eye["phase_hist"] == \
                    want_eye["phase_hist"]
                assert got_eye["n_samples"] == \
                    want_eye["n_samples"]
                assert got_eye["n_crossings"] == \
                    want_eye["n_crossings"]
            finally:
                cli_a.close()
                cli_b.close()
                cli_c.close()

    def test_abort_returns_partials_and_frees_slot(self):
        with serve_in_thread(max_slots=1) as handle:
            with handle.client(timeout_s=60) as cli:
                cli.subscribe("job.*")
                big = dict(SHMOO_PARAMS)
                big["rates"] = [2.0 + 0.15 * i for i in range(20)]
                job = cli.submit(kind="shmoo", params=big)
                jid = job["job_id"]
                # Wait for real progress, then pull the plug.
                deadline = time.monotonic() + 30
                partial_seen = None
                while time.monotonic() < deadline:
                    event = cli.next_event(timeout_s=5)
                    if event and event["event"] == \
                            f"job.{jid}.partial" and \
                            event["data"]["cells_done"] >= 3:
                        partial_seen = event["data"]
                        break
                assert partial_seen is not None
                cli.abort(job_id=jid, reason="operator stop")
                final = wait_terminal(cli, jid)
                assert final["state"] == "aborted"
                assert final["abort_reason"] == "operator stop"
                # Partial grid came back: some cells evaluated,
                # marked incomplete.
                res = cli.result(job_id=jid)
                partial = res["partial"]
                assert partial is not None
                assert not partial["complete"]
                evaluated = int(np.array(
                    partial["evaluated"]).sum())
                assert 0 < evaluated < len(big["rates"]) * len(
                    big["strobe_fracs"])
                # The slot is free: the next job runs to completion.
                after = cli.submit(kind="ber",
                                   params={"total_bits": 400,
                                           "n_shards": 2})
                assert wait_terminal(
                    cli, after["job_id"])["state"] == "completed"

    def test_telemetry_over_rpc(self):
        from repro import telemetry as tel_mod

        with tel_mod.use_registry(), \
                serve_in_thread(max_slots=1) as handle:
            with handle.client(timeout_s=60) as cli:
                cli.subscribe("job.*")
                job = cli.submit(kind="ber",
                                 params={"total_bits": 400,
                                         "n_shards": 2})
                wait_terminal(cli, job["job_id"])
                snap = cli.telemetry()
                assert snap["counters"][
                    "service.jobs_submitted"] == 1
                assert snap["counters"][
                    "service.jobs_completed"] == 1
                assert snap["counters"][
                    "service.events_published"] >= 4
                assert snap["counters"]["service.rpc_requests"] >= 3
                assert "service.jobs_running" in snap["gauges"]

    def test_service_records_into_its_start_scope(self):
        """Jobs record into the scope open where the service started,
        never into a scope the client thread opens meanwhile."""
        from repro import telemetry as tel_mod

        with tel_mod.use_registry() as started_in, \
                serve_in_thread(max_slots=1) as handle:
            with tel_mod.use_registry() as client_side, \
                    handle.client(timeout_s=60) as cli:
                job = cli.submit(kind="eye", params=EYE_PARAMS)
                status = wait_terminal(cli, job["job_id"])
        assert status["state"] == "completed"
        counters = started_in.to_dict()["counters"]
        assert counters["nrz.encodes"] == 1
        assert counters["service.jobs_completed"] == 1
        assert client_side.names() == []


class TestWaferSortControl:
    """A wafer sort, the floor's long job, answers control requests
    within one touchdown."""

    def test_deadline_lands_mid_sort(self):
        with serve_in_thread(max_slots=1) as handle:
            with handle.client(timeout_s=60) as cli:
                job = cli.submit(kind="wafer", params=WAFER_PARAMS,
                                 deadline_s=0.3)
                final = wait_terminal(cli, job["job_id"])
                assert final["state"] == "aborted"
                assert final["abort_reason"] == "deadline exceeded"
                partial = cli.result(job_id=job["job_id"])["partial"]
        assert partial["complete"] is False
        wafer, card = wafer_and_card()
        assert 0 < partial["touchdowns"] < len(card.plan_touchdowns(wafer))
        assert partial["bins"]["untested"] > 0

    def test_priority_job_preempts_within_one_touchdown(self):
        with serve_in_thread(max_slots=1) as handle:
            with handle.client(timeout_s=60) as cli:
                # Room for every event of the sort: none is dropped.
                cli.subscribe("job.*", maxsize=4096)
                wafer = cli.submit(kind="wafer", params=WAFER_PARAMS)
                wid = wafer["job_id"]
                # Preempt once the sort is under way.
                events = wait_for_event(cli, f"job.{wid}.progress")
                ber = cli.submit(kind="ber",
                                 params={"total_bits": 400,
                                         "n_shards": 2},
                                 priority=5)
                bid = ber["job_id"]
                assert wait_terminal(cli, bid)["state"] == "completed"
                assert wait_terminal(cli, wid)["state"] == "completed"
                events += wait_for_event(
                    cli, f"job.{wid}.state",
                    where=lambda data: data["state"] in TERMINAL)
                got = cli.result(job_id=wid)["result"]

        # Each event as (job, what): a state name, or "tick".
        seq = [(e["event"].split(".")[1],
                e["data"]["state"] if e["event"].endswith(".state")
                else "tick")
               for e in events if not e["event"].endswith(".partial")]
        w, b = str(wid), str(bid)
        pausing = seq.index((w, "pausing"))
        paused = seq.index((w, "paused"))
        assert pausing < paused
        # How many touchdowns finish between the request and the park
        # is pinned in tests/test_service_runner.py: here, ticks of
        # touchdowns done before the request can still be queued on a
        # busy event loop when ``pausing`` is published.
        # The BER job takes the slot at once and finishes before the
        # sort goes on.
        between = seq[paused:seq.index((w, "running"), paused)]
        assert (b, "running") in between
        assert (b, "completed") in between
        assert (w, "tick") not in between
        # The resumed sort returns the uninterrupted payload.
        assert got == direct_wafer()
