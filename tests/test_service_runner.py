"""The builtin job kinds' event streams, driven without a server.

A :class:`JobContext` on a stub loop and hub records every event a
job publishes and every checkpoint it polls, so these tests pin how
often each builtin publishes: the eye job checkpoints every chunk
(32 K samples by default) but publishes at display rate, the shmoo
job publishes one partial per cell, and the wafer job checkpoints
and ticks once per touchdown.
"""

import contextlib
import itertools
import threading

import numpy as np
import pytest

import repro.service.runner as runner_mod
from repro.service import Job, JobContext, JobRunner
from repro.wafer.inkmap import summarize
from repro.wafer.map import WaferMap
from repro.wafer.probe import ProbeCard
from repro.wafer.scheduler import MultiSiteScheduler, SortRun


class _InlineLoop:
    """Runs each threadsafe callback at once, on the caller."""

    def call_soon_threadsafe(self, fn, *args):
        fn(*args)


class _Hub:
    def __init__(self):
        self.events = []

    def publish(self, topic, data):
        self.events.append((topic, data))


class RecordingContext(JobContext):
    """Counts checkpoints; requests an abort after *abort_after*
    checkpoints, or a pause after *pause_after*. A paused job records
    where it parked and is resumed from another thread."""

    def __init__(self, kind, params, abort_after=None, pause_after=None):
        self.hub = _Hub()
        super().__init__(Job(1, kind, params), _InlineLoop(), self.hub,
                         on_paused=self._parked)
        self.checks = 0
        self.abort_after = abort_after
        self.pause_after = pause_after
        #: (checkpoint, progress ticks published) at each park.
        self.parks = []
        self.resumers = []

    def should_abort(self):
        self.checks += 1
        if self.abort_after is not None and self.checks > self.abort_after:
            self.job.request_abort()
        if self.pause_after is not None \
                and self.checks == self.pause_after + 1:
            self.job.request_pause()
        return super().should_abort()

    def _parked(self):
        # Runs with the job's condition held: the resume goes through
        # only once the worker waits on it.
        self.parks.append((self.checks, len(self.published("progress"))))
        resumer = threading.Thread(target=self.job.request_resume)
        resumer.start()
        self.resumers.append(resumer)

    def published(self, channel):
        return [d for t, d in self.hub.events
                if t == f"job.1.{channel}"]


def _run(kind, params, abort_after=None, pause_after=None):
    ctx = RecordingContext(kind, params, abort_after, pause_after)
    out = JobRunner().run(ctx.job, ctx)
    for resumer in ctx.resumers:
        resumer.join()
    return ctx, out


#: The eye job's record at its defaults: 1200 bits at 2.5 Gbps.
EYE_SAMPLES = 480_801
#: A fine chunking, so that a record has many chunks to publish from.
FINE = {"chunk_samples": 2048}
EYE_CHUNKS = -(-EYE_SAMPLES // 2048)


class TestEyeJobEvents:
    def test_checkpoint_per_chunk_publish_far_fewer(self):
        ctx, out = _run("eye", FINE)
        partials = ctx.published("partial")
        ticks = ctx.published("progress")
        assert out["complete"] and out["n_samples"] == EYE_SAMPLES
        assert ctx.checks == EYE_CHUNKS
        assert 2 <= len(partials) < EYE_CHUNKS // 2
        assert len(ticks) == len(partials)
        samples = [p["n_samples"] for p in partials]
        assert samples == sorted(samples)
        assert len(set(samples)) == len(samples)
        assert samples[0] == 2048
        assert samples[-1] == EYE_SAMPLES
        assert ticks[-1] == {"done": EYE_SAMPLES, "total": EYE_SAMPLES}
        assert all("grid" not in p for p in partials)

    def test_first_and_last_always_published(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "EYE_PUBLISH_INTERVAL_S", 3600.0)
        ctx, out = _run("eye", FINE)
        assert ctx.checks == EYE_CHUNKS
        assert [p["n_samples"] for p in ctx.published("partial")] \
            == [2048, EYE_SAMPLES]
        assert [t["done"] for t in ctx.published("progress")] \
            == [2048, EYE_SAMPLES]
        assert out["complete"]

    def test_abort_mid_record(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "EYE_PUBLISH_INTERVAL_S", 3600.0)
        ctx, out = _run("eye", FINE, abort_after=40)
        assert out["complete"] is False
        assert ctx.checks == 41  # the 41st checkpoint sees the abort
        assert out["n_samples"] == 40 * 2048
        # The last folded chunk is published, so a watcher's latest
        # partial matches what the job returns.
        assert [p["n_samples"] for p in ctx.published("partial")] \
            == [2048, 40 * 2048]

    def test_result_independent_of_publishing(self, monkeypatch):
        _, throttled = _run("eye", dict(FINE, n_bits=300))
        monkeypatch.setattr(runner_mod, "EYE_PUBLISH_INTERVAL_S", 0.0)
        ctx, every = _run("eye", dict(FINE, n_bits=300))
        assert len(ctx.published("partial")) == ctx.checks
        assert throttled == every


class TestEyeJobDefaultChunk:
    """The default job checkpoints once per 32 K-sample chunk."""

    CHUNK = 32_768

    def test_checkpoint_per_32k_chunk(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "EYE_PUBLISH_INTERVAL_S", 3600.0)
        ctx, out = _run("eye", {})
        assert out["complete"] and out["n_samples"] == EYE_SAMPLES
        assert ctx.checks == -(-EYE_SAMPLES // self.CHUNK) == 15
        assert [p["n_samples"] for p in ctx.published("partial")] \
            == [self.CHUNK, EYE_SAMPLES]

    @pytest.mark.parametrize("k", [1, 6])
    def test_abort_after_k_checkpoints(self, monkeypatch, k):
        monkeypatch.setattr(runner_mod, "EYE_PUBLISH_INTERVAL_S", 3600.0)
        ctx, out = _run("eye", {}, abort_after=k)
        assert out["complete"] is False
        assert ctx.checks == k + 1
        assert out["n_samples"] == k * self.CHUNK

    def test_result_equals_fine_chunking(self):
        coarse_ctx, coarse = _run("eye", {})
        fine_ctx, fine = _run("eye", FINE)
        assert coarse_ctx.checks < fine_ctx.checks
        for key in ("grid", "phase_hist", "n_crossings", "n_samples"):
            assert coarse[key] == fine[key], key
        assert np.sum(coarse["grid"]) > 0


class TestShmooJobEvents:
    def test_one_partial_per_cell(self):
        params = {"rates": [2.0, 3.5, 5.0], "strobe_fracs": [0.1, 0.5],
                  "n_bits": 64, "seed": 2}
        ctx, out = _run("shmoo", params)
        cells = [p["cells_done"] for p in ctx.published("partial")]
        assert cells == list(range(1, 7))
        assert ctx.checks >= 6
        assert out["complete"]
        assert int(np.sum(out["evaluated"])) == 6


@pytest.mark.parametrize("n_shards", [1, 3])
def test_ber_job_one_partial_per_shard(n_shards):
    ctx, out = _run("ber", {"total_bits": 300, "n_shards": n_shards})
    bits = [p["bits"] for p in ctx.published("partial")]
    assert len(bits) == n_shards
    assert bits[-1] == out["total_bits"] == 300


def _direct_sort(n_touchdowns=None):
    """The job's default sort, called directly: all of it, or only its
    first *n_touchdowns*. Returns the payload fields it should equal."""
    wafer = WaferMap(diameter_mm=100.0, die_width_mm=10.0,
                     die_height_mm=10.0)
    scheduler = MultiSiteScheduler(ProbeCard(n_sites=4), test_time_s=0.5)
    if n_touchdowns is None:
        run = scheduler.sort_wafer(wafer, seed=0)
    else:
        run = SortRun([], 0.0, 0)
        with contextlib.closing(scheduler.sort_steps(wafer, 0)) as steps:
            for run, _ in itertools.islice(steps, n_touchdowns):
                pass
    summary = summarize(wafer)
    return {"dies_tested": run.dies_tested, "touchdowns": run.touchdowns,
            "total_time_s": run.total_time_s,
            "bins": {"total": summary.total, "passed": summary.passed,
                     "failed": summary.failed,
                     "skipped": summary.skipped,
                     "untested": summary.untested}}


class TestWaferJob:
    """The wafer job steps the library's sort, one touchdown per
    checkpoint."""

    #: Touchdowns of the default sort: a 100 mm wafer of 10 mm dies
    #: under a 4-site card.
    TOUCHDOWNS = 17

    def test_payload_equals_direct_sort(self):
        _, out = _run("wafer", {})
        want = _direct_sort()
        assert out["complete"] is True
        assert out["touchdowns"] == want["touchdowns"] == self.TOUCHDOWNS
        for key in ("dies_tested", "total_time_s", "bins"):
            assert out[key] == want[key], key

    def test_checkpoint_and_tick_per_touchdown(self):
        ctx, out = _run("wafer", {})
        assert out["complete"]
        assert ctx.checks == self.TOUCHDOWNS
        assert ctx.published("progress") == [
            {"done": k, "total": self.TOUCHDOWNS}
            for k in range(1, self.TOUCHDOWNS + 1)]

    @pytest.mark.parametrize("k", [0, 1, 9])
    def test_abort_after_k_touchdowns(self, k):
        ctx, out = _run("wafer", {}, abort_after=k)
        assert out["complete"] is False
        assert out["touchdowns"] == k
        assert ctx.checks == k + 1  # the (k+1)-th checkpoint aborts
        want = _direct_sort(k)
        for key in ("dies_tested", "total_time_s", "bins"):
            assert out[key] == want[key], key
        assert out["bins"]["untested"] > 0

    @pytest.mark.parametrize("k", [0, 1, 9])
    def test_pause_after_k_touchdowns_parks_then_resumes(self, k):
        ctx, out = _run("wafer", {}, pause_after=k)
        # Parked once, at the checkpoint right after touchdown k.
        assert ctx.parks == [(k + 1, k)]
        assert ctx.checks == self.TOUCHDOWNS
        # Resumed, it returns the uninterrupted payload.
        assert out == _run("wafer", {})[1]
        assert out["complete"] is True
        assert ctx.published("progress") == [
            {"done": j, "total": self.TOUCHDOWNS}
            for j in range(1, self.TOUCHDOWNS + 1)]
