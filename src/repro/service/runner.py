"""Builtin job types and the worker-side dispatcher.

The bridge between the async master and the synchronous
measurement stack: the scheduler hands a :class:`~.jobs.Job` plus
its :class:`~.jobs.JobContext` to :meth:`JobRunner.run` on a worker
thread (``asyncio.to_thread``). Each job type adapts one library
measurement: it wires the context's ``should_abort``/``progress``
into the hooks of :class:`~repro.host.shmoo.ShmooRunner`, steps the
BER and wafer generators one shard or touchdown per checkpoint, and
folds the eye chunk by chunk into a streaming
:class:`~repro.eye.EyeAccumulator`.

Every builtin runs the library's own body — the shmoo cell is
:func:`repro.host.shmoo.strobe_rate_test`, the BER shards are
:func:`repro.host.session.ber_steps` (the serial
:meth:`TestSession.characterize_ber`), the touchdowns are
:meth:`MultiSiteScheduler.sort_steps` (:meth:`sort_wafer`) — so a
job submitted over RPC returns bit-identical numbers to the direct
library call with the same parameters.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.parallel import Executor
from repro.service.jobs import Job, JobContext

#: Shortest gap, in seconds, between two of an eye job's published
#: partials (each with its progress tick). Its chunks come every
#: millisecond or two, faster than a display redraws, and
#: each event costs a hand-off through the loop, the wire and the
#: client.
EYE_PUBLISH_INTERVAL_S = 0.005

#: Samples an eye job folds between two checkpoints, unless its
#: ``chunk_samples`` parameter says otherwise: small enough that a
#: pause or abort lands within a few ms, large enough that the
#: interpreter-lock hand-offs each chunk costs beside a computing
#: thread stay a small part of the job (see
#: :meth:`JobRunner.run_eye_job`).
EYE_CHUNK_SAMPLES = 32768


class JobRunner:
    """Dispatches jobs to registered job types on worker threads.

    Parameters
    ----------
    executor:
        Optional :class:`repro.parallel.Executor` for job types
        that can shard (the shmoo sweep). Serial/thread backends
        only — the partial-streaming wrappers close over the job
        context and don't pickle, so a ``process`` or ``remote``
        executor raises :class:`ConfigurationError` here. None
        (default) runs sweeps serially, which also gives the finest
        pause/abort granularity (every cell is a checkpoint).
    """

    def __init__(self, executor: Optional[Executor] = None):
        if executor is not None \
                and executor.backend in ("process", "remote"):
            raise ConfigurationError(
                f"the service runner streams partials through "
                f"closures, which the {executor.backend!r} backend "
                f"cannot ship; use a serial or thread executor"
            )
        self.executor = executor
        self._kinds: Dict[str, Callable[[JobContext, dict], Any]] = {
            "shmoo": self.run_shmoo_job,
            "ber": self.run_ber_job,
            "eye": self.run_eye_job,
            "wafer": self.run_wafer_job,
        }

    @property
    def kinds(self) -> tuple:
        """Registered job type names."""
        return tuple(sorted(self._kinds))

    def register(self, kind: str,
                 fn: Callable[[JobContext, dict], Any]) -> None:
        """Add (or replace) a job type; *fn* gets ``(ctx, params)``
        and returns a JSON-ready payload."""
        self._kinds[str(kind)] = fn

    def run(self, job: Job, ctx: JobContext) -> Any:
        """Execute *job* (worker thread); returns its payload."""
        try:
            fn = self._kinds[job.kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown job kind {job.kind!r}; "
                f"registered: {', '.join(self.kinds)}"
            ) from None
        tel = telemetry.active()
        with tel.span(f"service.job.{job.kind}"):
            return fn(ctx, job.params)

    # -- builtin job types -----------------------------------------------

    def run_shmoo_job(self, ctx: JobContext, params: dict) -> dict:
        """Strobe-position vs rate shmoo on a fresh mini-tester.

        Params: ``rates`` and ``strobe_fracs`` (required axes),
        ``n_bits`` (300), ``seed`` (1), ``adaptive`` (False),
        ``coarse_step`` (8). Streams one partial per evaluated cell
        and returns :meth:`ShmooResult.to_dict`, bit-identical to
        :func:`~repro.host.shmoo.minitester_strobe_rate_shmoo` with
        the same arguments.
        """
        from repro.core.minitester import MiniTester
        from repro.host.shmoo import ShmooRunner, strobe_rate_test

        rates = [float(x) for x in params["rates"]]
        fracs = [float(y) for y in params["strobe_fracs"]]
        n_bits = int(params.get("n_bits", 300))
        seed = int(params.get("seed", 1))
        tester = MiniTester()
        base = strobe_rate_test(tester, n_bits=n_bits, seed=seed)
        total = len(rates) * len(fracs)
        done = {"cells": 0}

        def test(x: float, y: float) -> bool:
            ok = base(x, y)
            done["cells"] += 1
            ctx.partial({"cells_done": done["cells"],
                         "cells_total": total,
                         "cell": {"x": x, "y": y, "ok": bool(ok)}})
            return ok

        runner = ShmooRunner(test, x_name="rate (Gbps)",
                             y_name="strobe (UI)")
        if params.get("adaptive", False):
            result = runner.run_adaptive(
                rates, fracs,
                coarse_step=int(params.get("coarse_step", 8)),
                progress=ctx.progress,
                should_abort=ctx.should_abort,
                executor=self.executor,
            )
        else:
            result = runner.run(rates, fracs,
                                progress=ctx.progress,
                                should_abort=ctx.should_abort,
                                executor=self.executor)
        return result.to_dict()

    def run_ber_job(self, ctx: JobContext, params: dict) -> dict:
        """Sharded BER characterization on a fresh mini-tester.

        Params: ``total_bits`` (20000), ``n_shards`` (4), ``seed``
        (1), ``rate_gbps`` (tester default). Steps
        :func:`~repro.host.session.ber_steps`, the body of the
        serial :meth:`TestSession.characterize_ber` — identical
        totals to the direct call. Each shard boundary is a
        pause/abort checkpoint, and the cumulative tallies stream
        after every shard.
        """
        from repro.core.minitester import MiniTester
        from repro.host.session import BERCharacterization, ber_steps

        total_bits = int(params.get("total_bits", 20_000))
        if total_bits < 1:
            raise ConfigurationError("need a positive bit budget")
        tester = MiniTester()
        rate = float(params.get("rate_gbps", tester.rate_gbps))
        steps = ber_steps(tester, total_bits,
                          int(params.get("n_shards", 4)),
                          int(params.get("seed", 1)), rate)
        result, n_shards = BERCharacterization(0, 0, (), rate), None
        while result.n_shards != n_shards and not ctx.should_abort():
            result, n_shards = next(steps)
            ctx.partial({"shards_done": result.n_shards,
                         "n_shards": n_shards,
                         "bits": result.total_bits,
                         "errors": result.total_errors})
            ctx.progress(result.n_shards, n_shards)
        out = result.to_dict()
        out["complete"] = result.n_shards == n_shards
        return out

    def run_eye_job(self, ctx: JobContext, params: dict) -> dict:
        """Streaming eye capture through the accumulator.

        Params: ``n_bits`` (1200), ``rate_gbps`` (2.5), ``seed``
        (2), ``chunk_samples`` (:data:`EYE_CHUNK_SAMPLES`),
        ``n_time_bins``/``n_volt_bins`` (32). Folds read-only views
        of the PRBS record chunk by chunk; every chunk boundary is a
        checkpoint, so a pause or abort lands within one chunk. The
        default checkpoints every 32 K samples, 15 times for the
        default record: a chunk folds in about 1.3 ms alone and 2 ms
        beside a busy shmoo thread. Each chunk also costs a few
        interpreter-lock hand-offs under load, which made 2048-sample
        chunks (235 of them) about 4x slower there. The grid-free
        :meth:`EyeAccumulator.snapshot` partial and its progress tick
        publish at most every :data:`EYE_PUBLISH_INTERVAL_S` (5 ms):
        the first chunk's always, and the last folded chunk's always,
        also when an abort cuts the record short (a paused job's
        latest partial may trail its fold by under one interval).
        Returns the full snapshot (grid included) — chunking and
        publishing never change it.
        """
        from repro.eye import EyeAccumulator
        from repro.signal.nrz import bits_to_waveform
        from repro.signal.prbs import prbs_bits
        from repro.signal.waveform import Waveform

        n_bits = int(params.get("n_bits", 1200))
        rate = float(params.get("rate_gbps", 2.5))
        seed = int(params.get("seed", 2))
        chunk = int(params.get("chunk_samples", EYE_CHUNK_SAMPLES))
        if chunk < 1:
            raise ConfigurationError(
                f"chunk_samples must be >= 1, got {chunk}"
            )
        bits = prbs_bits(7, n_bits)
        wf = bits_to_waveform(bits, rate, v_low=-0.4, v_high=0.4,
                              t20_80=72.0,
                              rng=np.random.default_rng(seed))
        acc = EyeAccumulator(
            rate, v_range=(-0.45, 0.45), threshold=0.0,
            n_time_bins=int(params.get("n_time_bins", 32)),
            n_volt_bins=int(params.get("n_volt_bins", 32)))
        n = len(wf)

        def publish(done: int) -> None:
            ctx.partial(acc.snapshot(include_grid=False))
            ctx.progress(done, n)

        done = published = 0
        next_publish = time.monotonic()
        for i in range(0, n, chunk):
            if ctx.should_abort():
                break
            acc.update(Waveform(wf.values[i:i + chunk],
                                dt=wf.dt, t0=wf.t0 + i * wf.dt))
            done = min(i + chunk, n)
            now = time.monotonic()
            if now >= next_publish:
                publish(done)
                published = done
                next_publish = now + EYE_PUBLISH_INTERVAL_S
        if done > published:
            publish(done)
        out = acc.snapshot(include_grid=True)
        out["complete"] = not ctx.job.abort_requested
        return out

    def run_wafer_job(self, ctx: JobContext, params: dict) -> dict:
        """Multi-site wafer sort, one touchdown per checkpoint.

        Params: ``diameter_mm`` (100), ``die_mm`` (10),
        ``n_sites`` (4), ``test_time_s`` (0.5), ``seed`` (0). Steps
        :meth:`MultiSiteScheduler.sort_steps`: every touchdown is a
        pause/abort checkpoint (a few ms apart) with one progress
        tick after it. Returns the sort's counts and wafer bins,
        bit-identical to :meth:`~MultiSiteScheduler.sort_wafer` and
        :func:`~repro.wafer.inkmap.summarize`; a sort cut short
        returns the touchdowns it finished, marked incomplete.
        """
        from repro.wafer.inkmap import summarize
        from repro.wafer.map import WaferMap
        from repro.wafer.probe import ProbeCard
        from repro.wafer.scheduler import MultiSiteScheduler, SortRun

        die = float(params.get("die_mm", 10.0))
        wafer = WaferMap(
            diameter_mm=float(params.get("diameter_mm", 100.0)),
            die_width_mm=die, die_height_mm=die,
        )
        card = ProbeCard(n_sites=int(params.get("n_sites", 4)))
        scheduler = MultiSiteScheduler(
            card, test_time_s=float(params.get("test_time_s", 0.5)))
        run, n_touchdowns = SortRun([], 0.0, 0), None
        with contextlib.closing(scheduler.sort_steps(
                wafer, seed=int(params.get("seed", 0)))) as steps:
            while run.touchdowns != n_touchdowns \
                    and not ctx.should_abort():
                run, n_touchdowns = next(steps)
                ctx.progress(run.touchdowns, n_touchdowns)
        summary = summarize(wafer)
        return {
            "dies_tested": int(run.dies_tested),
            "touchdowns": int(run.touchdowns),
            "total_time_s": float(run.total_time_s),
            "bins": {"total": summary.total,
                     "passed": summary.passed,
                     "failed": summary.failed,
                     "skipped": summary.skipped,
                     "untested": summary.untested},
            "complete": run.touchdowns == n_touchdowns,
        }
