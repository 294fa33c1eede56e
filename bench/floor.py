"""The ``floor-mixed`` workload: interactive jobs beside a batch sweep.

One in-process test-floor master with two job slots serves two RPC
clients from this process. Client A (the interactive operator, on
the calling thread) submits one job at a time at priority 2,
alternating ``ber`` and ``eye``; client B (a shmoo station, on one
more thread) loops strobe-vs-rate ``shmoo`` jobs at priority 0 until
A is done. Both clients learn that a job finished from a ``job.*``
event subscription, never by polling ``status``.

An op is one A job, timed from submit to having its result.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from bench import check
from bench.workloads import OpRecord, Workload, median
from repro.service import wire

#: Event-queue bound per subscription: generous, so a burst of
#: partials from the other client's job cannot evict a terminal
#: state event before it is read.
EVENT_QUEUE = 4096
#: Longest wait for one job's terminal event.
EVENT_WAIT_S = 60.0
TERMINAL = ("completed", "failed", "aborted")


class JobClient:
    """One RPC connection that submits a job and waits on events."""

    def __init__(self, handle):
        self.rpc = handle.client(timeout_s=EVENT_WAIT_S)
        self.rpc.subscribe("job.*", maxsize=EVENT_QUEUE)
        self.events_seen = 0

    def wait(self, job_id: int, on_event=None,
             stop: Optional[threading.Event] = None,
             on_stop=None) -> tuple:
        """Block until *job_id* is terminal; ``(monotonic time the
        terminal event arrived, state)``.

        *on_event* sees every event of this job; when *stop* is set,
        *on_stop* runs once (to abort the job) and waiting goes on.
        Raises :class:`TimeoutError` when no terminal event arrives
        within :data:`EVENT_WAIT_S` (a lost notification is a failure).
        """
        topic = f"job.{job_id}."
        deadline = time.monotonic() + EVENT_WAIT_S
        while time.monotonic() < deadline:
            if stop is not None and on_stop is not None and stop.is_set():
                on_stop()
                on_stop = None
            event = self.rpc.next_event(timeout_s=0.5)
            if event is None:
                continue
            self.events_seen += 1
            if not event["event"].startswith(topic):
                continue
            if on_event is not None:
                on_event(event)
            if event["event"].endswith(".state") \
                    and event["data"]["state"] in TERMINAL:
                return time.monotonic(), event["data"]["state"]
        raise TimeoutError(f"no terminal event for job {job_id} within "
                           f"{EVENT_WAIT_S:.0f} s")

    def close(self) -> None:
        """Drop the connection."""
        self.rpc.close()


class FloorMixed(Workload):
    """Interactive ``ber``/``eye`` jobs beside a background shmoo."""

    name = "floor-mixed"
    golden_ops = 8
    golden_batch_ops = 2
    reference_ops = 4
    reference_batch_ops = 1
    #: The eye grid is checked in-run against the unchunked
    #: accumulator; golden files keep its counts, not its bins.
    golden_exclude = ("grid",)
    tolerance = (check.DEFAULT_RTOL, check.NRZ_ATOL)
    BER = {"total_bits": 2000, "n_shards": 2}
    EYE = {"n_bits": 1200}
    SHMOO = {"rates": [float(r) for r in np.linspace(1.0, 5.0, 8)],
             "strobe_fracs": [0.1, 0.35, 0.6, 0.85], "n_bits": 300}

    def setup(self):
        from repro.service.master import serve_in_thread

        self.handle = serve_in_thread(max_slots=2)
        self.a = JobClient(self.handle)
        self.b = JobClient(self.handle)
        self._reference_eye = None
        # One warm-up job per kind (the first of each pays lazy
        # imports and tester construction).
        for kind, params in (("ber", self.params("a-1")),
                             ("eye", self.params("a-2")),
                             ("shmoo", dict(self.params("b-1"),
                                            rates=[2.5],
                                            strobe_fracs=[0.5]))):
            job = self.a.rpc.submit(kind=kind, params=params)
            self.a.wait(job["job_id"])

    # -- inputs --------------------------------------------------------

    def kind(self, key: str) -> str:
        """Job kind of op *key* (``a<i>`` alternates, ``b<j>``)."""
        if key.startswith("b"):
            return "shmoo"
        return "ber" if int(key[1:]) % 2 == 0 else "eye"

    def params(self, key: str) -> dict:
        """Job parameters of op *key*."""
        seed = self.rng(key).randrange(1, 1 << 16)
        kind = self.kind(key)
        base = {"ber": self.BER, "eye": self.EYE,
                "shmoo": self.SHMOO}[kind]
        return dict(base, seed=seed)

    # -- the loop ------------------------------------------------------

    def measure(self, seconds, min_ops=1, first=0, min_batch_ops=0):
        tracer = self.tracer
        self.first = first
        self.batch_jobs: List[tuple] = []
        self.cell_times: List[float] = []
        self.paused_events = 0
        stop = threading.Event()
        batch = threading.Thread(target=self._batch_loop, args=(stop,),
                                 name="bench-client-b", daemon=True)
        batch.start()
        start = time.perf_counter()
        records: List[OpRecord] = []
        i = first
        try:
            while True:
                if time.perf_counter() - start >= seconds \
                        and i - first >= min_ops * (4 if tracer else 1) \
                        and len(self.batch_jobs) >= min_batch_ops:
                    break
                # Kinds alternate, so trace every other pair of jobs.
                traced = tracer is not None and i // 2 % 2 == 1
                if tracer is not None:
                    tracer.recording = traced
                records.append(self._interactive(f"a{i}", traced))
                i += 1
        finally:
            self.window = (start, time.perf_counter())
            stop.set()
            batch.join(timeout=2 * EVENT_WAIT_S)
            if batch.is_alive():
                self.errors["client-b"] = "client B did not stop"
            if tracer is not None:
                tracer.recording = False
        return records

    def _interactive(self, key: str, traced: bool) -> OpRecord:
        """One A job: submit, wait for its terminal event, fetch."""
        rpc = self.a.rpc
        seen = self.a.events_seen
        t0 = time.perf_counter()
        job = rpc.submit(kind=self.kind(key), params=self.params(key),
                         priority=2)
        t_sub = time.perf_counter()
        job_id = job["job_id"]
        try:
            t_event, _ = self.a.wait(job_id)
        except TimeoutError as exc:
            self.errors[key] = str(exc)
            t_event = time.monotonic()
        t_res = time.perf_counter()
        reply = rpc.result(job_id=job_id)
        t1 = time.perf_counter()
        info = {"job_id": job_id, "kind": self.kind(key),
                "submit_rtt": t_sub - t0, "result_rtt": t1 - t_res,
                "event_mono": t_event,
                "events": self.a.events_seen - seen}
        try:
            self.summaries[key] = self.summarize_job(key, reply)
        except Exception as exc:
            self.errors[key] = f"{type(exc).__name__}: {exc}"
        if traced:
            info.update(self._wire_costs(reply))
        return OpRecord(key, t0, t1, traced, job_id, info)

    @staticmethod
    def _wire_costs(reply) -> dict:
        """Bytes and host time of the result line through the wire
        codec (measured on the actual payload, outside the op)."""
        t0 = time.perf_counter()
        line = wire.encode_line({"id": 1, "ok": True, "result": reply})
        t1 = time.perf_counter()
        wire.decode_line(line)
        t2 = time.perf_counter()
        return {"result_bytes": len(line), "encode_s": t1 - t0,
                "decode_s": t2 - t1}

    def _batch_loop(self, stop: threading.Event) -> None:
        """Client B: shmoo jobs back to back until *stop*."""
        try:
            self._batch_jobs_until(stop)
        except Exception as exc:  # reported as a failed op, not lost
            self.errors["client-b"] = f"{type(exc).__name__}: {exc}"

    def _batch_jobs_until(self, stop: threading.Event) -> None:
        rpc = self.b.rpc
        j = self.first
        while not stop.is_set():
            key = f"b{j}"
            job_id = rpc.submit(kind="shmoo", params=self.params(key),
                                priority=0)["job_id"]
            cells: List[float] = []

            def on_event(event, cells=cells):
                if event["event"].endswith(".partial"):
                    cells.append(time.perf_counter())
                elif event["event"].endswith(".state") \
                        and event["data"]["state"] == "paused":
                    self.paused_events += 1

            _, state = self.b.wait(
                job_id, on_event=on_event, stop=stop,
                on_stop=lambda job_id=job_id: rpc.abort(job_id=job_id))
            self.cell_times.extend(cells)
            if state == "aborted" and stop.is_set():
                break  # cut short by the end of the run: not an op
            reply = rpc.result(job_id=job_id)
            try:
                self.summaries[key] = self.summarize_job(key, reply)
            except Exception as exc:
                self.errors[key] = f"{type(exc).__name__}: {exc}"
            self.batch_jobs.append((key, job_id))
            j += 1

    # -- checks --------------------------------------------------------

    def op_keys(self, records) -> List[str]:
        """Every checked op: the A jobs and the completed B jobs."""
        return [r.key for r in records] + [k for k, _ in self.batch_jobs]

    def summarize_job(self, key: str, reply: dict) -> dict:
        """Flat summary of one job's ``result`` reply."""
        result = reply["result"] or {}
        summary = {"state": reply["state"],
                   "complete": bool(result.get("complete", False))}
        kind = self.kind(key)
        if kind == "ber":
            summary.update(total_bits=result["total_bits"],
                           total_errors=result["total_errors"],
                           rate_gbps=result["rate_gbps"])
            summary.update({f"shard_errors.{k}": e for k, e
                            in enumerate(result["shard_errors"])})
        elif kind == "eye":
            grid = result["grid"]
            summary.update(n_samples=result["n_samples"],
                           n_crossings=result["n_crossings"],
                           grid_total=int(np.sum(grid)), grid=grid)
        else:
            summary["passes"] = ["".join("P" if p else "." for p in row)
                                 for row in result["passes"]]
        return summary

    def invariants(self, key, summary):
        problems = []
        if summary["state"] != "completed" or not summary["complete"]:
            problems.append(f"job ended {summary['state']}")
        if self.kind(key) == "ber" and summary.get("total_bits") \
                != self.BER["total_bits"]:
            problems.append("BER bit count")
        return problems

    def reference(self, key):
        """The direct library computation each job kind documents
        itself as bit-identical to."""
        from repro._rng import spawn_seeds
        from repro.core.minitester import MiniTester
        from repro.parallel import ShardPlan

        params = self.params(key)
        kind = self.kind(key)
        expected = {"state": "completed", "complete": True}
        if kind == "ber":
            tester = MiniTester()
            plan = ShardPlan.for_range(params["total_bits"],
                                       params["n_shards"])
            ranges = [s.items[0] for s in plan.shards]
            errors = [
                tester.run_loopback(n_bits=int(n), seed=int(s)).ber.n_errors
                for (_start, n), s in zip(
                    ranges, spawn_seeds(len(ranges), root=params["seed"]))
            ]
            expected.update(total_bits=params["total_bits"],
                            total_errors=sum(errors),
                            rate_gbps=tester.rate_gbps)
            expected.update({f"shard_errors.{k}": e
                             for k, e in enumerate(errors)})
        elif kind == "eye":
            if self._reference_eye is None:
                self._reference_eye = self._unchunked_eye(params)
            expected.update(self._reference_eye)
        else:
            from repro.host.shmoo import minitester_strobe_rate_shmoo

            result = minitester_strobe_rate_shmoo(
                MiniTester(), params["rates"], params["strobe_fracs"],
                n_bits=params["n_bits"], seed=params["seed"])
            expected["passes"] = [
                "".join("P" if p else "." for p in row)
                for row in result.passes]
        return expected

    @staticmethod
    def _unchunked_eye(params) -> dict:
        """The eye job's record folded in one accumulator update (the
        job streams it in chunks; chunking never changes the
        result)."""
        from repro.eye import EyeAccumulator
        from repro.signal.nrz import bits_to_waveform
        from repro.signal.prbs import prbs_bits

        bits = prbs_bits(7, params["n_bits"])
        wf = bits_to_waveform(bits, 2.5, v_low=-0.4, v_high=0.4,
                              t20_80=72.0,
                              rng=np.random.default_rng(params["seed"]))
        acc = EyeAccumulator(2.5, v_range=(-0.45, 0.45), threshold=0.0,
                             n_time_bins=32, n_volt_bins=32)
        acc.update(wf)
        snap = acc.snapshot(include_grid=True)
        return {"n_samples": snap["n_samples"],
                "n_crossings": snap["n_crossings"],
                "grid_total": int(np.sum(snap["grid"])),
                "grid": snap["grid"]}

    def reference_keys(self, keys) -> List[str]:
        """The leading A ops of this process, and the run's first B
        ops (a shmoo reference costs seconds)."""
        a = [k for k in keys if k.startswith("a")][:self.reference_ops]
        b = [k for k in keys if k.startswith("b")
             and int(k[1:]) < self.reference_batch_ops]
        return a + b

    def golden_keys(self, keys) -> List[str]:
        """The A and B ops stored in golden files."""
        a = [k for k in keys if k.startswith("a")][:self.golden_ops]
        b = [k for k in keys if k.startswith("b")][:self.golden_batch_ops]
        return a + b

    def close(self):
        self.a.close()
        self.b.close()
        self.handle.stop()

    # -- metrics -------------------------------------------------------

    def batch_cells_per_s(self) -> float:
        """Shmoo cells B finished per second of the A loop."""
        start, end = self.window
        cells = sum(1 for t in self.cell_times if start <= t <= end)
        return cells / (end - start)

    def layer_metrics(self, spans, selfs, records):
        jobs = self.handle.master.scheduler.jobs
        batch_ids = {job_id for _, job_id in self.batch_jobs}
        run_span = {}
        loopbacks, shmoo_runs = [], []
        for sid, name, t0, t1, _p, _thr, op in spans:
            if name.startswith("service.run."):
                run_span[op] = (t1 - t0, selfs[sid])
                if op in batch_ids:
                    shmoo_runs.append(t1 - t0)
            elif name == "minitester.loopback" and op in batch_ids:
                loopbacks.append(t1 - t0)
        queue, notify, overhead, unattributed = [], [], [], []
        run_by_kind: Dict[str, list] = {}
        for rec in records:
            job = jobs[rec.info["job_id"]]
            wait = job.started_at - job.submitted_at
            queue.append(wait)
            notify.append(rec.info["event_mono"] - job.finished_at)
            if rec.span_op in run_span:
                run, own = run_span[rec.span_op]
                run_by_kind.setdefault(rec.info["kind"], []).append(run)
                overhead.append(rec.seconds - wait - run)
                unattributed.append(own)
        info = [r.info for r in records]

        def mean(field):
            # Per-job sizes and counts split by kind (an eye job's
            # result and event stream dwarf a ber job's), so the mean
            # over the mix, not a median that falls between the kinds.
            return sum(i[field] for i in info) / len(info)

        return {
            "signal.unattributed_ms": 1e3 * median(unattributed),
            "service.submit_rtt_ms":
                1e3 * median(i["submit_rtt"] for i in info),
            "service.queue_wait_ms": 1e3 * median(queue),
            "service.run_ms.ber": 1e3 * median(run_by_kind.get("ber", [])),
            "service.run_ms.eye": 1e3 * median(run_by_kind.get("eye", [])),
            "service.run_ms.shmoo": 1e3 * median(shmoo_runs),
            "service.notify_lag_ms": 1e3 * median(notify),
            "service.result_rtt_ms":
                1e3 * median(i["result_rtt"] for i in info),
            "service.overhead_ms": 1e3 * median(overhead),
            "service.events_per_job": mean("events"),
            "service.preemptions": float(self.paused_events),
            "service.batch_cells_per_s": self.batch_cells_per_s(),
            "wire.result_bytes": mean("result_bytes"),
            "wire.encode_us": 1e6 * mean("encode_s"),
            "wire.decode_us": 1e6 * mean("decode_s"),
            "minitester.loopback_ms": 1e3 * median(loopbacks),
        }

