"""The closed op loop and the signal-chain and sweep workloads.

``floor-mixed`` lives in :mod:`bench.floor`. Each workload builds its
inputs from ``(workload name, seed, op index)``, so one seed always
gives the same inputs and every op gets fresh ones. Simulated work
per op is fixed; only host time varies.

An op's outputs are reduced, outside the timed region, to a flat
*summary* (name -> number, string or list). Summaries are checked
three ways: against workload invariants (every op), against an
independent computation of the same result (the leading
``reference_ops`` ops), and against the golden file for the seed
when one exists (the leading ``golden_ops`` ops).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from bench import check
from bench.stats import median
from repro import cache as artifact_cache
from repro.cache import ArtifactCache
from repro.channel.crosstalk import CrosstalkMatrix
from repro.channel.lti import LTIChannel
from repro.eye import metrics as eye_metrics
from repro.eye.accumulator import EyeAccumulator
from repro.eye.diagram import EyeDiagram
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor
from repro.signal import prbs
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import NRZEncoder

#: Span name per traced library callable: the layers of the signal
#: chain, in chain order.
SIGNAL_LAYERS = ("signal.prbs", "signal.nrz", "channel.lti",
                 "channel.crosstalk", "eye.fold", "eye.accumulator",
                 "eye.metrics")


def op_rng(workload: str, seed: int, index) -> random.Random:
    """The input generator of one op (string-seeded, so stable
    across processes and Python versions)."""
    return random.Random(f"{workload}/{seed}/{index}")


def flat(name: str, values) -> dict:
    """``{name.0: v0, name.1: v1, ...}`` for a per-channel list."""
    return {f"{name}.{k}": v for k, v in enumerate(values)}


class OpRecord:
    """One timed op: its key, host-time window and trace attribution.

    ``span_op`` is the id spans opened for this op carry (the op
    index, or the service job id).
    """

    __slots__ = ("key", "t0", "t1", "traced", "span_op", "thread",
                 "info")

    def __init__(self, key: str, t0: float, t1: float, traced: bool,
                 span_op, info: Optional[dict] = None):
        self.key = key
        self.t0 = t0
        self.t1 = t1
        self.traced = traced
        self.span_op = span_op
        self.thread = threading.get_ident()
        self.info = info or {}

    @property
    def seconds(self) -> float:
        """Host time of the op."""
        return self.t1 - self.t0


class Workload:
    """A closed loop of one op at a time, timed per op.

    Subclasses define :meth:`setup`, :meth:`op`, :meth:`summarize`,
    :meth:`invariants` and :meth:`reference`.
    """

    name = ""
    #: Leading ops stored in and checked against golden files.
    golden_ops = 8
    #: Leading background-client ops in golden files (floor-mixed).
    golden_batch_ops = 0
    #: Leading ops of each worker process re-computed through an
    #: independent path.
    reference_ops = 4
    #: Summary entries kept out of golden files (checked in-run only).
    golden_exclude: tuple = ()
    #: (rtol, atol) for float summary entries.
    tolerance = (check.DEFAULT_RTOL, 0.0)

    def __init__(self, seed: int, tracer=None):
        self.seed = int(seed)
        self.tracer = tracer
        self.summaries: Dict[str, dict] = {}
        self.errors: Dict[str, str] = {}

    def rng(self, index) -> random.Random:
        """Input generator for op *index*."""
        return op_rng(self.name, self.seed, index)

    # -- to define -----------------------------------------------------

    def setup(self) -> None:
        """Build the objects the ops use and run one warm-up op."""

    def op(self, i: int):
        """Timed op *i*; returns its outputs."""
        raise NotImplementedError

    def summarize(self, i: int, out) -> dict:
        """Flat summary of op *i*'s outputs (untimed)."""
        raise NotImplementedError

    def invariants(self, key: str, summary: dict) -> List[str]:
        """Problems with a summary that hold for every input."""
        return []

    def reference(self, key: str) -> dict:
        """Summary entries for op *key* from an independent path."""
        raise NotImplementedError

    def op_info(self, i: int, out) -> dict:
        """Per-op readings for the layer metrics (untimed)."""
        return {}

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    # -- the loop ------------------------------------------------------

    def op_keys(self, records: List[OpRecord]) -> List[str]:
        """Every op to check, in order."""
        return [r.key for r in records]

    def reference_keys(self, keys: List[str]) -> List[str]:
        """The ops recomputed through the independent path."""
        return keys[:self.reference_ops]

    def golden_keys(self, keys: List[str]) -> List[str]:
        """The ops stored in golden files."""
        return keys[:self.golden_ops]

    def measure(self, seconds: float, min_ops: int = 1, first: int = 0,
                min_batch_ops: int = 0) -> List[OpRecord]:
        """Run ops *first*, *first* + 1, ... until *seconds* have passed
        and *min_ops* are done.

        With a tracer, every other op is traced, so one run yields
        both throughputs under the same conditions. *min_batch_ops*
        is for workloads with a background client.
        """
        tracer = self.tracer
        start = time.perf_counter()
        records: List[OpRecord] = []
        i = first
        while True:
            if time.perf_counter() - start >= seconds \
                    and i - first >= min_ops * (2 if tracer else 1):
                break
            traced = tracer is not None and i % 2 == 1
            if tracer is not None:
                tracer.current_op = i
                tracer.recording = traced
            out = None
            t0 = time.perf_counter()
            try:
                out = self.op(i)
            except Exception as exc:  # an op failure is a result
                self.errors[str(i)] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.recording = False
            info = {}
            if out is not None:
                try:
                    info = self.op_info(i, out)
                    self.summaries[str(i)] = self.summarize(i, out)
                except Exception as exc:
                    self.errors[str(i)] = f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(str(i), t0, t1, traced, i, info))
            del out
            i += 1
        return records

    def layer_metrics(self, spans, selfs, records) -> dict:
        """Workload-specific per-layer metrics from the traced ops."""
        return {}


# -- eye-batch-64ch ---------------------------------------------------------


class EyeBatch(Workload):
    """64 channels x 2048 bits of PRBS-23 at 10 Gbps through the
    batched chain: PRBS -> NRZ -> LTI -> crosstalk -> fold ->
    per-channel accumulator."""

    name = "eye-batch-64ch"
    reference_ops = 8
    tolerance = (check.XTALK_RTOL, max(check.XTALK_ATOL, check.NRZ_ATOL))
    N_CH = 64
    N_BITS = 2048
    RATE = 10.0

    def setup(self):
        self.encoder = NRZEncoder(self.RATE, v_low=-0.4, v_high=0.4,
                                  t20_80=72.0, dt=25.0)
        self.channel = LTIChannel(7.0, attenuation_db=1.0, delay_ps=50.0)
        self.names = [f"ch{c}" for c in range(self.N_CH)]
        self.matrix = CrosstalkMatrix(self.names)
        self.summarize(-1, self.op(-1))

    def seeds(self, i) -> List[int]:
        """The 64 PRBS-23 start states of block *i*."""
        rng = self.rng(i)
        return [rng.randrange(1, 1 << 23) for _ in range(self.N_CH)]

    def _accumulator(self, n_channels=None) -> EyeAccumulator:
        return EyeAccumulator(self.RATE, v_range=(-0.5, 0.5),
                              threshold=0.0, n_time_bins=64,
                              n_volt_bins=48, n_channels=n_channels)

    @staticmethod
    def _opening(eye) -> float:
        # Four samples per UI: widen the eye-center window so the
        # vertical readings find samples.
        return eye_metrics.measure_eye(
            eye, center_window_frac=0.5).eye_opening_ui

    def op(self, i):
        bits = prbs.prbs_bits_batch(23, self.N_BITS, self.seeds(i))
        block = self.encoder.encode_batch(bits)
        block = self.channel.apply_batch(block)
        block = self.matrix.apply_batch(block)
        eyes = EyeDiagram.from_batch(block, self.RATE)
        acc = self._accumulator(self.N_CH)
        acc.update(block)
        return eyes, acc

    def summarize(self, i, out):
        eyes, acc = out
        ui = acc.unit_interval
        summary = {"acc_samples": int(acc.n_samples)}
        summary.update(flat("crossings", [e.n_crossings for e in eyes]))
        summary.update(flat("opening", [self._opening(e) for e in eyes]))
        summary.update(flat("acc_crossings", [
            int(n) for n in acc.n_crossings_per_channel]))
        summary.update(flat("acc_crossover_ui", [
            acc.crossover_phase(c) / ui for c in range(self.N_CH)]))
        return summary

    def invariants(self, key, summary):
        problems = []
        for c in range(self.N_CH):
            if summary[f"crossings.{c}"] < self.N_BITS // 4:
                problems.append(f"channel {c}: too few crossings")
            if not 0.0 < summary[f"opening.{c}"] <= 1.0:
                problems.append(f"channel {c}: opening out of (0, 1]")
            if summary[f"acc_crossings.{c}"] < self.N_BITS // 4:
                problems.append(f"channel {c}: accumulator crossings")
        return problems

    def reference(self, key):
        """Two victim channels through the scalar chain: the bit-serial
        LFSR, per-channel render/filter, the per-pair crosstalk dict
        path over the victim's coupling neighbourhood, the scalar fold
        and a scalar accumulator."""
        i = int(key)
        seeds = self.seeds(i)
        victims = sorted({(7 * i + 3) % self.N_CH,
                          (31 * i + 40) % self.N_CH})
        expected = {}
        for c in victims:
            near = range(max(0, c - 2), min(self.N_CH, c + 3))
            waves = {}
            for k in near:
                bits = prbs.prbs_bits_scalar(23, self.N_BITS, seeds[k])
                waves[self.names[k]] = self.channel.apply(
                    self.encoder.encode(bits))
            victim = self.matrix.apply(waves)[self.names[c]]
            eye = EyeDiagram.from_waveform(victim, self.RATE)
            acc = self._accumulator()
            acc.update(victim)
            expected[f"crossings.{c}"] = eye.n_crossings
            expected[f"opening.{c}"] = self._opening(eye)
            expected[f"acc_crossings.{c}"] = int(acc.n_crossings)
            expected[f"acc_crossover_ui.{c}"] = \
                acc.crossover_phase() / acc.unit_interval
        return expected


# -- eye-scalar-long --------------------------------------------------------


class EyeScalar(Workload):
    """One 2.5 Gbps channel, 4000 bits at 1 ps/sample with RJ + DJ,
    through the scalar entry points and ``measure_eye``."""

    name = "eye-scalar-long"
    tolerance = (check.DEFAULT_RTOL, check.NRZ_ATOL)
    N_BITS = 4000
    RATE = 2.5

    def setup(self):
        self.encoder = NRZEncoder(self.RATE, v_low=-0.4, v_high=0.4,
                                  t20_80=72.0, dt=1.0)
        self.channel = LTIChannel(2.2)
        self.jitter = JitterBudget(rj_rms=3.2, dj_pp=23.0).build()
        self.summarize(-1, self.op(-1))

    def inputs(self, i):
        """``(PRBS-23 start state, jitter RNG seed)`` of record *i*."""
        rng = self.rng(i)
        return rng.randrange(1, 1 << 23), rng.randrange(1 << 32)

    def op(self, i):
        prbs_seed, jitter_seed = self.inputs(i)
        bits = prbs.prbs_bits(23, self.N_BITS, seed=prbs_seed)
        wf = self.encoder.encode(bits, jitter=self.jitter,
                                 rng=np.random.default_rng(jitter_seed))
        wf = self.channel.apply(wf)
        eye = EyeDiagram.from_waveform(wf, self.RATE)
        return eye, eye_metrics.measure_eye(eye)

    def summarize(self, i, out):
        eye, m = out
        return self._summary(eye, m)

    @staticmethod
    def _summary(eye, m) -> dict:
        return {
            "crossings": int(eye.n_crossings),
            "opening": m.eye_opening_ui,
            "jitter_rms_ui": m.jitter_rms / m.unit_interval,
            "height": m.eye_height,
            "v_high": m.v_high,
            "v_low": m.v_low,
        }

    def invariants(self, key, summary):
        problems = []
        if summary["crossings"] < self.N_BITS // 4:
            problems.append("too few crossings")
        if not 0.0 < summary["opening"] <= 1.0:
            problems.append("opening out of (0, 1]")
        if not summary["v_low"] < 0.0 < summary["v_high"]:
            problems.append("rails on the wrong side of threshold")
        return problems

    def reference(self, key):
        """The batch path with one row: bit-serial LFSR, batched
        render (the jitter model draws the identical offsets for a
        single row), batched filter, batched fold."""
        prbs_seed, jitter_seed = self.inputs(int(key))
        bits = prbs.prbs_bits_scalar(23, self.N_BITS, prbs_seed)
        block = self.encoder.encode_batch(
            bits[None, :], jitter=self.jitter,
            rng=np.random.default_rng(jitter_seed))
        block = self.channel.apply_batch(block)
        eye = EyeDiagram.from_batch(block, self.RATE)[0]
        return self._summary(eye, eye_metrics.measure_eye(eye))


# -- sweep-cached -----------------------------------------------------------


class SweepCached(Workload):
    """A 32 rate x 32 margin shmoo on two threads with a fresh
    artifact cache per sweep; each cell reads a rate-keyed eye
    opening from the cache (a 512-bit clean scalar pipeline on a
    miss)."""

    name = "sweep-cached"
    golden_ops = 4
    reference_ops = 1
    tolerance = (check.DEFAULT_RTOL, check.NRZ_ATOL)
    #: The pass grid is a pure function of the openings and margins;
    #: in-run it is checked exactly against the serial uncached
    #: sweep, across commits through the openings (a legitimate
    #: last-digit change must not flip a cell sitting on a margin).
    golden_exclude = ("passes",)
    RATES = tuple(float(x) for x in np.linspace(1.0, 3.0, 32))
    #: Margins straddle the clean openings (0.9989-0.9997 UI), so the
    #: pass boundary crosses the grid.
    MARGINS = tuple(float(y) for y in np.linspace(0.9985, 0.9999, 32))

    def setup(self):
        self.executor = Executor("thread", max_workers=2)
        self.channel = LTIChannel(2.2)
        # A quarter of the rate axis reaches every layer's first-call
        # work; a full warm-up sweep would add its second of
        # allocation noise to the set-up time.
        self.sweep(-1, self.RATES[:8])

    def prbs_seed(self, i) -> int:
        """PRBS-7 start state of sweep *i*."""
        return self.rng(i).randrange(1, 1 << 7)

    def opening(self, rate: float, prbs_seed: int) -> float:
        """Clean eye opening (UI) of the 512-bit pipeline at *rate*."""
        bits = prbs.prbs_bits(7, 512, seed=prbs_seed)
        encoder = NRZEncoder(rate, v_low=-0.4, v_high=0.4, t20_80=90.0)
        wf = self.channel.apply(encoder.encode(bits))
        eye = EyeDiagram.from_waveform(wf, rate)
        return eye_metrics.measure_eye(eye).eye_opening_ui

    @staticmethod
    def key(rate: float, prbs_seed: int) -> str:
        """Cache key of one rate's opening."""
        return artifact_cache.canonical_digest("bench.opening",
                                               float(rate), prbs_seed)

    def op(self, i):
        return self.sweep(i, self.RATES)

    def sweep(self, i, rates):
        """Sweep *i* over *rates* x :attr:`MARGINS`."""
        prbs_seed = self.prbs_seed(i)
        tracer = self.tracer

        def cell(rate, margin):
            store = artifact_cache.active()
            opening = store.get_or_compute(
                self.key(rate, prbs_seed),
                lambda: self.opening(rate, prbs_seed))
            return opening >= margin

        test = cell if tracer is None \
            else (lambda x, y: tracer.call("shmoo.cell", cell, x, y))
        cache = ArtifactCache()
        runner = ShmooRunner(test, x_name="rate (Gbps)",
                             y_name="margin (UI)", cache=cache)
        result = runner.run(rates, self.MARGINS, executor=self.executor)
        return result, cache, prbs_seed

    def op_info(self, i, out):
        _, cache, _ = out
        return {"cache": cache.stats()}

    def summarize(self, i, out):
        result, cache, prbs_seed = out
        openings = []
        for rate in self.RATES:
            hit, value = cache.get(self.key(rate, prbs_seed))
            openings.append(value if hit else None)
        summary = {"complete": bool(result.complete),
                   "evaluated": int(result.evaluated.sum()),
                   "passes": self._grid(result.passes)}
        summary.update(flat("opening", openings))
        return summary

    @staticmethod
    def _grid(passes) -> List[str]:
        return ["".join("P" if p else "." for p in row) for row in passes]

    def invariants(self, key, summary):
        problems = []
        if not summary["complete"]:
            problems.append("sweep incomplete")
        if summary["evaluated"] != len(self.RATES) * len(self.MARGINS):
            problems.append("cells not evaluated")
        if any(summary[f"opening.{k}"] is None
               for k in range(len(self.RATES))):
            problems.append("opening missing from the cache")
        return problems

    def reference(self, key):
        """The same pass grid serially, with no cache and no executor."""
        prbs_seed = self.prbs_seed(int(key))
        previous = artifact_cache.active()
        artifact_cache.disable()
        try:
            openings = [self.opening(r, prbs_seed) for r in self.RATES]
        finally:
            if previous is not artifact_cache.NULL_CACHE:
                artifact_cache.enable(previous)
        passes = [[o >= m for o in openings] for m in self.MARGINS]
        expected = {"complete": True,
                    "evaluated": len(self.RATES) * len(self.MARGINS),
                    "passes": self._grid(passes)}
        expected.update(flat("opening", openings))
        return expected

    def close(self):
        self.executor.close()

    def layer_metrics(self, spans, selfs, records):
        by_op = {}
        for span in spans:
            by_op.setdefault(span[6], []).append(span)
        names = {s[0]: s[1] for s in spans}
        parents = {s[0]: s[4] for s in spans}

        def under_compute(sid) -> bool:
            parent = parents.get(sid)
            while parent is not None:
                if names.get(parent) == "cache.compute":
                    return True
                parent = parents.get(parent)
            return False

        per_op = {k: [] for k in (
            "shmoo", "executor", "reassembly", "busy", "compute")}
        lookups = []
        for rec in records:
            mine = by_op.get(rec.span_op, [])
            dur = {}
            cells = 0.0
            compute = 0.0
            for sid, name, t0, t1, _p, _thr, _op in mine:
                if name in ("shmoo.run", "parallel.executor_run"):
                    dur[name] = dur.get(name, 0.0) + (t1 - t0)
                elif name == "shmoo.cell":
                    cells += t1 - t0
                elif name == "cache.get_or_compute":
                    lookups.append(selfs[sid])
                elif name == "cache.compute" and not under_compute(sid):
                    compute += t1 - t0
            run = dur.get("shmoo.run", 0.0)
            ex = dur.get("parallel.executor_run", 0.0)
            per_op["shmoo"].append(run)
            per_op["executor"].append(ex)
            per_op["reassembly"].append(run - ex)
            per_op["busy"].append(cells / (2 * ex) if ex else 0.0)
            per_op["compute"].append(compute)
        stats = [rec.info["cache"] for rec in records if "cache" in rec.info]

        def stat(field):
            return median(s[field] for s in stats)

        def ratio(num, den):
            return median(num(s) / den(s) for s in stats if den(s))

        return {
            "shmoo.run_ms": 1e3 * median(per_op["shmoo"]),
            "parallel.executor_run_ms": 1e3 * median(per_op["executor"]),
            "parallel.reassembly_ms": 1e3 * median(per_op["reassembly"]),
            "parallel.busy_ratio": median(per_op["busy"]),
            "cache.hits": stat("hits"),
            "cache.misses": stat("misses"),
            "cache.stores": stat("stores"),
            "cache.evictions": stat("evictions"),
            "cache.hit_ratio": ratio(lambda s: s["hits"],
                                     lambda s: s["hits"] + s["misses"]),
            # Distinct keys = live entries + evicted ones (exact
            # while nothing is evicted and re-stored).
            "cache.dup_compute_ratio": ratio(
                lambda s: s["stores"],
                lambda s: s["entries"] + s["evictions"]),
            "cache.lookup_us_p50": 1e6 * median(lookups),
            "cache.compute_ms": 1e3 * median(per_op["compute"]),
            "cache.bytes_mb": stat("bytes") / 1e6,
        }
