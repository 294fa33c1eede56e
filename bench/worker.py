"""One workload in one process: set up, measure, check, report.

Started by ``bench/run.py``. Prints ``READY`` once set-up (imports,
construction, server bind, one warm-up op) is done — the parent
times set-up up to that line — then measures, checks outputs and
prints one JSON line with the raw op times, the checks' outcome and,
when traced, the per-layer metrics and span tree.
"""

import sys
from pathlib import Path

if __name__ == "__main__" and not __package__:
    # Run as a script: import the library and this package from the
    # checkout, and keep this directory (whose trace.py would shadow
    # the standard module) off the path.
    sys.path[0:1] = [str(Path(__file__).resolve().parents[1] / "src"),
                     str(Path(__file__).resolve().parents[1])]

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

from bench import check  # noqa: E402
from bench.floor import FloorMixed  # noqa: E402
from bench.trace import Tracer, self_times, span_tree  # noqa: E402
from bench.stats import median, percentile  # noqa: E402
from bench.workloads import (  # noqa: E402
    SIGNAL_LAYERS, EyeBatch, EyeScalar, SweepCached,
)

WORKLOADS = {w.name: w for w in (EyeBatch, EyeScalar, SweepCached,
                                 FloorMixed)}
ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench" / "out"
#: Op-index stride between a run's worker processes, so each process
#: works on inputs no other one sees.
PART_OPS = 100_000


def instrument(tracer: Tracer) -> None:
    """Patch the traced layers' public callables (see README)."""
    from repro.cache import ArtifactCache
    from repro.channel.crosstalk import CrosstalkMatrix
    from repro.channel.lti import LTIChannel
    from repro.core.minitester import MiniTester
    from repro.eye import metrics as eye_metrics
    from repro.eye.accumulator import EyeAccumulator
    from repro.eye.diagram import EyeDiagram
    from repro.host.shmoo import ShmooRunner
    from repro.parallel import Executor
    from repro.service.runner import JobRunner
    from repro.signal import prbs
    from repro.signal.nrz import NRZEncoder

    for fn in ("prbs_bits", "prbs_bits_batch"):
        tracer.patch_function(prbs, fn, "signal.prbs")
    tracer.patch_function(eye_metrics, "measure_eye", "eye.metrics")
    for cls, attrs, name in (
            (NRZEncoder, ("encode", "encode_batch"), "signal.nrz"),
            (LTIChannel, ("apply", "apply_batch"), "channel.lti"),
            (CrosstalkMatrix, ("apply", "apply_batch"),
             "channel.crosstalk"),
            (EyeDiagram, ("from_waveform", "from_batch"), "eye.fold"),
            (EyeAccumulator, ("update",), "eye.accumulator"),
            (ShmooRunner, ("run",), "shmoo.run"),
            (Executor, ("run",), "parallel.executor_run"),
            (MiniTester, ("run_loopback",), "minitester.loopback")):
        for attr in attrs:
            tracer.patch_method(cls, attr, name)

    def get_or_compute(fn):
        # The compute callable gets its own span, so a lookup's own
        # time is the span's self time.
        def traced(self, key, compute):
            return tracer.call("cache.get_or_compute", fn, self, key,
                               lambda: tracer.call("cache.compute",
                                                   compute))
        return traced

    def job_run(fn):
        # Spans on a service worker thread belong to the job it runs.
        def traced(self, job, ctx):
            tracer.set_thread_op(job.job_id)
            try:
                return tracer.call(f"service.run.{job.kind}", fn, self,
                                   job, ctx)
            finally:
                tracer.set_thread_op(None)
        return traced

    tracer.patch_method(ArtifactCache, "get_or_compute", None,
                        make=get_or_compute)
    tracer.patch_method(JobRunner, "run", None, make=job_run)


def kernel_path() -> str:
    """Name of the active array-kernel path, when the library has
    one to report."""
    try:
        from repro.signal import _backend

        return _backend.active_kernel_backend().name
    except (ImportError, AttributeError):
        return "unknown"


def ops_per_s(records) -> float:
    """Ops per second of op time."""
    return len(records) / sum(r.seconds for r in records)


def signal_layers(spans, selfs, records) -> dict:
    """Per-op self time of each signal-chain layer, and the op time no
    traced layer covers (both medians over the traced ops).

    A memoized stage runs its work inside ``cache.compute``; that
    span's self time is the stage's own work, so it is credited to
    the nearest enclosing span outside the cache layer.
    """
    ops = {r.span_op: {} for r in records}
    covered = {r.span_op: 0.0 for r in records}
    threads = {r.span_op: r.thread for r in records}
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[4] for s in spans}

    def layer(sid):
        while sid is not None and names[sid] == "cache.compute":
            sid = parents.get(parents[sid])  # past its get_or_compute
        return None if sid is None else names[sid]

    for sid, name, t0, t1, parent, thread, op in spans:
        if op not in ops:
            continue
        owner = layer(sid)
        ops[op][owner] = ops[op].get(owner, 0.0) + selfs[sid]
        if parent is None and thread == threads[op]:
            covered[op] += t1 - t0
    out = {f"{layer}.self_ms":
           1e3 * median(ops[r.span_op].get(layer, 0.0) for r in records)
           for layer in SIGNAL_LAYERS}
    out["signal.unattributed_ms"] = 1e3 * median(
        r.seconds - covered[r.span_op] for r in records)
    return out


def write_trace(workload, tracer: Tracer, records, tree) -> Path:
    """Spans and the span tree to ``out/trace-<workload>-seed<k>.json``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    fields = ("id", "name", "start", "end", "parent", "thread", "op")
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "span_fields": fields,
        "spans": [list(s) for s in tracer.spans],
        "ops": [{"key": r.key, "span_op": r.span_op, "start": r.t0,
                 "end": r.t1, "traced": r.traced} for r in records],
        "tree": tree,
    }))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="which of a run's worker processes this is; "
                        "part k runs ops from k * PART_OPS on")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    workload.setup()
    print("READY", flush=True)
    if tracer is not None:
        instrument(tracer)
    try:
        records = workload.measure(args.seconds, min_ops=3,
                                   first=args.part * PART_OPS)
        if tracer is not None:
            tracer.restore()
        keys = workload.op_keys(records)
        problems = check.verify(workload, keys)
        untraced = [r for r in records if not r.traced]
        result = {
            "op_seconds": [r.seconds for r in untraced],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "meta": {"kernel_path": kernel_path(), "ops": len(keys),
                     "python": platform.python_version(),
                     "cpus": len(os.sched_getaffinity(0))},
        }
        if tracer is not None:
            traced = [r for r in records if r.traced]
            spans = tracer.spans
            selfs = self_times(spans)
            layers = signal_layers(spans, selfs, traced)
            layers.update(workload.layer_metrics(spans, selfs, traced))
            # Too unsteady run to run to gate; reported per layer.
            layers["op_ms_p90"] = 1e3 * percentile(
                [r.seconds for r in untraced], 90)
            # Extra host time per op that tracing costs, from
            # interleaved traced and untraced ops.
            layers["trace_overhead"] = \
                ops_per_s(untraced) / ops_per_s(traced) - 1
            tree = span_tree(spans)
            result["layers"] = layers
            result["tree"] = tree
            result["meta"]["trace_file"] = str(write_trace(
                workload, tracer, records, tree).relative_to(ROOT))
    finally:
        workload.close()
    failed = len(problems)
    result.update(correct=failed == 0,
                  attempted=len(set(keys) | set(problems)),
                  failed=failed,
                  problems=dict(list(problems.items())[:5]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
