"""Run one workload once and print its result as the last line.

From the root of a checkout::

    python3 bench/run.py --workload eye-batch-64ch --seed 1 \\
        --seconds 18 --trace 0

An untraced run measures in three worker processes
(``bench/worker.py``) one after another, each for a third of the
time on its own inputs, and pools their op times; per-process
effects (memory layout, a noisy neighbour) then move a run's
medians less. ``setup_s`` is the median of the three
process-start-to-ready times. The workers' environment has
``REPRO_KERNEL_*`` removed, so the library's defaults are measured.
A traced run (``--trace 1``) uses one worker for the whole time and
prints every ``per_layer`` metric of ``BENCHMARK.json`` instead of
the ``end_to_end`` ones, a layer the workload never enters reading 0.
The last line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` next to this directory; the
run fails, printing no result, when it is not there.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)  # this directory's trace.py is not `trace`
from bench.stats import median, percentile  # noqa: E402

WORKER = ROOT / "bench" / "worker.py"
#: Worker processes of an untraced run.
PARTS = 3
#: Wall-clock budget of one run, every child process included.
BUDGET_S = 170.0
#: ``ops_per_s`` is the median throughput over windows of consecutive
#: ops holding at least this much op time: steadier than one overall
#: mean under a noisy neighbour, yet it still sees an op that is slow
#: every few ops, which a latency median would not.
WINDOW_S = 1.0


class Child:
    """A worker process whose set-up is timed up to its READY line.

    The process is killed if it outlives the run's deadline.
    """

    def __init__(self, args, deadline: float):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_KERNEL_")}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(WORKER), *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        self._timer = threading.Timer(
            max(0.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()

    def wait_ready(self) -> float:
        """Seconds from process start to READY."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        self.finish()
        raise RuntimeError("worker exited during set-up")

    def finish(self) -> str:
        """The rest of the worker's output, once it has exited."""
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self._timer.cancel()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return out


def throughput(op_seconds_per_worker) -> float:
    """Median ops per second over :data:`WINDOW_S` windows of each
    worker's ops, in order; a worker with less op time than one
    window counts as one window."""
    rates = []
    for ops in op_seconds_per_worker:
        windows, n, t = [], 0, 0.0
        for seconds in ops:
            n, t = n + 1, t + seconds
            if t >= WINDOW_S:
                windows.append(n / t)
                n, t = 0, 0.0
        rates += windows or [n / t]
    return median(rates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads)}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    deadline = time.monotonic() + BUDGET_S
    parts = 1 if args.trace else PARTS
    setup, results = [], []
    for part in range(parts):
        worker = Child(["--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(seconds / parts),
                        "--trace", str(args.trace),
                        "--part", str(part)], deadline)
        setup.append(worker.wait_ready())
        results.append(json.loads(worker.finish().strip().splitlines()[-1]))
    op_seconds = [t for r in results for t in r["op_seconds"]]
    measured = {
        "setup_s": median(setup),
        "ops_per_s": throughput(r["op_seconds"] for r in results),
        "op_ms_p50": 1e3 * percentile(op_seconds, 50),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
    }
    if args.trace:
        measured = results[0]["layers"]

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    unexercised = []
    for m in wanted:
        value = measured.get(m["name"])
        if value is None and not args.trace:
            raise RuntimeError(f"worker did not measure {m['name']}")
        if value is None:
            unexercised.append(m["name"])
            value = 0.0
        if not math.isfinite(value):
            raise RuntimeError(f"{m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    meta = dict(results[0]["meta"], setup_samples_s=setup,
                ops=sum(r["meta"]["ops"] for r in results))
    problems = {k: v for r in results for k, v in r["problems"].items()}
    print(f"{args.workload} seed {args.seed}: {meta['ops']} ops in "
          f"{parts} process(es), kernel path {meta['kernel_path']}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    if unexercised:
        print(f"  ({len(unexercised)} metrics of layers this workload "
              f"never enters read 0)")
    for key, found in problems.items():
        print(f"  FAILED {key}: {'; '.join(found[:3])}")
    if args.trace:
        heaviest = sorted(results[0]["tree"].items(),
                          key=lambda kv: -kv[1]["self_ms"])
        print("  heaviest span paths (self ms over the traced ops):")
        for path, node in heaviest[:12]:
            print(f"    {node['self_ms']:>10.1f}  {path}")
    print("bench-meta: " + json.dumps(meta))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
