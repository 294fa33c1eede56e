"""Compare two result files written by ``python -m bench``.

    python3 bench/compare.py A.json B.json

One row per workload and end-to-end metric: each side's median and
quartiles over its runs, B's change against A, and a verdict against
the metric's ``bound`` in ``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread (q3 - q1, over the
  median) is wider than the bound, unless every run of B reads
  better, or every run worse, than every run of A;
* ``worse`` / ``better`` — B's median moved past the bound;
* ``same`` — within the bound.

Then, for workloads with traced runs on both sides, the change in
each layer's self time and the layer that moved most. Exit status 1
when any row reads ``worse``.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)  # this directory's trace.py is not `trace`
from bench.stats import median, quartiles  # noqa: E402


def values(result: dict, workload: str, metric: str, kind="runs"):
    """Every run's value of *metric* on *workload*."""
    runs = result["workloads"].get(workload, {}).get(kind, [])
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def verdict(a, b, bound: float, higher_is_better: bool) -> tuple:
    """``(change of B's median against A's, verdict)``."""
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1]
    gain = change if higher_is_better else -change

    def beats(x, y):
        return x > y if higher_is_better else x < y

    if all(beats(y, x) for x in a for y in b):
        return change, "better" if gain > bound else "same"
    if all(beats(x, y) for x in a for y in b):
        return change, "worse" if -gain > bound else "same"
    if any((q[2] - q[0]) / abs(q[1]) > bound for q in (qa, qb) if q[1]):
        return change, "unresolved"
    if gain > bound:
        return change, "better"
    if -gain > bound:
        return change, "worse"
    return change, "same"


def layer_rows(spec, a, b, workload):
    """Per-layer time changes (ms) of one workload, largest first."""
    rows = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if metric["unit"] != "ms" or not (name.endswith(".self_ms")
                                          or name.endswith("unattributed_ms")):
            continue
        va = values(a, workload, name, "trace")
        vb = values(b, workload, name, "trace")
        if va and vb and (median(va) or median(vb)):
            rows.append((median(vb) - median(va), name, median(va),
                         median(vb)))
    return sorted(rows, key=lambda r: -abs(r[0]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="baseline result file")
    parser.add_argument("b", type=Path, help="candidate result file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())

    worse = False
    print(f"{'workload':<16} {'metric':<12} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'change':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va = values(a, workload, metric["name"])
            vb = values(b, workload, metric["name"])
            if not va or not vb:
                continue
            change, word = verdict(va, vb, metric["bound"],
                                   metric["better"] == "higher")
            worse |= word == "worse"
            qa = "/".join(f"{q:.4g}" for q in quartiles(va))
            qb = "/".join(f"{q:.4g}" for q in quartiles(vb))
            print(f"{workload:<16} {metric['name']:<12} {qa:>30} "
                  f"{qb:>30} {change:>+8.1%}  {word} "
                  f"(bound {metric['bound']:.0%})")

    for workload in (w["name"] for w in spec["workloads"]):
        rows = layer_rows(spec, a, b, workload)
        if not rows:
            continue
        delta, name, _, _ = rows[0]
        print(f"\n{workload}: layer that moved most: {name} "
              f"({delta:+.2f} ms)")
        for delta, name, ma, mb in rows:
            print(f"  {name:<28} {ma:>10.2f} -> {mb:>10.2f} ms "
                  f"({delta:+.2f})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
