"""Every workload, each run in fresh processes, into one result file.

From the repository root::

    PYTHONPATH=src python -m bench [--seed 1] [--workload NAME ...]
        [--seconds S] [--trace] [--repeat N] [--out PATH]

Each run is ``bench/run.py`` for one workload; ``--repeat N`` runs N
full sets, ``--trace`` adds one traced run per workload. Every metric
is printed with its unit, and everything lands in ``--out`` (default
``bench/out/result-seed<k>.json``), the input of ``bench/compare.py``.

Exit status 1 when any output check failed, or — with ``--repeat 2``
or more — when a gated end-to-end metric differs between two sets by
more than its ``BENCHMARK.json`` bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench.stats import median

ROOT = Path(__file__).resolve().parents[1]
META = "bench-meta: "


def run_one(workload: str, seed: int, seconds, trace: bool) -> dict:
    """One ``bench/run.py`` run: its result line plus run metadata."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run failed "
                         f"(exit {proc.returncode})")
    for line in lines[:-1]:
        if not line.startswith(META):
            print(line)
    meta = next(json.loads(line[len(META):]) for line in lines
                if line.startswith(META))
    return dict(json.loads(lines[-1]), meta=meta)


def repeatability(spec: dict, result: dict) -> bool:
    """Print each gated metric's change between the first two sets;
    False when one exceeds its bound."""
    ok = True
    print("\nrepeatability (set 2 against set 1):")
    for name, data in result["workloads"].items():
        first, second = data["runs"][:2]
        for metric in spec["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            change = abs(b - a) / abs(a)
            within = change <= metric["bound"]
            ok &= within
            print(f"  {name:<16} {metric['name']:<12} {a:>12.6g} "
                  f"{b:>12.6g}  differ {change:6.2%} (bound "
                  f"{metric['bound']:.0%}) {'ok' if within else 'EXCEEDED'}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description="Run every benchmark workload.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"per run (default {spec['run_seconds']})")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full sets of untraced runs")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    result = {"seed": args.seed,
              "seconds": args.seconds or spec["run_seconds"],
              "workloads": {n: {"runs": [], "trace": []} for n in names}}
    for _ in range(args.repeat):
        for name in names:
            result["workloads"][name]["runs"].append(
                run_one(name, args.seed, args.seconds, trace=False))
    if args.trace:
        for name in names:
            result["workloads"][name]["trace"].append(
                run_one(name, args.seed, args.seconds, trace=True))
    first = result["workloads"][names[0]]
    result["kernel_path"] = (first["runs"] or first["trace"])[0][
        "meta"]["kernel_path"]

    out = args.out or ROOT / "bench" / "out" / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"\nseed {args.seed}, kernel path {result['kernel_path']}: "
          f"median over {args.repeat} set(s)")
    for name in names:
        runs = result["workloads"][name]["runs"]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            print(f"  {name:<16} {metric['name']:<12} "
                  f"{median(values):>12.6g} {metric['unit']}")
    print(f"wrote {out}")

    runs = [r for data in result["workloads"].values()
            for r in data["runs"] + data["trace"]]
    ok = all(r["correct"] for r in runs)
    if not ok:
        print("output checks FAILED")
    if args.repeat >= 2:
        ok &= repeatability(spec, result)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
