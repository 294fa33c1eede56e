"""Output checks: tolerances, summary comparison and golden files.

Discrete entries (ints, bools, strings: crossing counts, BER error
counts, pass grids, job states) must match exactly. Floats match
within ``rtol``/``atol``: the workload's stage tolerances pinned in
the library (``NRZ_EQUIVALENCE_ATOL``, ``XTALK_EQUIVALENCE_RTOL``/
``ATOL``), else 1e-9 relative. Summary floats are in unit intervals
or volts of a sub-volt swing, so the NRZ tolerance, a fraction of
the swing, applies to them as an absolute one.

Golden files ``golden/<workload>-seed<k>.json`` hold the leading ops'
summaries. Regenerate them (after checking each op against its
independent reference) from the repository root with::

    PYTHONPATH=src python3 -m bench.check --write --seed 1 --seed 2
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_RTOL = 1e-9


def _pinned(module: str, name: str, recorded: float) -> float:
    """A tolerance constant from the library; *recorded* is its value
    when the goldens were written, used if it has moved."""
    try:
        return float(getattr(importlib.import_module(module), name))
    except (ImportError, AttributeError):
        return recorded


NRZ_ATOL = _pinned("repro.signal._kernels", "NRZ_EQUIVALENCE_ATOL", 1e-5)
XTALK_RTOL = _pinned("repro.channel.crosstalk", "XTALK_EQUIVALENCE_RTOL",
                     1e-9)
XTALK_ATOL = _pinned("repro.channel.crosstalk", "XTALK_EQUIVALENCE_ATOL",
                     1e-12)


def same(got, want, rtol: float, atol: float) -> bool:
    """True when *got* matches *want* under the rules above."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(g, w, rtol, atol) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
    return type(got) is type(want) and got == want


def compare(got: dict, want: dict, rtol: float, atol: float
            ) -> List[str]:
    """One problem line per entry of *want* that *got* misses."""
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{key}: missing")
        elif not same(got[key], value, rtol, atol):
            problems.append(f"{key}: got {_short(got[key])}, "
                            f"want {_short(value)}")
    return problems


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def golden_path(workload: str, seed: int) -> Path:
    """Where the golden summaries of (*workload*, *seed*) live."""
    return GOLDEN_DIR / f"{workload}-seed{seed}.json"


def load_golden(workload: str, seed: int) -> Optional[Dict[str, dict]]:
    """Golden op summaries keyed by op, or None for an unrecorded seed."""
    path = golden_path(workload, seed)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data["workload"] != workload or data["seed"] != seed:
        raise ValueError(f"{path} is for {data['workload']} seed "
                         f"{data['seed']}")
    return data["ops"]


def verify(workload, keys: List[str]) -> Dict[str, List[str]]:
    """Problems per op key (ops without problems are absent).

    Every op is held to the workload's invariants; the leading ones
    also to an independent recomputation and, for a recorded seed,
    to the golden file. Errors raised outside any op (a client
    thread dying) are reported under their own key.
    """
    golden = load_golden(workload.name, workload.seed) or {}
    referenced = set(workload.reference_keys(keys))
    rtol, atol = workload.tolerance
    problems: Dict[str, List[str]] = {}
    for key, error in workload.errors.items():
        problems.setdefault(key, []).append(error)
    for key in keys:
        found = problems.setdefault(key, [])
        summary = workload.summaries.get(key)
        if summary is None:
            if not found:
                found.append("no output")
            continue
        found += workload.invariants(key, summary)
        if key in referenced:
            try:
                found += compare(summary, workload.reference(key),
                                 rtol, atol)
            except Exception as exc:  # the check itself must report
                found.append(f"reference failed: "
                             f"{type(exc).__name__}: {exc}")
        if key in golden:
            found += [f"golden {p}" for p in
                      compare(summary, golden[key], rtol, atol)]
    return {k: v for k, v in problems.items() if v}


def write_golden(name: str, seed: int) -> Path:
    """Run the golden ops of one workload and seed, check them, and
    write their summaries."""
    from bench import worker

    workload = worker.WORKLOADS[name](seed)
    workload.setup()
    try:
        records = workload.measure(
            0.0, min_ops=workload.golden_ops,
            min_batch_ops=workload.golden_batch_ops)
        keys = workload.golden_keys(workload.op_keys(records))
        problems = verify(workload, keys)
        if problems:
            raise SystemExit(f"{name} seed {seed}: not writing a golden "
                             f"file for failing ops: {problems}")
        ops = {key: {k: v for k, v in workload.summaries[key].items()
                     if k not in workload.golden_exclude}
               for key in keys}
    finally:
        workload.close()
    path = golden_path(name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "ops": ops}, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="(re)write golden files")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed to record (repeatable; default 1 and 2)")
    parser.add_argument("--workload", action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args(argv)
    from bench import worker

    for name in args.workload or list(worker.WORKLOADS):
        for seed in args.seed or [1, 2]:
            print(write_golden(name, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
