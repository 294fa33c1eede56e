"""Parallel shmoo engine: process-pool speedup over the serial walk.

The paper's Figure 13 argument in benchmark form: replicating the
tester "in array form" multiplies throughput. A 32x32 shmoo whose
per-point test is a realistic BER measurement (PRBS comparison plus
an instrument dwell — settle, arm, capture — which is what dominates
a real test floor's cell time) must run at least 2x faster on the
4-worker process backend than serially, while producing a
bit-identical pass/fail grid and equal merged telemetry totals.
"""

import time

import numpy as np

from _report import report
from repro import telemetry
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor
from repro.signal.prbs import prbs_bits

GRID_N = 32
N_WORKERS = 4
#: Per-point instrument dwell (settle + arm + capture), seconds.
DWELL_S = 0.004
#: Bits compared per point.
N_BITS = 400
#: Cells per executor chunk: 16 chunks of two whole rate columns.
CHUNK = GRID_N * GRID_N // (N_WORKERS * 4)


def ber_point(rate_gbps, strobe_ui):
    """One shmoo cell: a deterministic PRBS BER measurement.

    The eye margin shrinks with rate and with strobe distance from
    cell center; per-cell noise is seeded from the cell coordinates
    so every backend measures exactly the same errors.
    """
    tel = telemetry.active()
    time.sleep(DWELL_S)
    bits = prbs_bits(7, N_BITS, seed=1)
    cell_seed = (int(round(rate_gbps * 1e3)) * 100_003
                 + int(round(strobe_ui * 1e6))) % (1 << 31)
    rng = np.random.default_rng(cell_seed)
    margin = 0.52 - abs(strobe_ui - 0.5) - 0.055 * rate_gbps
    noise = rng.normal(0.0, 0.035, size=bits.size)
    errors = int(np.count_nonzero(noise > margin))
    tel.counter("bench.ber_points").inc()
    tel.counter("bench.ber_bits").inc(bits.size)
    if errors:
        tel.counter("bench.ber_errors").inc(errors)
    return errors == 0


def _sweep(executor):
    runner = ShmooRunner(ber_point, x_name="rate (Gbps)",
                         y_name="strobe (UI)")
    rates = list(np.linspace(1.0, 6.0, GRID_N))
    strobes = list(np.linspace(0.05, 0.95, GRID_N))
    with telemetry.use_registry() as reg:
        t0 = time.perf_counter()
        result = runner.run(rates, strobes, executor=executor)
        elapsed = time.perf_counter() - t0
    return result, elapsed, reg.to_dict()["counters"]


def test_process_pool_speedup_and_bit_exactness():
    serial_result, serial_s, serial_counters = _sweep(None)
    pool = Executor(backend="process", max_workers=N_WORKERS,
                    chunk_size=CHUNK)
    pool_result, pool_s, pool_counters = _sweep(pool)
    speedup = serial_s / pool_s

    report(
        f"Parallel shmoo — {GRID_N}x{GRID_N} BER grid, "
        f"{N_WORKERS}-worker process pool vs serial",
        ("backend", "time (s)", "speedup", "pass fraction"),
        [
            ("serial", f"{serial_s:.2f}", "1.0x",
             f"{serial_result.pass_fraction:.3f}"),
            ("process", f"{pool_s:.2f}", f"{speedup:.1f}x",
             f"{pool_result.pass_fraction:.3f}"),
        ],
    )

    # Bit-identical grid, canonical order.
    assert np.array_equal(serial_result.passes, pool_result.passes)
    assert not pool_result.aborted
    # The pass region looks like a shmoo, not a constant plane.
    assert 0.15 < serial_result.pass_fraction < 0.85

    # Telemetry totals merge to equality: every per-point counter
    # recorded in a worker process lands in the parent registry.
    cells = GRID_N * GRID_N
    for counters in (serial_counters, pool_counters):
        assert counters["bench.ber_points"] == cells
        assert counters["bench.ber_bits"] == cells * N_BITS
        assert counters["shmoo.cells"] == cells
    for key in ("bench.ber_points", "bench.ber_bits",
                "bench.ber_errors", "shmoo.cells",
                "shmoo.cells_passed", "shmoo.cells_failed"):
        assert serial_counters.get(key) == pool_counters.get(key), key

    # The acceptance bar: >= 2x with 4 workers.
    assert speedup >= 2.0, (
        f"process pool speedup {speedup:.2f}x < 2x "
        f"(serial {serial_s:.2f}s, pool {pool_s:.2f}s)"
    )


def test_thread_backend_also_overlaps_dwell():
    """The dwell-bound workload parallelizes on threads too."""
    _, serial_s, _ = _sweep(None)
    threads = Executor(backend="thread", max_workers=N_WORKERS,
                       chunk_size=CHUNK)
    result, thread_s, _ = _sweep(threads)
    report(
        "Parallel shmoo — thread backend",
        ("backend", "time (s)", "speedup"),
        [("serial", f"{serial_s:.2f}", "1.0x"),
         ("thread", f"{thread_s:.2f}",
          f"{serial_s / thread_s:.1f}x")],
    )
    assert serial_s / thread_s >= 1.5
