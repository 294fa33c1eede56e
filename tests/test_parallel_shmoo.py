"""Parallel shmoo sweeps: backend equivalence, progress, abort.

The load-bearing property: sharding a shmoo over any executor
backend produces a bit-identical pass/fail grid and identical
telemetry counter totals versus the serial walk.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as artifact_cache
from repro import telemetry
from repro.cache import ArtifactCache
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor

N_WORKERS = 2


def circle_test(x, y):
    """Deterministic, picklable pass/fail with telemetry."""
    telemetry.active().counter("cell.tests").inc()
    return x * x + y * y <= 4.0


def parity_test(x, y):
    return (int(x) + int(y)) % 2 == 0


def _column_stimulus(x):
    time.sleep(0.005)  # long enough for a second shard to ask meanwhile
    return x / 8.0


def column_cell(x, y):
    """A cell whose cached stimulus is keyed by x alone, as a rate
    sweep's rendered pattern is keyed by its rate."""
    stimulus = artifact_cache.active().get_or_compute(
        f"column:{x!r}", lambda: _column_stimulus(x))
    return stimulus >= y


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_grid_identical_to_serial(self, backend):
        xs = list(np.linspace(-2.5, 2.5, 11))
        ys = list(np.linspace(-2.5, 2.5, 9))
        serial = ShmooRunner(circle_test).run(xs, ys)
        ex = Executor(backend=backend, max_workers=N_WORKERS)
        sharded = ShmooRunner(circle_test).run(xs, ys, executor=ex)
        assert np.array_equal(serial.passes, sharded.passes)
        assert not sharded.aborted
        assert sharded.evaluated.all()

    def test_counter_totals_identical_across_backends(self):
        xs = list(np.linspace(0, 4, 6))
        ys = list(np.linspace(0, 4, 5))
        snapshots = {}
        for backend in ("serial", "thread", "process"):
            ex = Executor(backend=backend, max_workers=N_WORKERS,
                          chunk_size=5)
            with telemetry.use_registry() as reg:
                ShmooRunner(circle_test).run(xs, ys, executor=ex)
            snapshots[backend] = reg.to_dict()["counters"]
        assert snapshots["serial"] == snapshots["thread"] \
            == snapshots["process"]
        assert snapshots["serial"]["cell.tests"] == 30
        assert snapshots["serial"]["shmoo.cells"] == 30

    @given(nx=st.integers(1, 12), ny=st.integers(1, 10),
           chunk_size=st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_sharded_grid_property(self, nx, ny, chunk_size):
        """Serial and chunked grids are identical for any shape."""
        xs = list(np.linspace(0, 10, nx))
        ys = list(np.linspace(0, 10, ny))
        serial = ShmooRunner(parity_test).run(xs, ys)
        sharded = ShmooRunner(parity_test).run(
            xs, ys, executor=Executor(backend="thread", max_workers=3,
                                      chunk_size=chunk_size),
        )
        assert np.array_equal(serial.passes, sharded.passes)


class TestColumnShards:
    """Chunks hold whole x columns, so concurrent chunks never ask the
    cache for one key. The counts below need ``chunk_size`` to be a
    multiple of ``len(ys)``: then no column straddles two chunks."""

    xs = [float(x) for x in range(8)]
    ys = [0.1, 0.3, 0.5, 0.7]
    chunk_size = 8

    def test_process_shards_compute_each_column_once(self):
        serial = ShmooRunner(column_cell).run(self.xs, self.ys)
        runner = ShmooRunner(column_cell, cache=ArtifactCache())
        with Executor("process", max_workers=N_WORKERS,
                      chunk_size=self.chunk_size) as ex, \
                telemetry.use_registry() as reg:
            sharded = runner.run(self.xs, self.ys, executor=ex)
        counters = reg.to_dict()["counters"]
        assert np.array_equal(serial.passes, sharded.passes)
        # Each chunk's clone of the cache computes its two columns
        # once and serves their other three cells.
        assert counters["cache.misses"] == len(self.xs)
        assert counters["cache.hits"] == 24

    def test_thread_shards_never_wait_on_each_other(self):
        serial = ShmooRunner(column_cell).run(self.xs, self.ys)
        cache = ArtifactCache()
        with Executor("thread", max_workers=N_WORKERS,
                      chunk_size=self.chunk_size) as ex:
            sharded = ShmooRunner(column_cell, cache=cache).run(
                self.xs, self.ys, executor=ex)
        assert np.array_equal(serial.passes, sharded.passes)
        assert cache.waits == 0
        assert cache.stores == len(self.xs)


class TestWalkOrder:
    def test_inline_and_executor_call_test_x_major(self):
        """Both dispatch paths walk whole x columns, y ascending."""
        xs, ys = [0.0, 1.0, 2.0], [10.0, 20.0]
        inline, chunked = [], []
        ShmooRunner(lambda x, y: inline.append((x, y)) is None).run(
            xs, ys)
        ShmooRunner(lambda x, y: chunked.append((x, y)) is None).run(
            xs, ys, executor=Executor("serial", chunk_size=4))
        assert inline == chunked == [(x, y) for x in xs for y in ys]

    def test_inline_test_exception_propagates_as_itself(self):
        def broken(x, y):
            raise KeyError("instrument offline")

        with pytest.raises(KeyError, match="instrument offline"):
            ShmooRunner(broken).run([0, 1], [0, 1])


class TestProgress:
    def test_serial_progress_per_cell(self):
        seen = []
        ShmooRunner(parity_test).run(
            [0, 1, 2], [0, 1],
            progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i, 6) for i in range(1, 7)]

    def test_parallel_progress_reaches_total(self):
        seen = []
        ShmooRunner(parity_test).run(
            [0, 1, 2, 3], [0, 1, 2],
            executor=Executor(backend="thread", max_workers=2,
                              chunk_size=3),
            progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (12, 12)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


class TestAbort:
    def test_serial_abort_marks_unevaluated(self):
        calls = {"n": 0}

        def abort():
            calls["n"] += 1
            return calls["n"] > 5

        result = ShmooRunner(parity_test).run(
            [0, 1, 2, 3], [0, 1, 2], should_abort=abort)
        assert result.aborted
        assert int(result.evaluated.sum()) == 5
        # Unevaluated cells read as fails but are distinguishable.
        assert not result.passes[~result.evaluated].any()

    def test_parallel_abort_yields_partial_grid(self):
        result = ShmooRunner(parity_test).run(
            [0, 1, 2, 3], [0, 1, 2],
            executor=Executor(backend="thread", max_workers=2),
            should_abort=lambda: True)
        assert result.aborted
        assert not result.evaluated.all()

    def test_completed_run_evaluated_is_full_mask(self):
        result = ShmooRunner(parity_test).run([0, 1], [0, 1])
        # Always a mask, never None — consumers stop special-casing.
        assert isinstance(result.evaluated, np.ndarray)
        assert result.evaluated.all()
        assert result.complete
        assert not result.aborted

    def test_abort_counts_cells_not_grid_size(self):
        calls = {"n": 0}

        def abort():
            calls["n"] += 1
            return calls["n"] > 3

        with telemetry.use_registry() as reg:
            ShmooRunner(parity_test).run([0, 1, 2], [0, 1, 2],
                                         should_abort=abort)
        counters = reg.to_dict()["counters"]
        assert counters["shmoo.cells"] == 3
        assert counters["shmoo.cells_passed"] \
            + counters["shmoo.cells_failed"] == 3
