"""Tests for adaptive shmoo boundary refinement.

The contract: on boundary-shaped (monotone / contiguous) pass
regions — the shape of every margin sweep in the paper's Figures
10 and 11 — ``run_adaptive`` reproduces the exhaustive grid exactly
while evaluating a fraction of the cells.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor


def monotone_margin(x, y):
    """Pass region below a sloped boundary (rate-vs-margin shape)."""
    return y <= 0.8 - 0.015 * x


def stripe(x, y):
    """Contiguous vertical pass band."""
    return 10.0 <= x <= 20.0


def disk(x, y):
    """Convex pass region centered mid-grid."""
    return (x - 16.0) ** 2 + (y - 16.0) ** 2 <= 81.0


GRID_X = list(np.linspace(0.0, 31.0, 32))
GRID_Y = list(np.linspace(0.0, 31.0, 32))


class TestExactness:
    @pytest.mark.parametrize("test_fn",
                             (monotone_margin, stripe, disk),
                             ids=("monotone", "stripe", "disk"))
    def test_matches_exhaustive_grid(self, test_fn):
        ys = GRID_Y if test_fn is not monotone_margin \
            else list(np.linspace(0.0, 1.0, 32))
        runner = ShmooRunner(test_fn)
        full = runner.run(GRID_X, ys)
        adaptive = runner.run_adaptive(GRID_X, ys)
        assert np.array_equal(full.passes, adaptive.passes)
        assert adaptive.complete
        assert not adaptive.aborted

    def test_evaluates_quarter_of_cells_or_less(self):
        runner = ShmooRunner(monotone_margin)
        ys = list(np.linspace(0.0, 1.0, 32))
        adaptive = runner.run_adaptive(GRID_X, ys)
        frac = adaptive.evaluated.mean()
        assert frac <= 0.25
        # Inferred cells are marked not-evaluated yet carry verdicts.
        full = runner.run(GRID_X, ys)
        inferred = ~adaptive.evaluated
        assert inferred.any()
        assert np.array_equal(full.passes[inferred],
                              adaptive.passes[inferred])

    def test_uniform_plane_is_nearly_free(self):
        calls = {"n": 0}

        def always_pass(x, y):
            calls["n"] += 1
            return True

        result = ShmooRunner(always_pass).run_adaptive(GRID_X, GRID_Y)
        assert result.passes.all()
        assert calls["n"] == int(result.evaluated.sum())
        assert calls["n"] < 32 * 32 * 0.05

    def test_smaller_coarse_step_catches_fine_features(self):
        def thin_band(x, y):
            return 14.0 <= y <= 17.0

        runner = ShmooRunner(thin_band)
        full = runner.run(GRID_X, GRID_Y)
        fine = runner.run_adaptive(GRID_X, GRID_Y, coarse_step=2)
        assert np.array_equal(full.passes, fine.passes)


class TestExecutors:
    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_backend_grids_identical(self, backend):
        runner = ShmooRunner(disk)
        full = runner.run(GRID_X, GRID_Y)
        ex = Executor(backend=backend, max_workers=2)
        adaptive = runner.run_adaptive(GRID_X, GRID_Y, executor=ex)
        assert np.array_equal(full.passes, adaptive.passes)
        assert adaptive.complete


class TestControlFlow:
    def test_abort_returns_partial(self):
        calls = {"n": 0}

        def abort():
            calls["n"] += 1
            return calls["n"] > 10

        result = ShmooRunner(disk).run_adaptive(
            GRID_X, GRID_Y, should_abort=abort)
        assert result.aborted
        assert not result.complete
        assert 0 < int(result.evaluated.sum()) <= 11

    def test_progress_reports_evaluated_cells(self):
        """Inline, one tick per evaluated cell, counted against the
        whole grid."""
        seen = []
        result = ShmooRunner(disk).run_adaptive(
            GRID_X, GRID_Y,
            progress=lambda done, total: seen.append((done, total)))
        n_eval = int(result.evaluated.sum())
        assert n_eval < 32 * 32
        assert seen == [(i, 32 * 32) for i in range(1, n_eval + 1)]

    def test_bad_coarse_step_rejected(self):
        runner = ShmooRunner(disk)
        with pytest.raises(ConfigurationError):
            runner.run_adaptive(GRID_X, GRID_Y, coarse_step=3)
        with pytest.raises(ConfigurationError):
            runner.run_adaptive(GRID_X, GRID_Y, coarse_step=1)

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            ShmooRunner(disk).run_adaptive([], GRID_Y)

    def test_degenerate_axis_falls_back_to_exhaustive(self):
        result = ShmooRunner(stripe).run_adaptive(GRID_X, [5.0])
        assert result.complete
        assert result.evaluated.all()

    def test_filled_cells_counted_in_telemetry(self):
        with telemetry.use_registry() as reg:
            ShmooRunner(disk).run_adaptive(GRID_X, GRID_Y)
        counters = reg.to_dict()["counters"]
        assert counters["shmoo.cells_filled"] > 0
        assert counters["shmoo.cells"] \
            + counters["shmoo.cells_filled"] == 32 * 32
        assert counters["shmoo.runs"] == 1
