"""2-D shmoo plots: pass/fail over a parameter plane.

The characterization workhorse: sweep two knobs (rate x swing, rate
x strobe position, ...) and plot the pass region. The paper's
Figures 10/11 margining plus the mini-tester's strobe scan are 1-D
cuts of exactly this.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import cache as artifact_cache
from repro import telemetry
from repro.errors import ConfigurationError
from repro.parallel import CallbackGuard, Executor


def _evaluate_cell(test: Callable[[float, float], bool],
                   item: Tuple[float, float], seed) -> bool:
    """One ``(x, y)`` cell through the pass/fail callable.

    Module-level (not a method) so the process backend can pickle it
    via :func:`functools.partial`.
    """
    x, y = item
    return bool(test(x, y))


@dataclasses.dataclass(frozen=True)
class ShmooResult:
    """One completed shmoo.

    Attributes
    ----------
    x_values, y_values:
        The swept axes.
    passes:
        Boolean grid, shape (len(y_values), len(x_values)); row 0
        is the first y value.
    x_name, y_name:
        Axis labels.
    evaluated:
        Boolean grid of cells actually tested — always a mask, never
        None (constructing with None normalizes to all-True for
        callers that predate adaptive sweeps). An exhaustive sweep
        evaluates everything; an adaptive one leaves inferred cells
        False here while still filling :attr:`passes`.
    complete:
        True when the sweep covered the whole grid (every cell
        evaluated or inferred); False only for aborted runs, where
        uncovered cells read as fails in :attr:`passes`.
    """

    x_values: Sequence[float]
    y_values: Sequence[float]
    passes: np.ndarray
    x_name: str = "x"
    y_name: str = "y"
    evaluated: Optional[np.ndarray] = None
    complete: bool = True

    def __post_init__(self):
        if self.evaluated is None:
            object.__setattr__(
                self, "evaluated",
                np.ones(np.shape(self.passes), dtype=bool),
            )

    @property
    def aborted(self) -> bool:
        """True when the sweep stopped before covering the grid."""
        return not self.complete

    @property
    def pass_fraction(self) -> float:
        """Fraction of the plane that passes."""
        return float(np.mean(self.passes))

    def pass_region_contiguous_rows(self) -> bool:
        """True when every row's pass region is one contiguous run
        (the signature of a clean eye/margin boundary)."""
        for row in self.passes:
            idx = np.flatnonzero(row)
            if len(idx) and not np.array_equal(
                    idx, np.arange(idx[0], idx[-1] + 1)):
                return False
        return True

    def to_dict(self) -> dict:
        """Wire-ready plain-dict form: arrays become nested lists.

        Round-trips exactly through :meth:`from_dict` (grids are
        boolean, so list conversion is lossless) — the form the RPC
        service streams and returns.
        """
        return {
            "x_values": [float(x) for x in self.x_values],
            "y_values": [float(y) for y in self.y_values],
            "passes": np.asarray(self.passes, dtype=bool).tolist(),
            "x_name": self.x_name,
            "y_name": self.y_name,
            "evaluated": np.asarray(self.evaluated,
                                    dtype=bool).tolist(),
            "complete": bool(self.complete),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShmooResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            x_values=tuple(float(x) for x in data["x_values"]),
            y_values=tuple(float(y) for y in data["y_values"]),
            passes=np.array(data["passes"], dtype=bool),
            x_name=data.get("x_name", "x"),
            y_name=data.get("y_name", "y"),
            evaluated=np.array(data["evaluated"], dtype=bool),
            complete=bool(data.get("complete", True)),
        )

    def render(self, pass_char: str = "P",
               fail_char: str = ".") -> str:
        """ASCII plot, first y value at the bottom row."""
        lines = [f"shmoo: {self.y_name} (rows) vs {self.x_name} "
                 f"(cols)"]
        for yi in range(len(self.y_values) - 1, -1, -1):
            row = "".join(pass_char if p else fail_char
                          for p in self.passes[yi])
            lines.append(f"{self.y_values[yi]:>8.3g} |{row}|")
        lines.append(" " * 9 + "^" + f" {self.x_values[0]:g} .. "
                     f"{self.x_values[-1]:g} {self.x_name}")
        return "\n".join(lines)


class _Sweep:
    """One sweep's state: axes, grids, guarded hooks and executor.

    :meth:`evaluate` is the one body that runs cells, whichever entry
    point lists them; :meth:`result` is the one step that records the
    ``shmoo.*`` counters and builds the :class:`ShmooResult`.
    """

    def __init__(self, runner: "ShmooRunner", x_values, y_values,
                 progress, should_abort, executor):
        self.x_values = list(x_values)
        self.y_values = list(y_values)
        if not self.x_values or not self.y_values:
            raise ConfigurationError("both axes need values")
        guard = CallbackGuard(progress, should_abort)
        if guard.active:
            # A raising hook aborts the sweep cleanly (partial grid,
            # complete=False) instead of propagating mid-sweep.
            progress = guard.progress if progress is not None else None
            should_abort = guard.should_abort
        self.progress = progress
        self.should_abort = should_abort
        self.executor = executor
        self.runner = runner
        shape = (len(self.y_values), len(self.x_values))
        self.passes = np.zeros(shape, dtype=bool)
        self.evaluated = np.zeros(shape, dtype=bool)

    def evaluate(self, cells: Sequence[Tuple[int, int]]) -> bool:
        """Test ``(yi, xi)`` cells into the grids; True when aborted.

        Inline without an executor (a checkpoint and a progress tick
        per cell), else one :meth:`Executor.run` over per-cell items
        (a tick per finished chunk). Progress counts every cell the
        sweep has evaluated, against the whole grid.
        """
        passes, evaluated = self.passes, self.evaluated
        progress, should_abort = self.progress, self.should_abort
        done, total = int(evaluated.sum()), passes.size
        if self.executor is None:
            test, xs, ys = self.runner.test, self.x_values, self.y_values
            for yi, xi in cells:
                if should_abort is not None and should_abort():
                    return True
                passes[yi, xi] = bool(test(xs[xi], ys[yi]))
                evaluated[yi, xi] = True
                done += 1
                if progress is not None:
                    progress(done, total)
            return False

        def on_chunk(n_done, _n_items, _indices) -> None:
            progress(done + n_done, total)

        outcome = self.executor.run(
            functools.partial(_evaluate_cell, self.runner.test),
            [(self.x_values[xi], self.y_values[yi]) for yi, xi in cells],
            progress=on_chunk if progress is not None else None,
            should_abort=should_abort,
        )
        for (yi, xi), ok in zip(cells, outcome.results):
            if ok is not None:
                passes[yi, xi] = ok
                evaluated[yi, xi] = True
        return outcome.aborted

    def result(self, aborted: bool,
               filled: Optional[int] = None) -> ShmooResult:
        """Count the sweep into telemetry and return its result.

        *filled* counts the cells an adaptive sweep inferred without
        evaluating (``shmoo.cells_filled``).
        """
        tel = telemetry.active()
        n_eval = int(self.evaluated.sum())
        n_pass = int(self.passes[self.evaluated].sum())
        tel.counter("shmoo.runs").inc()
        tel.counter("shmoo.cells").inc(n_eval)
        tel.counter("shmoo.cells_passed").inc(n_pass)
        tel.counter("shmoo.cells_failed").inc(n_eval - n_pass)
        if filled is not None:
            tel.counter("shmoo.cells_filled").inc(filled)
        return ShmooResult(
            x_values=tuple(self.x_values),
            y_values=tuple(self.y_values),
            passes=self.passes,
            x_name=self.runner.x_name,
            y_name=self.runner.y_name,
            evaluated=self.evaluated,
            complete=not aborted,
        )


class ShmooRunner:
    """Runs a pass/fail callable over a 2-D grid.

    Parameters
    ----------
    test:
        Callable ``f(x, y) -> bool``.
    x_name, y_name:
        Axis labels for rendering.
    cache:
        Optional :class:`repro.cache.ArtifactCache` that each sweep
        opens as its :func:`~repro.cache.use_cache` scope, so cells
        sharing stimulus stages (same PRBS stream, same rendered
        pattern at a given rate) reuse them. Passing it is the same
        as calling the sweep inside that scope, and it reaches an
        executor's chunks as any scope does: serial and thread
        chunks share the object, each ``process`` chunk gets an
        empty clone (give the cache a ``disk_path`` to share entries
        across chunks), and ``remote`` workers read through the
        pool's tier.
    """

    def __init__(self, test: Callable[[float, float], bool],
                 x_name: str = "x", y_name: str = "y",
                 cache=None):
        self.test = test
        self.x_name = x_name
        self.y_name = y_name
        self.cache = cache

    @contextlib.contextmanager
    def _sweep(self, span: str, x_values, y_values, progress,
               should_abort, executor):
        """A new sweep, inside this runner's cache scope (when set)
        and the telemetry *span*."""
        sweep = _Sweep(self, x_values, y_values, progress,
                       should_abort, executor)
        scope = contextlib.nullcontext() if self.cache is None \
            else artifact_cache.use_cache(self.cache)
        with scope, telemetry.active().span(span):
            yield sweep

    def run(self, x_values: Sequence[float],
            y_values: Sequence[float], *,
            progress: Optional[Callable[[int, int], None]] = None,
            should_abort: Optional[Callable[[], bool]] = None,
            executor: Optional[Executor] = None) -> ShmooResult:
        """Evaluate every cell of the grid, inline or on an executor.

        Cells run x-major, inline and on every executor backend:
        the whole first x column, y ascending, then the next column.

        Parameters
        ----------
        progress:
            ``progress(cells_done, cells_total)`` fired as cells
            complete (per cell inline; per finished chunk when an
            executor runs the sweep).
        should_abort:
            Polled between cells (inline) or chunks (executor);
            returning True stops the sweep early — unevaluated
            cells are marked in :attr:`ShmooResult.evaluated`.
        executor:
            A :class:`repro.parallel.Executor`; when given, the
            cells run on its backend as one run of per-cell items,
            chunked by its ``chunk_size`` (default: about 4 chunks
            per worker). A chunk size that is a multiple of
            ``len(y_values)`` makes every chunk a run of whole x
            columns; put on x the axis whose cells share cached
            stimulus (the rate, in a rate sweep), so concurrent
            chunks ask the cache for different keys. The process
            backend needs a picklable ``test`` callable. Grids and
            telemetry totals are identical across backends and with
            ``executor=None``.
        """
        with self._sweep("shmoo.run", x_values, y_values, progress,
                         should_abort, executor) as sweep:
            aborted = sweep.evaluate(
                [(yi, xi) for xi in range(len(sweep.x_values))
                 for yi in range(len(sweep.y_values))])
        return sweep.result(aborted)

    # -- adaptive boundary refinement ---------------------------------------

    def run_adaptive(self, x_values: Sequence[float],
                     y_values: Sequence[float], *,
                     coarse_step: int = 8,
                     progress: Optional[Callable[[int, int], None]] = None,
                     should_abort: Optional[Callable[[], bool]] = None,
                     executor: Optional[Executor] = None) -> ShmooResult:
        """Shmoo the grid evaluating only near the pass/fail boundary.

        A coarse lattice (every *coarse_step*-th row/column, plus the
        last of each) is evaluated first. Each coarse block whose
        four corners agree is filled with the corners' verdict
        without evaluating its interior; blocks whose corners
        disagree straddle the boundary and are subdivided at their
        midpoints, recursively, down to single cells. Refinement
        proceeds in waves — every wave's new lattice points are
        evaluated as one batch, inline or as one run on *executor*
        — so the parallel backends stay saturated.

        The returned :attr:`ShmooResult.passes` equals the
        exhaustive sweep's exactly whenever every agreeing coarse
        block is uniform — guaranteed for pass regions that are
        monotone (or per-row/column contiguous) at the coarse scale,
        the shape of every margin boundary in the paper's Figures
        10/11. Pass features smaller than the coarse lattice can be
        missed; shrink *coarse_step* to bound the feature size.
        :attr:`ShmooResult.evaluated` marks the cells actually
        tested — typically 10-25% of the grid — and inferred cells
        show ``evaluated=False`` with ``complete=True``.

        Parameters
        ----------
        coarse_step:
            Initial lattice stride; a power of two >= 2.
        progress:
            ``progress(cells_evaluated, cells_total)`` fired per
            evaluated cell inline, or per finished chunk on an
            executor; the total is the full grid size, which an
            adaptive sweep's count stops short of.
        should_abort:
            Polled between cells (inline) or chunks (executor);
            aborting returns ``complete=False`` with the cells
            covered so far.
        executor:
            Optional :class:`repro.parallel.Executor` used to
            evaluate each wave's batch.
        """
        x_values = list(x_values)
        y_values = list(y_values)
        if coarse_step < 2 or (coarse_step & (coarse_step - 1)) != 0:
            raise ConfigurationError(
                f"coarse_step must be a power of two >= 2, "
                f"got {coarse_step}"
            )
        nx, ny = len(x_values), len(y_values)
        if nx < 2 or ny < 2:
            # Nothing to infer on a degenerate grid (and run rejects
            # an empty axis).
            return self.run(x_values, y_values, progress=progress,
                            should_abort=should_abort,
                            executor=executor)
        with self._sweep("shmoo.run_adaptive", x_values, y_values,
                         progress, should_abort, executor) as sweep:
            passes, evaluated = sweep.passes, sweep.evaluated
            known = np.zeros_like(evaluated)
            xs = sorted(set(range(0, nx, coarse_step)) | {nx - 1})
            ys = sorted(set(range(0, ny, coarse_step)) | {ny - 1})
            aborted = sweep.evaluate([(yi, xi) for yi in ys for xi in xs])
            known |= evaluated
            blocks = [(xa, xb, ya, yb)
                      for ya, yb in zip(ys, ys[1:])
                      for xa, xb in zip(xs, xs[1:])]
            while blocks and not aborted:
                next_blocks = []
                batch = set()
                for x0, x1, y0, y1 in blocks:
                    corner = passes[y0, x0]
                    if (passes[y0, x1] == corner
                            and passes[y1, x0] == corner
                            and passes[y1, x1] == corner):
                        region = (slice(y0, y1 + 1), slice(x0, x1 + 1))
                        fill = ~known[region]
                        passes[region][fill] = corner
                        known[region] = True
                        continue
                    if x1 - x0 <= 1 and y1 - y0 <= 1:
                        # A 2x2 block is all corners: fully evaluated.
                        known[y0:y1 + 1, x0:x1 + 1] = True
                        continue
                    xs_sub = sorted({x0, (x0 + x1) // 2, x1})
                    ys_sub = sorted({y0, (y0 + y1) // 2, y1})
                    for yi in ys_sub:
                        for xi in xs_sub:
                            if not evaluated[yi, xi]:
                                batch.add((yi, xi))
                    next_blocks.extend(
                        (xa, xb, ya, yb)
                        for ya, yb in zip(ys_sub, ys_sub[1:])
                        for xa, xb in zip(xs_sub, xs_sub[1:])
                    )
                if batch:
                    aborted = sweep.evaluate(sorted(batch))
                    known |= evaluated
                blocks = next_blocks
            if not aborted and not known.all():
                # Safety net; the recursion covers every cell, but an
                # explicit sweep of stragglers keeps the completeness
                # invariant independent of the block bookkeeping.
                aborted = sweep.evaluate(
                    [(int(yi), int(xi)) for yi, xi in np.argwhere(~known)])
                known |= evaluated
        # A filled cell may later be evaluated as a finer lattice
        # point (evaluation is ground truth and wins), so the filled
        # count is the covered-but-never-evaluated residue.
        return sweep.result(aborted,
                            filled=int(known.sum()) - int(evaluated.sum()))


def strobe_rate_test(minitester, n_bits: int = 300,
                     seed: int = 1) -> Callable[[float, float], bool]:
    """The mini-tester's canonical shmoo cell as a callable.

    Returns ``test(rate_gbps, strobe_frac) -> bool``: one loopback
    at *rate_gbps* with the sampler strobed at *strobe_frac* of the
    unit interval. Shared by :func:`minitester_strobe_rate_shmoo`
    and the service layer's builtin ``shmoo`` job, so both paths
    evaluate bit-identical cells.
    """
    def test(rate: float, frac: float) -> bool:
        ui = 1_000.0 / rate
        step = minitester.receiver.sampler.resolution
        code = int(round(frac * ui / step))
        code = min(code, minitester.receiver.sampler
                   .delay_line.n_codes - 1)
        result = minitester.run_loopback(
            n_bits=n_bits, seed=seed, rate_gbps=rate,
            strobe_code=code,
        )
        return result.passed

    return test


def minitester_strobe_rate_shmoo(minitester, rates: Sequence[float],
                                 strobe_fracs: Sequence[float],
                                 n_bits: int = 300,
                                 seed: int = 1) -> ShmooResult:
    """The mini-tester's natural shmoo: strobe position vs rate.

    Parameters
    ----------
    strobe_fracs:
        Strobe positions as fractions of the unit interval.
    """
    runner = ShmooRunner(strobe_rate_test(minitester, n_bits=n_bits,
                                          seed=seed),
                         x_name="rate (Gbps)",
                         y_name="strobe (UI)")
    return runner.run(rates, strobe_fracs)
