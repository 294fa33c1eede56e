"""Folding a waveform into an eye diagram.

An eye diagram overlays every bit cell of a long record onto a single
one-UI (or two-UI) window, exactly as a sampling oscilloscope
triggered by the bit clock does.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import MeasurementError
from repro.signal.waveform import Waveform, WaveformBatch
from repro._units import unit_interval_ps


class EyeDiagram:
    """An eye diagram: folded samples plus folded threshold crossings.

    The per-row folds of :meth:`from_batch` and :meth:`from_waveform`
    keep no phase per sample: each is stamped with its sample grid
    ``(offset, dt)`` (the first sample's time from the fold origin,
    and the spacing), which determines every phase. :attr:`phases`
    builds the array from the grid on first read, and
    :meth:`samples_near_phase` reads only the phases near its window.
    Diagrams built by the constructor, merged folds, and diagrams
    unpickled from a cache written before the stamp existed keep
    explicit phases.

    Parameters
    ----------
    phases:
        Sample times folded into [0, span_ui) UI, in ps.
    voltages:
        Sample voltages corresponding to *phases*.
    unit_interval:
        The bit period in ps.
    crossing_phases:
        Threshold-crossing times folded into [0, 1) UI, in ps.
    threshold:
        The crossing threshold voltage used.
    """

    #: Explicit sample phases; None until first read on a fold that
    #: is stamped with its grid.
    _phases: Optional[np.ndarray] = None
    #: ``(offset, dt)`` of a grid-stamped fold: sample *i* sits at
    #: ``offset + dt*i`` ps from the fold origin. None means explicit
    #: phases.
    _grid: Optional[Tuple[float, float]] = None

    def __init__(self, phases: np.ndarray, voltages: np.ndarray,
                 unit_interval: float, crossing_phases: np.ndarray,
                 threshold: float):
        if len(phases) != len(voltages):
            raise MeasurementError("phases and voltages length mismatch")
        self._set_fields(voltages, unit_interval, crossing_phases,
                         threshold)
        self._phases = np.asarray(phases, dtype=np.float64)

    @classmethod
    def _on_grid(cls, grid: Tuple[float, float], voltages: np.ndarray,
                 unit_interval: float, crossing_phases: np.ndarray,
                 threshold: float) -> "EyeDiagram":
        """A fold stamped with its sample *grid* instead of phases."""
        eye = cls.__new__(cls)
        eye._set_fields(voltages, unit_interval, crossing_phases,
                        threshold)
        eye._grid = grid
        return eye

    def _set_fields(self, voltages, unit_interval, crossing_phases,
                    threshold) -> None:
        if unit_interval <= 0.0:
            raise MeasurementError("unit interval must be positive")
        self.voltages = np.asarray(voltages, dtype=np.float64)
        self.unit_interval = float(unit_interval)
        self.crossing_phases = np.asarray(crossing_phases, dtype=np.float64)
        self.threshold = float(threshold)

    def __setstate__(self, state):
        # Diagrams pickled before phases became a property (an
        # existing disk cache) hold them as "phases", the newest of
        # those beside a "_period" stamp: keep them as explicit
        # phases, read with the full mask.
        state = dict(state)
        if "phases" in state:
            state["_phases"] = state.pop("phases")
        state.pop("_period", None)
        self.__dict__.update(state)

    @property
    def phases(self) -> np.ndarray:
        """Sample times folded into [0, span_ui) UI, in ps.

        The constructor's array, or for a grid-stamped fold
        :func:`repro.eye._binning.fold_phases` of its grid (bit for
        bit the array the fold would have stored), built on first
        read and kept. Read-only.
        """
        phases = self._phases
        if phases is None:
            from repro.eye._binning import fold_phases

            offset, dt = self._grid
            phases = self._phases = fold_phases(
                offset, dt, len(self.voltages), self.unit_interval)
        return phases

    @classmethod
    def from_waveform(cls, waveform: Waveform, rate_gbps: float,
                      threshold: Optional[float] = None,
                      t_first_bit: float = 0.0,
                      discard_ui: int = 1) -> "EyeDiagram":
        """Fold *waveform* into an eye at *rate_gbps*.

        The fold is one row of :meth:`from_batch` and is
        allocation-lean: the analysis window is a no-copy view of the
        record, and the diagram is stamped with its sample grid
        instead of a phase per sample, so
        :meth:`samples_near_phase` reads only the phases near its
        window (one period of them when the fold tiles).

        This is the stage's cached route: folds are memoized in the
        active artifact cache (:func:`repro.cache.active`) keyed
        ``(waveform token, rate, threshold, origin, discard)``; hits
        return the stored diagram itself, which, like every
        :class:`EyeDiagram`, must be treated as immutable.

        Parameters
        ----------
        threshold:
            Crossing threshold; default is the waveform midpoint.
        t_first_bit:
            Time at which bit cell 0 starts.
        discard_ui:
            Leading/trailing unit intervals to exclude (pattern
            start-up and shut-down edges).

        Raises
        ------
        MeasurementError
            If the record (after discarding) spans under two UIs,
            including an empty record.
        """
        from repro import cache as _cache

        def fold():
            return cls.from_batch(
                WaveformBatch(waveform.values[None], dt=waveform.dt,
                              t0=waveform.t0),
                rate_gbps, threshold, t_first_bit, discard_ui)[0]

        store = _cache.active()
        if store.enabled:
            key = _cache.canonical_digest(
                "eye.fold", waveform.cache_token(), float(rate_gbps),
                threshold, float(t_first_bit), int(discard_ui),
            )
            return store.get_or_compute(key, fold)
        return fold()

    @classmethod
    def from_batch(cls, batch: WaveformBatch, rate_gbps: float,
                   threshold: Optional[float] = None,
                   t_first_bit: float = 0.0, discard_ui: int = 1,
                   merge: bool = False):
        """Fold every channel of *batch* at *rate_gbps* at once.

        The analysis window, fold phases, and threshold crossings
        are computed for the whole ``(channels, samples)`` block in
        one vectorized pass (rows share one time grid, so the window
        indices and phase fold are computed once);
        :meth:`from_waveform` is the one-row case.

        A batch call always folds: it never consults the artifact
        cache, even inside a ``use_cache`` scope.
        :meth:`from_waveform` is the cached route.

        Parameters
        ----------
        merge:
            False (default) returns one :class:`EyeDiagram` per
            channel, each *bit-identical* to folding that row
            through :meth:`from_waveform` (per-row midpoint
            thresholds when *threshold* is None). True returns a
            single merged diagram over every channel's samples and
            crossings — the all-channels color-graded eye — using
            one shared threshold (the batch-global midpoint when
            None).
        threshold, t_first_bit, discard_ui:
            As for :meth:`from_waveform`.
        """
        from repro.eye._binning import fold_phases

        tel = telemetry.active()
        with tel.span("eye.fold_batch"):
            ui = unit_interval_ps(rate_gbps)
            if merge and not batch.n_channels:
                raise MeasurementError("cannot merge an empty batch")
            t_lo = t_first_bit + discard_ui * ui
            t_hi = batch.t_end - discard_ui * ui
            if t_hi - t_lo < 2.0 * ui:
                raise MeasurementError(
                    "record too short for an eye diagram at this rate"
                )
            dt = batch.dt
            i0 = max(0, int(np.ceil((t_lo - batch.t0) / dt)))
            i1 = min(batch.n_samples - 1,
                     int(np.floor((t_hi - batch.t0) / dt)))
            if i1 < i0:
                raise MeasurementError(
                    "record too short for an eye diagram at this rate"
                )
            values = batch.values[:, i0:i1 + 1]
            t0w = batch.t0 + i0 * dt
            offset = t0w - t_first_bit
            if threshold is not None:
                thr = np.full(batch.n_channels, float(threshold))
            elif merge:
                thr = np.full(batch.n_channels,
                              0.5 * (float(batch.values.min())
                                     + float(batch.values.max())))
            else:
                # Per-row midpoint of the full record, not only of
                # the analysis window.
                thr = 0.5 * (batch.values.min(axis=1)
                             + batch.values.max(axis=1))

            # Vectorized threshold_crossings over every row.
            from repro.signal import _kernels

            rows, cols, frac = _kernels.eye_fold(values, thr)
            crossings = (t0w + dt * (cols + frac)) - t_first_bit
            crossing_phases = np.mod(crossings, ui)

            tel.counter("eye.folds").inc(batch.n_channels)
            tel.counter("eye.samples_folded").inc(values.size)
            tel.counter("eye.crossings").inc(len(crossing_phases))
            if merge:
                phases = fold_phases(offset, dt, values.shape[1], ui)
                return cls(np.tile(phases, batch.n_channels),
                           values.reshape(-1), ui, crossing_phases,
                           float(thr[0]))
            counts = np.bincount(rows, minlength=batch.n_channels)
            parts = np.split(crossing_phases,
                             np.cumsum(counts)[:-1])
            return [
                cls._on_grid((offset, dt), values[c], ui, parts[c],
                             float(thr[c]))
                for c in range(batch.n_channels)
            ]

    @property
    def n_samples(self) -> int:
        """Number of folded voltage samples."""
        return len(self.voltages)

    @property
    def n_crossings(self) -> int:
        """Number of folded threshold crossings."""
        return len(self.crossing_phases)

    def _mean_crossing_phase(self) -> float:
        """Circular mean of the crossing phases, ps in [-UI/2, UI/2].

        Raises
        ------
        MeasurementError
            If the eye has no threshold crossings.
        """
        if self.n_crossings == 0:
            raise MeasurementError("eye has no threshold crossings")
        ui = self.unit_interval
        angles = 2.0 * np.pi * self.crossing_phases / ui
        mean_angle = np.arctan2(np.mean(np.sin(angles)),
                                np.mean(np.cos(angles)))
        return (mean_angle / (2.0 * np.pi)) * ui

    def crossing_deviations(self) -> np.ndarray:
        """Crossing-time deviations (ps) about the circular mean.

        Folds wrap-around: a crossing nominally at phase 0 can fold
        to just under one UI. Deviations are computed circularly so
        both tails land on the same cluster.

        Raises
        ------
        MeasurementError
            If the eye has no threshold crossings.
        """
        ui = self.unit_interval
        dev = self.crossing_phases - self._mean_crossing_phase()
        return np.mod(dev + ui / 2.0, ui) - ui / 2.0

    def crossover_phase(self) -> float:
        """Mean crossover position in ps within [0, UI).

        Raises
        ------
        MeasurementError
            If the eye has no threshold crossings.
        """
        ui = self.unit_interval
        return float(np.mod(self._mean_crossing_phase(), ui))

    def samples_near_phase(self, phase: float,
                           half_window: float) -> np.ndarray:
        """Voltages sampled within +/- *half_window* ps of *phase*.

        The window is circular in the UI. The samples come back in
        record order: exactly ``voltages[mask]`` for the mask
        ``|mod(phases - phase + UI/2, UI) - UI/2| <= half_window``.

        A grid-stamped fold (the per-row diagrams of
        :meth:`from_waveform` and :meth:`from_batch`) never builds
        every phase. When the fold tiles with period *k*
        (:func:`repro.eye._binning.fold_period`), the mask is
        evaluated on one period of phases and the selected columns
        are gathered from a ``(periods, k)`` view of the voltages
        plus the partial period at the end. Otherwise it is
        evaluated on the candidate samples of each UI cycle (see
        :func:`_window_indices`). Either way the phases come from
        :func:`repro.eye._binning.grid_phases`, bit for bit the
        fold's own, so the samples and their order are the same.
        Any other diagram evaluates the mask over every sample.
        """
        from repro.eye._binning import fold_period, grid_phases

        ui = self.unit_interval
        if self._grid is None:
            return self.voltages[_near(self.phases, phase, half_window,
                                       ui)]
        offset, dt = self._grid
        n = len(self.voltages)
        k = fold_period(dt, n, ui)
        if k is not None:
            tile = grid_phases(offset, dt, np.arange(k), ui)
            cols = np.flatnonzero(_near(tile, phase, half_window, ui))
            n_full = n // k
            body = self.voltages[:n_full * k].reshape(n_full, k)[:, cols]
            tail = self.voltages[n_full * k:]
            return np.concatenate(
                (body.ravel(), tail[cols[cols < len(tail)]]))
        index = _window_indices(offset, dt, n, ui, phase, half_window)
        near = _near(grid_phases(offset, dt, index, ui), phase,
                     half_window, ui)
        return self.voltages[index[near]]

    def histogram2d(self, n_time_bins: int = 64,
                    n_volt_bins: int = 64) -> Tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
        """2-D density (time x voltage), like a scope's color-graded eye.

        Delegates to :func:`repro.eye._binning.density_grid` — the
        binning convention shared with ``render_eye_ascii`` and the
        streaming accumulator, including pinned ``float64`` outputs
        for an empty eye.
        """
        from repro.eye._binning import density_grid

        return density_grid(self.phases, self.voltages,
                            self.unit_interval, n_time_bins,
                            n_volt_bins)


def _near(phases: np.ndarray, phase: float, half_window: float,
          ui: float) -> np.ndarray:
    """The phase-window mask of :meth:`EyeDiagram.samples_near_phase`."""
    d = np.mod(phases - phase + ui / 2.0, ui) - ui / 2.0
    return np.abs(d) <= half_window


def _window_indices(offset: float, dt: float, n: int, ui: float,
                    phase: float, half_window: float) -> np.ndarray:
    """Ascending sample indices that can fall in a phase window.

    Sample *i* of a fold on the grid ``(offset, dt)`` sits at
    ``offset + dt*i``. For each UI cycle *m* the candidates are the
    samples whose time lies within *half_window* of
    ``phase + m*ui``, widened by one sample at each end: far more
    than the rounding of the phase arithmetic can move a sample, so
    every sample the exact mask keeps is among them. Cycles do not
    share a candidate.

    A window half the UI wide or wider (where the candidates would
    be most of the record), a negative or non-finite one, and a
    *phase* more than two UIs from zero (where the mask's own
    rounding grows with the phase) return every index.
    """
    if not (0.0 <= 4.0 * half_window < ui and abs(phase) <= 2.0 * ui):
        return np.arange(n)
    reach = half_window + dt
    cycles = np.arange(np.floor((offset - phase - reach) / ui),
                       np.ceil((offset + dt * (n - 1) - phase + reach)
                               / ui) + 1.0)
    centers = phase + cycles * ui - offset
    lo = np.clip(np.ceil((centers - half_window) / dt) - 1.0, 0, n)
    hi = np.clip(np.floor((centers + half_window) / dt) + 2.0, 0, n)
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    lo[1:] = np.maximum(lo[1:], hi[:-1])
    lengths = np.maximum(hi - lo, 0)
    first = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(lo - first, lengths)
