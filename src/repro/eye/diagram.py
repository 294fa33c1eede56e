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

    #: Samples per period of the tiled phase fold
    #: (:func:`repro.eye._binning.fold_period`); the per-row folds of
    #: :meth:`from_batch` and :meth:`from_waveform` are stamped with
    #: it. None (the class default) means no known period: every
    #: diagram built by the constructor, every merged fold, and every
    #: diagram unpickled from a cache written before the stamp
    #: existed.
    _period: Optional[int] = None

    def __init__(self, phases: np.ndarray, voltages: np.ndarray,
                 unit_interval: float, crossing_phases: np.ndarray,
                 threshold: float):
        if len(phases) != len(voltages):
            raise MeasurementError("phases and voltages length mismatch")
        if unit_interval <= 0.0:
            raise MeasurementError("unit interval must be positive")
        self.phases = np.asarray(phases, dtype=np.float64)
        self.voltages = np.asarray(voltages, dtype=np.float64)
        self.unit_interval = float(unit_interval)
        self.crossing_phases = np.asarray(crossing_phases, dtype=np.float64)
        self.threshold = float(threshold)

    @classmethod
    def from_waveform(cls, waveform: Waveform, rate_gbps: float,
                      threshold: Optional[float] = None,
                      t_first_bit: float = 0.0,
                      discard_ui: int = 1,
                      registry=None, cache=None) -> "EyeDiagram":
        """Fold *waveform* into an eye at *rate_gbps*.

        The fold is one row of :meth:`from_batch` and is
        allocation-lean: the analysis window is a no-copy view of the
        record and sample phases come from
        :func:`repro.eye._binning.fold_phases` (tiled, not an O(n)
        ``mod``, whenever the UI is commensurate with the sample
        grid). A tiled fold carries its period, so
        :meth:`samples_near_phase` reads one period of phases.

        Parameters
        ----------
        threshold:
            Crossing threshold; default is the waveform midpoint.
        t_first_bit:
            Time at which bit cell 0 starts.
        discard_ui:
            Leading/trailing unit intervals to exclude (pattern
            start-up and shut-down edges).
        registry:
            Optional injected telemetry registry.
        cache:
            Optional injected :class:`repro.cache.ArtifactCache`;
            defaults to the module-level active one. Folds are
            memoized keyed ``(waveform token, rate, threshold,
            origin, discard)``; hits return the stored diagram
            itself, which — like every :class:`EyeDiagram` — must be
            treated as immutable.

        Raises
        ------
        MeasurementError
            If the record (after discarding) spans under two UIs,
            including an empty record.
        """
        from repro import cache as _cache

        def fold():
            return cls._fold_batch_impl(
                WaveformBatch(waveform.values[None], dt=waveform.dt,
                              t0=waveform.t0),
                rate_gbps, threshold, t_first_bit, discard_ui,
                registry, False)[0]

        store = _cache.resolve(cache)
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
                   merge: bool = False, registry=None, cache=None):
        """Fold every channel of *batch* at *rate_gbps* at once.

        The analysis window, fold phases, and threshold crossings
        are computed for the whole ``(channels, samples)`` block in
        one vectorized pass (rows share one time grid, so the window
        indices and phase fold are computed once);
        :meth:`from_waveform` is the one-row case.

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
        threshold, t_first_bit, discard_ui, registry, cache:
            As for :meth:`from_waveform`. Per-channel folds are
            memoized per row under the *same* keys as the
            single-channel path; merged folds are not cached.
        """
        from repro import cache as _cache

        store = _cache.resolve(cache)
        if merge or not store.enabled or not batch.n_channels:
            return cls._fold_batch_impl(batch, rate_gbps, threshold,
                                        t_first_bit, discard_ui,
                                        registry, merge)
        keys = [
            _cache.canonical_digest(
                "eye.fold", tok, float(rate_gbps), threshold,
                float(t_first_bit), int(discard_ui),
            )
            for tok in batch.cache_tokens()
        ]

        def fold(missing):
            sub = WaveformBatch(batch.values[missing], dt=batch.dt,
                                t0=batch.t0)
            eyes = cls._fold_batch_impl(sub, rate_gbps, threshold,
                                        t_first_bit, discard_ui,
                                        registry, False)
            # Own the voltages: a view would keep the sub-batch alive.
            return [cls._stamped(eye.phases, eye.voltages.copy(),
                                 eye.unit_interval, eye.crossing_phases,
                                 eye.threshold, eye._period)
                    for eye in eyes]

        return _cache.get_or_compute_rows(store, keys, fold)

    @classmethod
    def _fold_batch_impl(cls, batch: WaveformBatch, rate_gbps: float,
                         threshold: Optional[float],
                         t_first_bit: float, discard_ui: int,
                         registry, merge: bool):
        from repro.eye._binning import fold_period, fold_phases

        tel = telemetry.resolve(registry)
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
            phases = fold_phases(t0w - t_first_bit, dt,
                                 values.shape[1], ui)
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
                return cls(np.tile(phases, batch.n_channels),
                           values.reshape(-1), ui, crossing_phases,
                           float(thr[0]))
            counts = np.bincount(rows, minlength=batch.n_channels)
            parts = np.split(crossing_phases,
                             np.cumsum(counts)[:-1])
            period = fold_period(dt, values.shape[1], ui)
            return [
                cls._stamped(phases, values[c], ui, parts[c],
                             float(thr[c]), period)
                for c in range(batch.n_channels)
            ]

    @classmethod
    def _stamped(cls, phases, voltages, unit_interval, crossing_phases,
                 threshold, period: Optional[int]) -> "EyeDiagram":
        """A diagram whose *phases* repeat every *period* samples."""
        eye = cls(phases, voltages, unit_interval, crossing_phases,
                  threshold)
        eye._period = period
        return eye

    @property
    def n_samples(self) -> int:
        """Number of folded voltage samples."""
        return len(self.phases)

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

        A fold stamped with its period *k* (the per-row diagrams of
        :meth:`from_waveform` and :meth:`from_batch` whenever the
        fold tiles) evaluates that mask on the first *k* phases only,
        then gathers the selected columns from a ``(periods, k)``
        view of the voltages plus the partial period at the end.
        Tiled phases repeat bit for bit, so the samples and their
        order are the same, without O(n) temporaries. Any other
        diagram evaluates the mask over every sample.
        """
        ui = self.unit_interval
        k = self._period
        phases = self.phases if k is None else self.phases[:k]
        d = np.mod(phases - phase + ui / 2.0, ui) - ui / 2.0
        near = np.abs(d) <= half_window
        if k is None:
            return self.voltages[near]
        cols = np.flatnonzero(near)
        n_full = len(self.voltages) // k
        body = self.voltages[:n_full * k].reshape(n_full, k)[:, cols]
        tail = self.voltages[n_full * k:]
        return np.concatenate((body.ravel(), tail[cols[cols < len(tail)]]))

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
