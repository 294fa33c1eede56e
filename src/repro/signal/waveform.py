"""Uniform-grid analog waveform container.

A :class:`Waveform` is a voltage-versus-time record on a uniform time
grid, the common currency between signal synthesis (``repro.pecl``),
channels (``repro.channel``, ``repro.optics``) and measurement
(``repro.eye``, ``repro.instruments.scope``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


class Waveform:
    """A voltage record on a uniform time grid.

    Parameters
    ----------
    values:
        Voltage samples in volts.
    dt:
        Sample spacing in picoseconds (default 1.0).
    t0:
        Time of the first sample in picoseconds (default 0.0).
    """

    __slots__ = ("_values", "_dt", "_t0", "_cache_token")

    def __init__(self, values: Iterable[float], dt: float = 1.0, t0: float = 0.0):
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self._values = np.asarray(values, dtype=np.float64)
        if self._values.ndim != 1:
            raise ConfigurationError(
                f"waveform values must be 1-D, got shape {self._values.shape}"
            )
        self._dt = float(dt)
        self._t0 = float(t0)
        self._cache_token = None

    # -- basic properties ----------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The voltage samples (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def dt(self) -> float:
        """Sample spacing in picoseconds."""
        return self._dt

    @property
    def t0(self) -> float:
        """Time of the first sample in picoseconds."""
        return self._t0

    @property
    def duration(self) -> float:
        """Span from the first to the last sample, in picoseconds."""
        return (len(self._values) - 1) * self._dt if len(self._values) else 0.0

    @property
    def t_end(self) -> float:
        """Time of the last sample in picoseconds."""
        return self._t0 + self.duration

    def times(self) -> np.ndarray:
        """Return the time axis in picoseconds."""
        return self._t0 + self._dt * np.arange(len(self._values))

    # -- content addressing ------------------------------------------------

    def cache_token(self) -> str:
        """A digest identifying this record for ``repro.cache`` keys.

        The provenance key of the producing stage when one attached
        it (cheap — no rehash of the samples), else a lazily
        computed, memoized content digest of ``(values, dt, t0)``.
        Sound because a ``Waveform`` is externally immutable.
        """
        if self._cache_token is None:
            from repro.cache.keys import canonical_digest

            self._cache_token = canonical_digest(
                "waveform", self._values, self._dt, self._t0,
            )
        return self._cache_token

    def set_cache_token(self, token: str) -> "Waveform":
        """Attach a producing-stage provenance *token*; returns self.

        Called by cache-aware stages (``NRZEncoder.encode``,
        ``LTIChannel.apply``) so downstream keys compose from config
        digests instead of rehashing megasample records.
        """
        self._cache_token = str(token)
        return self

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (
            f"Waveform(n={len(self._values)}, dt={self._dt} ps, "
            f"t0={self._t0} ps, span={self.duration} ps)"
        )

    # -- construction helpers --------------------------------------------

    @classmethod
    def constant(cls, level: float, duration: float, dt: float = 1.0,
                 t0: float = 0.0) -> "Waveform":
        """A flat waveform at *level* volts spanning *duration* ps."""
        n = max(1, int(round(duration / dt)) + 1)
        return cls(np.full(n, float(level)), dt=dt, t0=t0)

    @classmethod
    def from_function(cls, func: Callable[[np.ndarray], np.ndarray],
                      duration: float, dt: float = 1.0,
                      t0: float = 0.0) -> "Waveform":
        """Sample ``func(t)`` (t in ps) over *duration* ps."""
        n = max(1, int(round(duration / dt)) + 1)
        t = t0 + dt * np.arange(n)
        return cls(np.asarray(func(t), dtype=np.float64), dt=dt, t0=t0)

    # -- interpolation / slicing -----------------------------------------

    def value_at(self, t: float) -> float:
        """Linearly interpolated voltage at time *t* ps.

        Times outside the record are clamped to the end samples, which
        models a signal that has settled before/after the record.
        """
        return float(self.values_at(np.asarray([t]))[0])

    def values_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized linear interpolation at times *t* (ps)."""
        idx = (np.asarray(t, dtype=np.float64) - self._t0) / self._dt
        return np.interp(idx, np.arange(len(self._values)), self._values)

    def slice_time(self, t_start: float, t_stop: float) -> "Waveform":
        """Return the sub-waveform between *t_start* and *t_stop* ps."""
        if t_stop < t_start:
            raise ConfigurationError(
                f"slice end {t_stop} before start {t_start}"
            )
        i0 = max(0, int(np.ceil((t_start - self._t0) / self._dt)))
        i1 = min(len(self._values) - 1, int(np.floor((t_stop - self._t0) / self._dt)))
        if i1 < i0:
            raise ConfigurationError("slice contains no samples")
        return Waveform(self._values[i0:i1 + 1].copy(), dt=self._dt,
                        t0=self._t0 + i0 * self._dt)

    def resample(self, dt: float) -> "Waveform":
        """Return this waveform re-sampled on a new grid spacing *dt*."""
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        n = max(1, int(round(self.duration / dt)) + 1)
        t_new = self._t0 + dt * np.arange(n)
        return Waveform(self.values_at(t_new), dt=dt, t0=self._t0)

    # -- arithmetic --------------------------------------------------------

    def _binary_op(self, other, op) -> "Waveform":
        if isinstance(other, Waveform):
            if abs(other._dt - self._dt) > 1e-12:
                other = other.resample(self._dt)
            if abs(other._t0 - self._t0) > 1e-12 or len(other) != len(self):
                # Align onto this waveform's grid.
                aligned = other.values_at(self.times())
                return Waveform(op(self._values, aligned), dt=self._dt, t0=self._t0)
            return Waveform(op(self._values, other._values), dt=self._dt,
                            t0=self._t0)
        return Waveform(op(self._values, float(other)), dt=self._dt, t0=self._t0)

    def __add__(self, other) -> "Waveform":
        return self._binary_op(other, np.add)

    def __radd__(self, other) -> "Waveform":
        return self.__add__(other)

    def __sub__(self, other) -> "Waveform":
        return self._binary_op(other, np.subtract)

    def __mul__(self, other) -> "Waveform":
        return self._binary_op(other, np.multiply)

    def __rmul__(self, other) -> "Waveform":
        return self.__mul__(other)

    def __neg__(self) -> "Waveform":
        return Waveform(-self._values, dt=self._dt, t0=self._t0)

    def shifted(self, delay: float) -> "Waveform":
        """Return a copy delayed by *delay* ps (t0 moves later)."""
        return Waveform(self._values.copy(), dt=self._dt, t0=self._t0 + delay)

    def scaled(self, gain: float, offset: float = 0.0) -> "Waveform":
        """Return ``gain * v + offset``."""
        return Waveform(gain * self._values + offset, dt=self._dt, t0=self._t0)

    def clipped(self, lo: float, hi: float) -> "Waveform":
        """Return a copy clipped into [lo, hi] volts (buffer saturation)."""
        if hi < lo:
            raise ConfigurationError(f"clip range inverted: [{lo}, {hi}]")
        return Waveform(np.clip(self._values, lo, hi), dt=self._dt, t0=self._t0)

    # -- statistics ---------------------------------------------------------

    def min(self) -> float:
        """Minimum voltage in the record."""
        return float(self._values.min())

    def max(self) -> float:
        """Maximum voltage in the record."""
        return float(self._values.max())

    def mean(self) -> float:
        """Mean voltage of the record."""
        return float(self._values.mean())

    def peak_to_peak(self) -> float:
        """Max minus min voltage."""
        return self.max() - self.min()

    @staticmethod
    def concatenate(waveforms: Sequence["Waveform"]) -> "Waveform":
        """Concatenate waveforms end-to-end (all must share dt).

        The result keeps the first waveform's ``t0``; later segments'
        ``t0`` values are ignored (they are butted together).
        """
        if not waveforms:
            raise ConfigurationError("cannot concatenate zero waveforms")
        dt = waveforms[0].dt
        for w in waveforms:
            if abs(w.dt - dt) > 1e-12:
                raise ConfigurationError("concatenate requires equal dt")
        values = np.concatenate([w._values for w in waveforms])
        return Waveform(values, dt=dt, t0=waveforms[0].t0)


class WaveformBatch:
    """A stack of waveforms on one shared time grid.

    The batched signal path's currency: a C-contiguous
    ``(channels, samples)`` float64 block with one ``dt``/``t0`` for
    every row — the layout that lets NRZ rendering, channel
    filtering, crosstalk mixing, and eye folding run as single array
    kernels over the channel axis instead of per-channel Python
    loops (and the layout a compiled/GPU backend can consume
    directly).

    Like :class:`Waveform`, a batch is externally immutable: rows
    exposed as waveforms are zero-copy views. A batch carries no
    cache token: batch stage calls always compute, and the
    single-row calls (``NRZEncoder.encode``, ``LTIChannel.apply``,
    ``EyeDiagram.from_waveform``) are the cached route.

    Parameters
    ----------
    values:
        2-D array-like, shape ``(n_channels, n_samples)``.
    dt:
        Shared sample spacing in picoseconds.
    t0:
        Shared time of each row's first sample in picoseconds.
    """

    __slots__ = ("_values", "_dt", "_t0")

    def __init__(self, values, dt: float = 1.0, t0: float = 0.0):
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        if self._values.ndim != 2:
            raise ConfigurationError(
                f"batch values must be 2-D (channels x samples), "
                f"got shape {self._values.shape}"
            )
        self._dt = float(dt)
        self._t0 = float(t0)

    # -- basic properties ----------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The ``(channels, samples)`` block (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def dt(self) -> float:
        """Shared sample spacing in picoseconds."""
        return self._dt

    @property
    def t0(self) -> float:
        """Shared time of the first sample in picoseconds."""
        return self._t0

    @property
    def n_channels(self) -> int:
        """Number of rows (channels) in the batch."""
        return self._values.shape[0]

    @property
    def n_samples(self) -> int:
        """Samples per channel."""
        return self._values.shape[1]

    @property
    def duration(self) -> float:
        """Span from the first to the last sample, in picoseconds."""
        n = self._values.shape[1]
        return (n - 1) * self._dt if n else 0.0

    @property
    def t_end(self) -> float:
        """Time of the last sample in picoseconds."""
        return self._t0 + self.duration

    def times(self) -> np.ndarray:
        """The shared time axis in picoseconds."""
        return self._t0 + self._dt * np.arange(self._values.shape[1])

    def __len__(self) -> int:
        return self._values.shape[0]

    def __repr__(self) -> str:
        return (f"WaveformBatch(channels={self.n_channels}, "
                f"n={self.n_samples}, dt={self._dt} ps, "
                f"t0={self._t0} ps)")

    # -- construction / deconstruction -----------------------------------

    @classmethod
    def from_waveforms(cls, waveforms: Sequence[Waveform]
                       ) -> "WaveformBatch":
        """Stack per-channel waveforms into one batch.

        All waveforms must share ``dt``, ``t0``, and length.
        """
        if not waveforms:
            raise ConfigurationError(
                "cannot build a batch from zero waveforms; construct "
                "an empty WaveformBatch directly from a (0, n) array"
            )
        first = waveforms[0]
        for w in waveforms:
            if abs(w.dt - first.dt) > 1e-12 \
                    or abs(w.t0 - first.t0) > 1e-12 \
                    or len(w) != len(first):
                raise ConfigurationError(
                    "batch rows must share dt, t0, and length"
                )
        values = np.stack([w.values for w in waveforms])
        return cls(values, dt=first.dt, t0=first.t0)

    def row(self, i: int) -> Waveform:
        """Channel *i* as a zero-copy :class:`Waveform` view."""
        return Waveform(self._values[i], dt=self._dt, t0=self._t0)

    def waveforms(self) -> list:
        """Every channel as a list of zero-copy waveform views."""
        return [self.row(i) for i in range(self.n_channels)]

    def __iter__(self):
        return iter(self.waveforms())

    # -- arithmetic --------------------------------------------------------

    def scaled(self, gain: float, offset: float = 0.0) -> "WaveformBatch":
        """Return ``gain * v + offset`` applied to every row."""
        return WaveformBatch(gain * self._values + offset,
                             dt=self._dt, t0=self._t0)

    def shifted(self, delay: float) -> "WaveformBatch":
        """Return a copy delayed by *delay* ps (t0 moves later)."""
        return WaveformBatch(self._values.copy(), dt=self._dt,
                             t0=self._t0 + delay)

    def __add__(self, other) -> "WaveformBatch":
        if isinstance(other, WaveformBatch):
            if abs(other._dt - self._dt) > 1e-12 \
                    or abs(other._t0 - self._t0) > 1e-12 \
                    or other._values.shape != self._values.shape:
                raise ConfigurationError(
                    "batch addition requires identical grids"
                )
            return WaveformBatch(self._values + other._values,
                                 dt=self._dt, t0=self._t0)
        return WaveformBatch(self._values + float(other),
                             dt=self._dt, t0=self._t0)

    def __radd__(self, other) -> "WaveformBatch":
        return self.__add__(other)
