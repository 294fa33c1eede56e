"""NRZ waveform synthesis from bit sequences.

Converts a digital bit stream into an analog :class:`Waveform` with
finite rise/fall times and optional per-edge jitter — the electrical
signal that leaves a PECL output buffer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.signal import _kernels
from repro.signal.edges import EdgeShape
from repro.signal.jitter import JitterModel
from repro.signal.waveform import Waveform, WaveformBatch
from repro._units import unit_interval_ps


class NRZEncoder:
    """Synthesizes NRZ waveforms at a fixed data rate.

    Parameters
    ----------
    rate_gbps:
        Data rate in Gbps; the unit interval is ``1000/rate`` ps.
    v_low, v_high:
        Logic levels in volts.
    t20_80:
        20-80% transition time in ps applied to every edge.
    shape:
        Analytic edge shape.
    dt:
        Output sample spacing in ps.
    """

    def __init__(self, rate_gbps: float, v_low: float = 0.0,
                 v_high: float = 1.0, t20_80: float = 0.0,
                 shape: EdgeShape = EdgeShape.ERF, dt: float = 1.0):
        if v_high <= v_low:
            raise ConfigurationError(
                f"v_high ({v_high}) must exceed v_low ({v_low})"
            )
        self.rate_gbps = float(rate_gbps)
        self.unit_interval = unit_interval_ps(rate_gbps)
        self.v_low = float(v_low)
        self.v_high = float(v_high)
        self.t20_80 = float(t20_80)
        self.shape = shape
        self.dt = float(dt)

    def cache_key(self) -> str:
        """Canonical digest of this encoder's output-determining config.

        Part of the ``repro.cache`` protocol: any change to any
        field (rate, levels, edge time/shape, sample grid) yields a
        different key, so cached renders can never alias across
        configurations.
        """
        from repro.cache.keys import canonical_digest

        return canonical_digest(
            "NRZEncoder", self.rate_gbps, self.v_low, self.v_high,
            self.t20_80, self.shape, self.dt,
        )

    def edge_times_and_directions(
            self, bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nominal transition times, directions, and bit history codes.

        Returns ``(times, directions, history)`` where times are the
        ideal edge instants (start of the bit cell that changes
        value), directions are +1/-1, and history encodes up to four
        preceding bits as an integer (for data-dependent jitter).
        """
        bits = np.asarray(bits).astype(np.int8)
        times, directions, history, _ = self._edge_times_batch(bits[None])
        return times, directions, history

    def encode(self, bits, jitter: Optional[JitterModel] = None,
               rng: Optional[np.random.Generator] = None,
               pad_ui: float = 1.0) -> Waveform:
        """Render *bits* as an analog waveform.

        The render is row 0 of a one-row :meth:`encode_batch` block:
        for the same RNG, jittered output is bit-identical too.

        This is the stage's cached route: renders are memoized in the
        active artifact cache (:func:`repro.cache.active`) keyed
        ``(encoder config, bits, pad_ui)``, but only when *jitter* is
        None: a jitter model draws from the caller's RNG, whose state
        the key cannot capture. Hits are the identical waveform, not
        a copy, and must be treated as immutable; each carries a
        provenance token for cheap downstream keys.

        Parameters
        ----------
        bits:
            Sequence of 0/1 values.
        jitter:
            Optional per-edge jitter model.
        rng:
            Random generator (required if *jitter* has a stochastic
            component; defaults to a fixed-seed generator).
        pad_ui:
            Flat padding, in unit intervals, before and after the
            pattern so boundary edges are fully rendered.
        """
        bits = np.asarray(bits).astype(np.int8)
        from repro import cache as _cache

        def render():
            return self.encode_batch(bits[None], jitter, rng,
                                     pad_ui).row(0)

        store = _cache.active()
        if store.enabled and jitter is None:
            key = _cache.canonical_digest(
                "nrz.encode", self.cache_key(), bits, float(pad_ui),
            )
            return store.get_or_compute(key, render).set_cache_token(key)
        return render()

    def encode_batch(self, bits, jitter: Optional[JitterModel] = None,
                     rng: Optional[np.random.Generator] = None,
                     pad_ui: float = 1.0) -> WaveformBatch:
        """Render a ``(channels, n_bits)`` bit block as a batch.

        Every channel is rendered through one flattened kernel pass
        (:func:`repro.signal._kernels.render_nrz_batch`) sharing a
        single edge template, with no per-channel Python loop;
        :meth:`encode` is the one-row case. Without jitter the output
        is *bit-identical* per row to calling :meth:`encode` on each
        channel. With a jitter model the offsets come from one
        ``jitter.offsets`` call over every row's edges in row-major
        order. When the model draws from *rng* once per call, that
        equals a loop of :meth:`encode` calls sharing *rng*, bitwise;
        every :meth:`~repro.signal.jitter.JitterBudget.build` model
        does (only its one ``RandomJitter`` draws). A model that
        draws more than once per call, such as a ``CompositeJitter``
        of two ``RandomJitter``, consumes *rng* in another order.

        A batch call always renders: it never consults the artifact
        cache, even inside a ``use_cache`` scope. :meth:`encode` is
        the cached route.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ConfigurationError(
                f"encode_batch expects a (channels, n_bits) block, "
                f"got shape {bits.shape}"
            )
        if bits.shape[1] == 0:
            raise ConfigurationError("cannot encode an empty bit sequence")
        bits = bits.astype(np.int8)
        if np.any((bits != 0) & (bits != 1)):
            raise ConfigurationError("bits must be 0 or 1")
        if rng is None:
            rng = np.random.default_rng(0)

        tel = telemetry.active()
        with tel.span("nrz.encode_batch"):
            ui = self.unit_interval
            pad = pad_ui * ui
            t_start = -pad
            t_stop = bits.shape[1] * ui + pad
            n = int(round((t_stop - t_start) / self.dt)) + 1

            times, directions, history, rows = \
                self._edge_times_batch(bits,
                                       need_history=jitter is not None)
            if jitter is not None and len(times):
                times = times + jitter.offsets(times, directions,
                                               history, rng)

            swing = self.v_high - self.v_low
            base = self.v_low + swing * bits[:, 0].astype(np.float64) \
                if len(bits) else np.empty(0, dtype=np.float64)
            v = _kernels.render_nrz_batch(
                len(bits), n, t_start, self.dt, base=base, swing=swing,
                times=times, directions=directions, rows=rows,
                t20_80=self.t20_80, shape=self.shape, tel=tel,
            )
            tel.counter("nrz.encodes").inc(len(bits))
            tel.counter("nrz.bits").inc(bits.size)
            tel.counter("nrz.edges").inc(len(times))
            tel.counter("nrz.samples").inc(n * len(bits))
            return WaveformBatch(v, dt=self.dt, t0=t_start)

    def _edge_times_batch(
            self, bits: np.ndarray, need_history: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flattened ``(times, directions, history, rows)`` for a block.

        Row-major edge order. History codes (up to four preceding
        bits per edge) are only consumed by jitter models;
        *need_history* False skips their gather and returns zeros.
        """
        if bits.shape[1] < 2:
            # dtypes pinned: jitter models do float math on these and
            # must never see a default/object dtype.
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        rows, change = np.nonzero(np.diff(bits, axis=1) != 0)
        times = (change + 1).astype(np.float64) * self.unit_interval
        directions = np.where(bits[rows, change + 1] > bits[rows, change],
                              1.0, -1.0)
        history = np.zeros(len(change), dtype=np.int64)
        if need_history:
            for k in range(4):
                idx = change - k
                valid = idx >= 0
                vals = np.zeros(len(change), dtype=np.int64)
                vals[valid] = bits[rows[valid], idx[valid]]
                history |= vals << k
        return times, directions, history, rows.astype(np.int64)


def bits_to_waveform(bits, rate_gbps: float, v_low: float = 0.0,
                     v_high: float = 1.0, t20_80: float = 0.0,
                     jitter: Optional[JitterModel] = None,
                     rng: Optional[np.random.Generator] = None,
                     dt: float = 1.0) -> Waveform:
    """One-call convenience wrapper around :class:`NRZEncoder`.

    >>> wf = bits_to_waveform([0, 1, 1, 0], rate_gbps=2.5, t20_80=70.0)
    >>> wf.dt
    1.0
    """
    encoder = NRZEncoder(rate_gbps, v_low=v_low, v_high=v_high,
                         t20_80=t20_80, dt=dt)
    return encoder.encode(bits, jitter=jitter, rng=rng)
