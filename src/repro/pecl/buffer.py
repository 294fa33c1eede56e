"""Output buffers: transition time, additive jitter, level drive.

Two buffer grades appear in the paper:

* The optical test bed's final stage uses **SiGe buffers**: 70-75 ps
  20-80% transitions, "very little jitter" (the 24 ps p-p / 3.2 ps
  rms single-edge measurement of Figure 9 bounds the whole path).
* The mini-tester's I/O buffers measure **120 ps** 20-80%, which "at
  such high speeds ... begins to limit amplitude swing" (Figure 18).

A buffer both *renders* digital bits into an analog waveform and can
*process* an already-analog waveform (bandwidth-limit + re-drive),
so buffers can sit anywhere in a chain.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.signal.edges import EdgeShape, sigma_for_erf_edge, combine_rise_times
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import NRZEncoder
from repro.signal.waveform import Waveform, WaveformBatch
from repro.pecl.levels import PECLLevels, LVPECL_3V3
from repro._units import unit_interval_ps


@dataclasses.dataclass(frozen=True)
class BufferSpec:
    """Datasheet-style buffer parameters.

    Attributes
    ----------
    name:
        Part label for diagnostics.
    t20_80:
        Output 20-80% transition time, ps.
    rj_rms:
        Random jitter added by the buffer, ps rms.
    dj_pp:
        Deterministic jitter added by the buffer, ps p-p.
    max_rate_gbps:
        Highest data rate the part sustains.
    """

    name: str
    t20_80: float
    rj_rms: float
    dj_pp: float
    max_rate_gbps: float

    def __post_init__(self):
        if self.t20_80 < 0.0 or self.rj_rms < 0.0 or self.dj_pp < 0.0:
            raise ConfigurationError("buffer spec values must be >= 0")
        if self.max_rate_gbps <= 0.0:
            raise ConfigurationError("buffer max rate must be positive")


#: The optical test bed's SiGe final stage (Figures 6, 7, 8, 9).
SIGE_BUFFER = BufferSpec(name="sige_output", t20_80=72.0, rj_rms=1.8,
                         dj_pp=8.0, max_rate_gbps=10.0)

#: The mini-tester's differential I/O buffer (Figures 16-19).
MINI_IO_BUFFER = BufferSpec(name="mini_io", t20_80=120.0, rj_rms=1.8,
                            dj_pp=8.0, max_rate_gbps=6.0)

#: A plain CMOS-grade buffer, the ablation baseline (no SiGe stage).
CMOS_BUFFER = BufferSpec(name="cmos_output", t20_80=260.0, rj_rms=6.0,
                         dj_pp=20.0, max_rate_gbps=2.0)


class OutputBuffer:
    """A driving buffer with finite bandwidth and additive jitter.

    Parameters
    ----------
    spec:
        Electrical parameters.
    levels:
        Output logic levels.
    """

    def __init__(self, spec: BufferSpec = SIGE_BUFFER,
                 levels: PECLLevels = LVPECL_3V3):
        self.spec = spec
        self.levels = levels

    @property
    def jitter_budget(self) -> JitterBudget:
        """This buffer's contribution to the path jitter budget."""
        return JitterBudget(rj_rms=self.spec.rj_rms, dj_pp=self.spec.dj_pp)

    def check_rate(self, rate_gbps: float) -> None:
        """Raise if *rate_gbps* exceeds the part's capability."""
        if rate_gbps > self.spec.max_rate_gbps:
            raise ConfigurationError(
                f"{self.spec.name}: {rate_gbps} Gbps exceeds the part's "
                f"{self.spec.max_rate_gbps} Gbps limit"
            )

    def effective_swing(self, rate_gbps: float) -> float:
        """Amplitude actually reached at *rate_gbps*.

        When the bit period shrinks toward the transition time the
        output no longer settles: the reachable swing falls off as
        the edge occupies the whole unit interval (Figure 18's
        observation at 5 Gbps with 120 ps edges).
        """
        self.check_rate(rate_gbps)
        ui = unit_interval_ps(rate_gbps)
        full = self.levels.swing
        if self.spec.t20_80 <= 0.0:
            return full
        # Fraction of the swing an erf edge completes in one UI.
        from scipy.special import erf

        sigma = sigma_for_erf_edge(self.spec.t20_80)
        reach = float(erf(ui / (2.0 * np.sqrt(2.0) * sigma)))
        return full * reach

    def drive(self, bits, rate_gbps: float,
              extra_jitter: Optional[JitterBudget] = None,
              rng: Optional[np.random.Generator] = None,
              dt: float = 1.0) -> Waveform:
        """Render digital *bits* into the buffer's analog output.

        Row 0 of a one-row :meth:`drive_batch` render, so for the
        same RNG the jittered output is bit-identical to it.

        Parameters
        ----------
        extra_jitter:
            Jitter accumulated upstream (clock, muxes); combined with
            the buffer's own contribution.
        """
        return self.drive_batch(np.asarray(bits)[None], rate_gbps,
                                extra_jitter=extra_jitter, rng=rng,
                                dt=dt).row(0)

    def drive_batch(self, bits, rate_gbps: float,
                    extra_jitter: Optional[JitterBudget] = None,
                    rng: Optional[np.random.Generator] = None,
                    dt: float = 1.0) -> WaveformBatch:
        """Render a ``(channels, n_bits)`` block through the buffer.

        One :meth:`NRZEncoder.encode_batch` call renders every
        channel's analog output through the shared edge template;
        :meth:`drive` is the one-row case. The jitter budget's
        offsets are drawn once over all channels' edges in row-major
        order; a built budget draws from *rng* once per call, so the
        block is bit-identical to per-channel :meth:`drive` calls
        sharing *rng* (see :meth:`NRZEncoder.encode_batch`).
        """
        self.check_rate(rate_gbps)
        budget = self.jitter_budget
        if extra_jitter is not None:
            budget = budget.combined(extra_jitter)
        encoder = NRZEncoder(
            rate_gbps,
            v_low=self.levels.v_low,
            v_high=self.levels.v_high,
            t20_80=self.spec.t20_80,
            shape=EdgeShape.ERF,
            dt=dt,
        )
        return encoder.encode_batch(bits, jitter=budget.build(),
                                    rng=rng)

    def process(self, waveform: Waveform) -> Waveform:
        """Re-drive an analog input: bandwidth-limit and re-level.

        The input is Gaussian-filtered to the buffer's bandwidth and
        regenerated between this buffer's rails (limiting amplifier
        behaviour): the sign about the input midpoint picks the rail,
        then the filter restores finite transitions. A reader that
        only strobes the output reads it cheaper through
        :class:`ProcessedView`.
        """
        hard = self._limit(waveform)
        if self.spec.t20_80 <= 0.0:
            return Waveform(hard, dt=waveform.dt, t0=waveform.t0)
        from scipy.ndimage import gaussian_filter1d

        smooth = gaussian_filter1d(hard, self._sigma_samples(waveform.dt),
                                   mode="nearest")
        return Waveform(smooth, dt=waveform.dt, t0=waveform.t0)

    def _limit(self, waveform: Waveform, pad: int = 0) -> np.ndarray:
        """The limiting amplifier: each sample to the rail its side of
        the input midpoint picks; the end samples repeat *pad* times
        past each end."""
        values = waveform.values
        n = len(values)
        mid_in = 0.5 * (waveform.min() + waveform.max())
        out = np.full(n + 2 * pad, self.levels.v_low)
        np.copyto(out[pad:pad + n], self.levels.v_high,
                  where=values > mid_in)
        out[:pad] = out[pad]
        out[pad + n:] = out[pad + n - 1]
        return out

    def _sigma_samples(self, dt: float) -> float:
        """The bandwidth filter's Gaussian sigma, in samples of *dt*."""
        return sigma_for_erf_edge(self.spec.t20_80) / dt

    def cascade_t20_80(self, upstream_t20_80: float) -> float:
        """Output transition time when fed an already-slowed edge."""
        return combine_rise_times(upstream_t20_80, self.spec.t20_80)


#: Filter terms one :class:`ProcessedView` block evaluates (about
#: 230 samples of a 120 ps buffer at 1 ps): its temporaries stay
#: near 1.5 MB whatever the record or strobe count.
_VIEW_BLOCK_TERMS = 1 << 16


@functools.lru_cache(maxsize=64)
def _gaussian_taps(sigma_samples: float) -> np.ndarray:
    """The taps ``gaussian_filter1d`` applies at *sigma_samples*.

    Read back as the filter's own impulse response: each output
    sample is one tap plus exact zeros, so these are its weights bit
    for bit. The radius is scipy's default truncation, 4 sigma.
    """
    from scipy.ndimage import gaussian_filter1d

    radius = int(4.0 * sigma_samples + 0.5)
    impulse = np.zeros(2 * radius + 1)
    impulse[radius] = 1.0
    taps = gaussian_filter1d(impulse, sigma_samples, mode="constant")
    taps.flags.writeable = False
    return taps


class ProcessedView:
    """:meth:`OutputBuffer.process` of a record, filtered only where read.

    A strobed reader such as the PECL sampler reads a regenerated
    record at one instant per bit cell, about 1% of its samples at 5
    Gbps. :meth:`values_at` limits and filters only the two samples
    that linear interpolation reads around each instant, so its
    cost follows the strobe count, not the record length. Readers of
    the whole record (a reconstruction, a plot) call
    :meth:`OutputBuffer.process` instead.

    Parameters
    ----------
    buffer:
        The buffer whose :meth:`~OutputBuffer.process` this stands
        for.
    waveform:
        The analog input record.
    """

    def __init__(self, buffer: OutputBuffer, waveform: Waveform):
        self.buffer = buffer
        self.waveform = waveform

    def values_at(self, t: np.ndarray) -> np.ndarray:
        """Voltage at times *t* (ps), bitwise equal to
        ``buffer.process(waveform).values_at(t)``."""
        wf = self.waveform
        n = len(wf)
        idx = (np.asarray(t, dtype=np.float64) - wf.t0) / wf.dt
        # np.interp reads the samples either side of each instant;
        # outside the record it holds the end sample. NaN instants
        # read sample 0 here and interpolate to NaN below.
        lo = np.nan_to_num(np.floor(np.clip(idx, 0, n - 1))).astype(np.intp)
        reads = np.unique(np.stack([lo, np.minimum(lo + 1, n - 1)]))
        return np.interp(idx, reads, self._output(reads))

    def _output(self, reads: np.ndarray) -> np.ndarray:
        """``buffer.process(waveform).values[reads]``.

        Follows ``correlate1d``'s order for a symmetric filter, so the
        sum rounds as the dense filter's does: the centre term first,
        then each pair of taps, from the outermost inward. The
        record's end samples repeat past its ends (``mode="nearest"``).
        """
        buffer = self.buffer
        if buffer.spec.t20_80 <= 0.0:
            return buffer._limit(self.waveform)[reads]
        taps = _gaussian_taps(buffer._sigma_samples(self.waveform.dt))
        r = len(taps) // 2
        windows = sliding_window_view(buffer._limit(self.waveform, pad=r),
                                      2 * r + 1)
        outer = taps[:r, None]  # the pairs' weights, outermost first
        out = np.empty(len(reads))
        step = max(1, _VIEW_BLOCK_TERMS // (r + 1))
        for s in range(0, len(reads), step):
            chunk = reads[s:s + step]
            # Axis 0 of a C-ordered block sums row after row, except
            # that numpy sums a one-column block pairwise: a lone
            # sample is evaluated twice.
            block = np.repeat(chunk, 2) if len(chunk) == 1 else chunk
            # Rows: offsets -r..r about each read sample.
            win = windows[block].T
            terms = np.empty((r + 1, len(block)))
            np.multiply(win[r], taps[r], out=terms[0])
            np.add(win[:r], win[:r:-1], out=terms[1:])
            terms[1:] *= outer
            out[s:s + len(chunk)] = \
                np.add.reduce(terms, axis=0)[:len(chunk)]
        return out
