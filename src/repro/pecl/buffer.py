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
from typing import Optional

import numpy as np

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
        then the filter restores finite transitions.
        """
        mid_in = 0.5 * (waveform.min() + waveform.max())
        hard = np.where(waveform.values > mid_in,
                        self.levels.v_high, self.levels.v_low)
        regenerated = Waveform(hard, dt=waveform.dt, t0=waveform.t0)
        if self.spec.t20_80 <= 0.0:
            return regenerated
        sigma_ps = sigma_for_erf_edge(self.spec.t20_80)
        sigma_samples = sigma_ps / waveform.dt
        from scipy.ndimage import gaussian_filter1d

        smooth = gaussian_filter1d(regenerated.values, sigma_samples,
                                   mode="nearest")
        return Waveform(smooth, dt=waveform.dt, t0=waveform.t0)

    def cascade_t20_80(self, upstream_t20_80: float) -> float:
        """Output transition time when fed an already-slowed edge."""
        return combine_rise_times(upstream_t20_80, self.spec.t20_80)
