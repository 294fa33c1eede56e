"""LTI channel: bandwidth limit, flat loss, and delay.

A Bessel low-pass (maximally flat group delay, the right choice for
time-domain work) models the channel's bandwidth; flat attenuation
and bulk delay complete the picture. Inter-symbol interference
emerges naturally when the bandwidth approaches the data rate.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.signal.waveform import Waveform, WaveformBatch


class LTIChannel:
    """Bandwidth-limited channel with loss and delay.

    Parameters
    ----------
    bandwidth_ghz:
        -3 dB bandwidth.
    attenuation_db:
        Flat loss (positive number = loss).
    delay_ps:
        Bulk propagation delay.
    order:
        Bessel filter order.
    """

    def __init__(self, bandwidth_ghz: float, attenuation_db: float = 0.0,
                 delay_ps: float = 0.0, order: int = 4):
        if bandwidth_ghz <= 0.0:
            raise ConfigurationError("bandwidth must be positive")
        if attenuation_db < 0.0:
            raise ConfigurationError(
                "attenuation is a loss; it must be >= 0 dB"
            )
        if delay_ps < 0.0:
            raise ConfigurationError("delay must be >= 0")
        if not 1 <= order <= 8:
            raise ConfigurationError(f"order must be 1-8, got {order}")
        self.bandwidth_ghz = float(bandwidth_ghz)
        self.attenuation_db = float(attenuation_db)
        self.delay_ps = float(delay_ps)
        self.order = int(order)

    @property
    def gain(self) -> float:
        """Linear amplitude gain (< 1 for loss)."""
        return 10.0 ** (-self.attenuation_db / 20.0)

    def cache_key(self) -> str:
        """Canonical digest of this channel's response-determining
        config (class, bandwidth, loss, delay, order) for
        ``repro.cache`` keys."""
        from repro.cache.keys import canonical_digest

        return canonical_digest(
            type(self).__name__, self.bandwidth_ghz,
            self.attenuation_db, self.delay_ps, self.order,
        )

    def apply(self, waveform: Waveform) -> Waveform:
        """Propagate *waveform* through the channel.

        The DC component passes at the channel gain; the filter acts
        on the AC content (a data channel is AC-coupled around its
        running midpoint). The result is row 0 of a one-row
        :meth:`apply_batch` pass.

        This is the stage's cached route: convolutions are memoized
        in the active artifact cache (:func:`repro.cache.active`)
        keyed ``(channel config, input waveform token)``: the input
        token is its producing stage's provenance when attached,
        else a content digest. Hits are the stored waveform itself,
        not a copy, and must be treated as immutable.
        """
        from repro import cache as _cache

        def filtered():
            return self.apply_batch(WaveformBatch(
                waveform.values[None], dt=waveform.dt, t0=waveform.t0,
            )).row(0)

        store = _cache.active()
        if store.enabled:
            key = _cache.canonical_digest(
                "lti.apply", self.cache_key(), waveform.cache_token(),
            )
            return store.get_or_compute(key, filtered) \
                .set_cache_token(key)
        return filtered()

    def apply_batch(self, batch: WaveformBatch) -> WaveformBatch:
        """Propagate every channel of *batch* in one filter pass.

        `scipy` runs the SOS filter along the sample axis of the
        whole ``(channels, samples)`` block, and the filter design
        and its group-delay impulse response are memoized per
        configuration. The AC midpoint is each row's own mean, so
        each row's output is *bit-identical* to :meth:`apply` on
        that row (``sosfilt`` over a 2-D block applies the
        identical recurrence per row).

        A batch call always filters: it never consults the artifact
        cache, even inside a ``use_cache`` scope. :meth:`apply` is
        the cached route.
        """
        dt_s = batch.dt * 1e-12
        f_nyquist = 0.5 / dt_s
        f_cut = self.bandwidth_ghz * 1e9
        group_delay_samples = 0.0
        if f_cut >= f_nyquist or not batch.n_channels \
                or not batch.n_samples:
            # Channel faster than the simulation grid (bandwidth has
            # no effect at this resolution), or nothing to filter.
            filtered = batch.values.copy()
        else:
            # The causal filter carries its own group delay; a
            # Bessel's is flat, so compensating it keeps delay_ps the
            # channel's *only* latency. The kernel measures it from
            # the impulse response's first moment.
            n_imp = min(batch.n_samples, max(64, int(16.0
                        * f_nyquist / f_cut)))
            from repro.signal import _kernels

            filtered, group_delay_samples = _kernels.sosfilt_batch(
                batch.values, self.order, f_cut / f_nyquist, n_imp)
        return WaveformBatch(
            self.gain * filtered, dt=batch.dt,
            t0=(batch.t0 + self.delay_ps
                - group_delay_samples * batch.dt),
        )

    def isi_dj_estimate(self, rate_gbps: float) -> float:
        """Rough deterministic jitter from ISI at *rate_gbps*, ps p-p.

        Uses the classic approximation: DJ grows as the channel rise
        time (0.339/BW for a Gaussian-ish response) becomes a
        significant fraction of the unit interval.
        """
        if rate_gbps <= 0.0:
            raise ConfigurationError("rate must be positive")
        ui = 1_000.0 / rate_gbps
        t_r = 339.0 / self.bandwidth_ghz  # 10-90% rise time, ps
        x = t_r / ui
        if x < 0.5:
            return 0.0
        return ui * 0.5 * (x - 0.5) ** 2

    def cascade(self, other: "LTIChannel") -> "LTIChannel":
        """Series combination of two channels.

        Bandwidths combine reciprocally in square (rise times RSS);
        losses and delays add.
        """
        bw = 1.0 / math.sqrt(self.bandwidth_ghz ** -2
                             + other.bandwidth_ghz ** -2)
        return LTIChannel(
            bandwidth_ghz=bw,
            attenuation_db=self.attenuation_db + other.attenuation_db,
            delay_ps=self.delay_ps + other.delay_ps,
            order=max(self.order, other.order),
        )

    def __repr__(self) -> str:
        return (f"LTIChannel(bw={self.bandwidth_ghz} GHz, "
                f"loss={self.attenuation_db} dB, "
                f"delay={self.delay_ps} ps)")


class IdealChannel(LTIChannel):
    """A pass-through channel (infinite bandwidth, no loss)."""

    def __init__(self, delay_ps: float = 0.0):
        super().__init__(bandwidth_ghz=1e6, attenuation_db=0.0,
                         delay_ps=delay_ps, order=1)

    def apply(self, waveform: Waveform) -> Waveform:
        """Pass *waveform* through, shifted by the delay.

        Never consults the artifact cache: a shift costs less than a
        cache lookup.
        """
        return waveform.shifted(self.delay_ps)

    def apply_batch(self, batch: WaveformBatch) -> WaveformBatch:
        """Pass the whole batch through, shifted by the delay."""
        return batch.shifted(self.delay_ps)
