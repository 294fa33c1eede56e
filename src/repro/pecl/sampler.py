"""High-speed PECL sampling circuit with 10 ps strobe resolution.

"A high-speed PECL sampling circuit is designed to capture the
returned signal, also with 10 ps resolution." The sampler is a
strobed comparator whose strobe is positioned by a programmable
delay line; sweeping the strobe across a repeated pattern
reconstructs the waveform (equivalent-time sampling) and measures
edge positions — the receive half of the mini-tester.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.signal.sampling import Sampler
from repro.signal.waveform import Waveform
from repro.pecl.delay import ProgrammableDelayLine
from repro._units import unit_interval_ps


class PECLSampler:
    """Strobed capture with delay-line strobe placement.

    Parameters
    ----------
    delay_line:
        Positions the strobe; defaults to the standard 10 ps line.
    threshold:
        Decision voltage.
    aperture_rms:
        Strobe aperture jitter, ps rms.
    """

    def __init__(self, delay_line: Optional[ProgrammableDelayLine] = None,
                 threshold: float = 2.0, aperture_rms: float = 2.0):
        self.delay_line = delay_line or ProgrammableDelayLine()
        self.comparator = Sampler(threshold=threshold,
                                  aperture_rms=aperture_rms)

    @property
    def threshold(self) -> float:
        """Decision voltage."""
        return self.comparator.threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        self.comparator.threshold = float(value)

    @property
    def resolution(self) -> float:
        """Strobe placement resolution, ps."""
        return self.delay_line.step

    def capture_bits(self, waveform: Waveform, rate_gbps: float,
                     n_bits: int, strobe_code: int,
                     t_first_bit: float = 0.0,
                     rng: Optional[np.random.Generator] = None
                     ) -> np.ndarray:
        """Capture *n_bits* with the strobe placed by *strobe_code*.

        The strobe for bit k lands at ``t_first_bit + k*UI + actual
        delay(code) - insertion delay`` — code 0 strobes the start of
        each cell and larger codes walk the strobe across it. Only
        *waveform*'s ``values_at`` is read, so a
        :class:`~repro.pecl.buffer.ProcessedView` serves as well.
        """
        ui = unit_interval_ps(rate_gbps)
        offset = (self.delay_line.actual_delay(strobe_code)
                  - self.delay_line.insertion_delay)
        times = t_first_bit + ui * np.arange(n_bits) + offset
        return self.comparator.strobe(waveform, times, rng=rng)

    def equivalent_time_scan(self, waveform: Waveform, rate_gbps: float,
                             n_bits: int, codes: Optional[np.ndarray] = None,
                             t_first_bit: float = 0.0,
                             rng: Optional[np.random.Generator] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """Sweep the strobe across the bit cell (equivalent-time mode).

        Returns ``(offsets_ps, ones_density)``: for each strobe code,
        the offset into the cell and the fraction of captured bits
        that read 1. On a repeated 0-1 pattern the transition appears
        where the density crosses 0.5.
        """
        ui = unit_interval_ps(rate_gbps)
        if codes is None:
            max_code = min(self.delay_line.n_codes - 1,
                           int(ui / self.delay_line.step))
            codes = np.arange(0, max_code + 1)
        offsets = np.empty(len(codes))
        density = np.empty(len(codes))
        for i, code in enumerate(codes):
            bits = self.capture_bits(waveform, rate_gbps, n_bits,
                                     int(code), t_first_bit, rng)
            offsets[i] = (self.delay_line.actual_delay(int(code))
                          - self.delay_line.insertion_delay)
            density[i] = float(np.mean(bits))
        return offsets, density

    def reconstruct_pattern(self, waveform: Waveform,
                            rate_gbps: float, pattern_len: int,
                            n_reps: int = 32,
                            thresholds: Optional[np.ndarray] = None,
                            codes: Optional[np.ndarray] = None,
                            t_first_bit: float = 0.0,
                            rng: Optional[np.random.Generator] = None
                            ) -> Waveform:
        """Digitize one repetition of a repeating pattern.

        The mini-tester as its own sampling scope: for each strobe
        position (delay code) and comparator threshold, the fraction
        of 1-decisions over *n_reps* pattern repetitions gives the
        CDF of the voltage at that instant; the median (the
        threshold where the fraction crosses one half) is the
        reconstructed voltage. Resolution is the delay line's step
        horizontally and the threshold grid vertically.

        Parameters
        ----------
        pattern_len:
            Bits per pattern repetition.
        n_reps:
            Repetitions averaged per point.
        thresholds:
            Comparator levels to sweep; default 33 levels across
            the waveform's range.
        codes:
            Strobe codes per bit cell; default covers one UI.
        """
        if pattern_len < 1:
            raise ConfigurationError("pattern length must be >= 1")
        if n_reps < 2:
            raise ConfigurationError("need >= 2 repetitions")
        ui = unit_interval_ps(rate_gbps)
        if thresholds is None:
            lo, hi = waveform.min(), waveform.max()
            pad = 0.05 * (hi - lo)
            thresholds = np.linspace(lo - pad, hi + pad, 33)
        thresholds = np.sort(np.asarray(thresholds,
                                        dtype=np.float64))
        if codes is None:
            max_code = min(self.delay_line.n_codes - 1,
                           max(1, int(ui / self.delay_line.step)))
            codes = np.arange(0, max_code)
        if rng is None:
            rng = np.random.default_rng(0)
        saved_threshold = self.comparator.threshold
        n_cells = pattern_len
        values = np.empty(n_cells * len(codes))
        times = np.empty(n_cells * len(codes))
        try:
            for ci, code in enumerate(codes):
                offset = (self.delay_line.actual_delay(int(code))
                          - self.delay_line.insertion_delay)
                # Strobe instants: cell k of every repetition.
                for k in range(n_cells):
                    t = (t_first_bit + k * ui + offset
                         + pattern_len * ui * np.arange(n_reps))
                    ones = np.empty(len(thresholds))
                    for vi, v in enumerate(thresholds):
                        self.comparator.threshold = float(v)
                        bits = self.comparator.strobe(waveform, t,
                                                      rng=rng)
                        ones[vi] = float(np.mean(bits))
                    # Median: where the ones-fraction crosses 0.5
                    # going down as the threshold rises.
                    idx = k * len(codes) + ci
                    times[idx] = k * ui + offset
                    values[idx] = float(np.interp(
                        -0.5, -ones, thresholds
                    ))
        finally:
            self.comparator.threshold = saved_threshold
        order = np.argsort(times)
        # Resample onto the delay-line grid.
        dt = float(self.delay_line.step)
        t_axis = np.arange(times.min(), times.max() + dt / 2, dt)
        v_axis = np.interp(t_axis, times[order], values[order])
        return Waveform(v_axis, dt=dt,
                        t0=t_first_bit + float(times.min()))

    def find_edge(self, waveform: Waveform, rate_gbps: float,
                  n_bits: int = 64, t_first_bit: float = 0.0,
                  rng: Optional[np.random.Generator] = None) -> float:
        """Locate a data edge within the bit cell, ps from cell start.

        Scans the strobe and interpolates where the ones-density
        crosses one half. Needs a pattern with a stable edge (e.g.
        alternating 0-1 data).
        """
        offsets, density = self.equivalent_time_scan(
            waveform, rate_gbps, n_bits, t_first_bit=t_first_bit, rng=rng
        )
        d = density - 0.5
        sign_change = np.flatnonzero(np.diff(np.sign(d)) != 0)
        if len(sign_change) == 0:
            raise MeasurementError(
                "no edge found in the scanned window; is the pattern "
                "transitioning?"
            )
        i = int(sign_change[0])
        x0, x1 = offsets[i], offsets[i + 1]
        y0, y1 = d[i], d[i + 1]
        if y1 == y0:
            return float(x0)
        return float(x0 - y0 * (x1 - x0) / (y1 - y0))
