"""Sampling oscilloscope model.

All the paper's evaluation numbers are scope measurements. The model
reproduces the measurement *procedures*: repeated-acquisition eye
diagrams, single-edge jitter histograms (Figure 9's 24 ps p-p /
3.2 ps rms), rise/fall time, and amplitude readouts — with a
configurable instrument noise floor so measured values include the
instrument, as real ones do.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.errors import MeasurementError
from repro.signal.waveform import Waveform
from repro.signal import analysis
from repro.eye.diagram import EyeDiagram
from repro.eye.metrics import EyeMetrics, measure_eye


@dataclasses.dataclass(frozen=True)
class EdgeJitterResult:
    """Single-edge jitter histogram summary (the Figure 9 measurement).

    Attributes
    ----------
    peak_to_peak:
        Spread of crossing times, ps.
    rms:
        Standard deviation of crossing times, ps.
    n_acquisitions:
        Number of repeated edges measured.
    """

    peak_to_peak: float
    rms: float
    n_acquisitions: int

    def __str__(self) -> str:
        return (f"edge jitter: {self.peak_to_peak:.1f} ps p-p, "
                f"{self.rms:.2f} ps rms over {self.n_acquisitions} "
                f"acquisitions")


class SamplingScope:
    """Equivalent-time sampling scope.

    Parameters
    ----------
    timebase_jitter_rms:
        Instrument trigger/timebase jitter, ps rms (adds to every
        horizontal measurement).
    vertical_noise_rms:
        Instrument vertical noise, volts rms.
    """

    def __init__(self, timebase_jitter_rms: float = 0.8,
                 vertical_noise_rms: float = 0.002):
        if timebase_jitter_rms < 0.0 or vertical_noise_rms < 0.0:
            raise MeasurementError("instrument noise must be >= 0")
        self.timebase_jitter_rms = float(timebase_jitter_rms)
        self.vertical_noise_rms = float(vertical_noise_rms)

    def acquire(self, waveform: Waveform,
                rng: Optional[np.random.Generator] = None) -> Waveform:
        """One acquisition: the waveform plus instrument noise."""
        if rng is None:
            rng = np.random.default_rng(0)
        v = waveform.values.copy()
        if self.vertical_noise_rms > 0.0:
            v = v + rng.normal(0.0, self.vertical_noise_rms, size=len(v))
        t0 = waveform.t0
        if self.timebase_jitter_rms > 0.0:
            t0 = t0 + rng.normal(0.0, self.timebase_jitter_rms)
        return Waveform(v, dt=waveform.dt, t0=t0)

    # -- eye measurements ---------------------------------------------------

    def eye_diagram(self, waveform: Waveform, rate_gbps: float,
                    rng: Optional[np.random.Generator] = None,
                    **kwargs) -> EyeDiagram:
        """Build an eye from one long acquisition.

        The fold (:meth:`EyeDiagram.from_waveform`) consults the
        active artifact cache. It can only hit when the scope is
        noiseless (an acquisition otherwise draws from *rng*), so a
        noisy scope skips the acquire-stage token and the fold
        re-keys from the acquired record's content.
        """
        acquired = self.acquire(waveform, rng)
        if (self.vertical_noise_rms == 0.0
                and self.timebase_jitter_rms == 0.0):
            # Noiseless acquisition is a pure copy: carry the input's
            # provenance so the fold stage can hit.
            acquired.set_cache_token(waveform.cache_token())
        return EyeDiagram.from_waveform(acquired, rate_gbps, **kwargs)

    def measure_eye(self, waveform: Waveform, rate_gbps: float,
                    rng: Optional[np.random.Generator] = None,
                    **kwargs) -> EyeMetrics:
        """Acquire, fold, and measure an eye in one call."""
        return measure_eye(self.eye_diagram(waveform, rate_gbps, rng,
                                            **kwargs))

    # -- single-edge jitter (Figure 9) -------------------------------------

    def edge_jitter(self, edge_source: Callable[[np.random.Generator],
                                                Waveform],
                    n_acquisitions: int = 500,
                    threshold: Optional[float] = None,
                    seed: int = 0) -> EdgeJitterResult:
        """Repeated single-transition jitter histogram.

        Parameters
        ----------
        edge_source:
            Called once per acquisition with a random generator;
            must return a waveform containing one transition (the
            hardware equivalent: the same pattern edge, re-armed).
        threshold:
            Crossing threshold; default midpoint of the first
            acquisition.
        """
        if n_acquisitions < 2:
            raise MeasurementError("need >= 2 acquisitions")
        rng = np.random.default_rng(seed)
        crossings = np.empty(n_acquisitions)
        for i in range(n_acquisitions):
            raw = edge_source(rng)
            if raw.peak_to_peak() < max(10.0 * self.vertical_noise_rms,
                                        1e-6):
                raise MeasurementError(
                    "edge source has no swing; nothing to measure"
                )
            wf = self.acquire(raw, rng)
            if threshold is None:
                threshold = 0.5 * (wf.min() + wf.max())
            t = analysis.threshold_crossings(wf, threshold)
            if len(t) == 0:
                raise MeasurementError(
                    f"acquisition {i} has no threshold crossing"
                )
            crossings[i] = t[0]
        return EdgeJitterResult(
            peak_to_peak=float(crossings.max() - crossings.min()),
            rms=float(np.std(crossings)),
            n_acquisitions=n_acquisitions,
        )

    # -- waveform parameter readouts ---------------------------------------

    def rise_time(self, waveform: Waveform,
                  rng: Optional[np.random.Generator] = None) -> float:
        """20-80% rise time of an acquired waveform, ps."""
        return analysis.rise_time(self.acquire(waveform, rng))

    def fall_time(self, waveform: Waveform,
                  rng: Optional[np.random.Generator] = None) -> float:
        """80-20% fall time of an acquired waveform, ps."""
        return analysis.fall_time(self.acquire(waveform, rng))

    def measure_levels(self, waveform: Waveform,
                       rng: Optional[np.random.Generator] = None):
        """(v_low, v_high, swing) of an acquired waveform."""
        return analysis.measure_swing(self.acquire(waveform, rng))
