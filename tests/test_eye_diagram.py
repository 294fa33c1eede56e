"""Tests for eye diagram folding."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.eye.diagram import EyeDiagram
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform


def _prbs_eye(rate=2.5, n=1500, rj=0.0, dj=0.0, seed=1):
    bits = prbs_bits(7, n)
    jitter = JitterBudget(rj_rms=rj, dj_pp=dj).build() \
        if (rj or dj) else None
    wf = bits_to_waveform(bits, rate, v_low=-0.4, v_high=0.4,
                          t20_80=72.0, jitter=jitter,
                          rng=np.random.default_rng(seed))
    return EyeDiagram.from_waveform(wf, rate)


class TestFolding:
    def test_phases_within_ui(self):
        eye = _prbs_eye()
        assert np.all(eye.phases >= 0.0)
        assert np.all(eye.phases < eye.unit_interval)

    def test_unit_interval(self):
        eye = _prbs_eye(rate=2.5)
        assert eye.unit_interval == pytest.approx(400.0)

    def test_crossings_cluster_at_boundary(self):
        """Clean NRZ edges fold to the cell boundary (phase ~0)."""
        eye = _prbs_eye()
        dev = eye.crossing_deviations()
        assert np.max(np.abs(dev)) < 10.0

    def test_crossing_count_scales_with_pattern(self):
        small = _prbs_eye(n=500)
        large = _prbs_eye(n=2000)
        assert large.n_crossings > 2 * small.n_crossings

    def test_too_short_raises(self):
        wf = Waveform(np.zeros(100), dt=1.0)
        with pytest.raises(MeasurementError):
            EyeDiagram.from_waveform(wf, 2.5)

    def test_empty_record_raises_typed_error(self):
        with pytest.raises(MeasurementError):
            EyeDiagram.from_waveform(Waveform(np.empty(0)), 2.5)

    def test_custom_threshold(self):
        bits = prbs_bits(7, 800)
        wf = bits_to_waveform(bits, 2.5, v_low=1.6, v_high=2.4,
                              t20_80=72.0)
        eye = EyeDiagram.from_waveform(wf, 2.5, threshold=2.0)
        assert eye.threshold == 2.0
        assert eye.n_crossings > 100


class TestCrossingDeviations:
    def test_jitter_wraparound_handled(self):
        """Edges jittered past the fold boundary must not appear one
        full UI away."""
        eye = _prbs_eye(rj=5.0, seed=3)
        dev = eye.crossing_deviations()
        # With 5 ps rms, nothing should deviate anywhere near UI/2.
        assert np.max(np.abs(dev)) < 60.0

    def test_no_crossings_raises(self):
        eye = EyeDiagram(np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                         400.0, np.array([]), 0.5)
        with pytest.raises(MeasurementError):
            eye.crossing_deviations()

    def test_deviation_spread_tracks_rj(self):
        tight = _prbs_eye(rj=1.0, seed=5).crossing_deviations()
        loose = _prbs_eye(rj=6.0, seed=5).crossing_deviations()
        assert np.std(loose) > 2.0 * np.std(tight)


class TestSampling:
    def test_samples_near_phase_circular(self):
        eye = _prbs_eye()
        center = eye.crossover_phase() + eye.unit_interval / 2.0
        center = center % eye.unit_interval
        v = eye.samples_near_phase(center, 20.0)
        assert len(v) > 50
        # At eye center a clean signal sits on the rails.
        assert np.all((np.abs(v - 0.4) < 0.05)
                      | (np.abs(v + 0.4) < 0.05))

    def test_histogram2d_shape(self):
        eye = _prbs_eye()
        h, tx, vx = eye.histogram2d(32, 16)
        assert h.shape == (32, 16)
        assert h.sum() == eye.n_samples
