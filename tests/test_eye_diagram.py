"""Tests for eye diagram folding."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache
from repro.errors import MeasurementError
from repro.eye.diagram import EyeDiagram
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform, WaveformBatch


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

    def test_crossover_phase_no_crossings_raises(self):
        eye = EyeDiagram(np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                         400.0, np.array([]), 0.5)
        with pytest.raises(MeasurementError, match="no threshold"):
            eye.crossover_phase()

    def test_circular_mean_arithmetic(self):
        """Both readouts keep the circular-mean arithmetic bit for
        bit."""
        eye = _prbs_eye(rj=5.0, seed=3)
        ui = eye.unit_interval
        angles = 2.0 * np.pi * eye.crossing_phases / ui
        mean_angle = np.arctan2(np.mean(np.sin(angles)),
                                np.mean(np.cos(angles)))
        mean_phase = (mean_angle / (2.0 * np.pi)) * ui
        dev = np.mod(eye.crossing_phases - mean_phase + ui / 2.0, ui) \
            - ui / 2.0
        assert np.array_equal(eye.crossing_deviations(), dev)
        assert eye.crossover_phase() == float(np.mod(mean_phase, ui))

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


def _mask_samples(eye, phase, half_window):
    """The phase window over every sample: the full-record mask."""
    ui = eye.unit_interval
    d = np.mod(eye.phases - phase + ui / 2.0, ui) - ui / 2.0
    return eye.voltages[np.abs(d) <= half_window]


def _folds(n_samples, seed):
    """``(name, eye, expected period)`` for every way a fold is built,
    from three noise records of *n_samples* 1 ps samples at 2.5 Gbps
    (the fold keeps ``n_samples - 800`` samples, period 400)."""
    values = np.random.default_rng(seed).normal(0.0, 0.3, (3, n_samples))
    batch = WaveformBatch(values, dt=1.0)
    store = ArtifactCache()
    cold = EyeDiagram.from_batch(batch, 2.5, cache=store)
    warm = EyeDiagram.from_batch(batch, 2.5, cache=store)
    folds = [("from_waveform",
              EyeDiagram.from_waveform(Waveform(values[1]), 2.5), 400)]
    for c in range(3):
        folds += [
            (f"from_batch[{c}]", EyeDiagram.from_batch(batch, 2.5)[c],
             400),
            (f"cached from_batch[{c}] (miss)", cold[c], 400),
            (f"cached from_batch[{c}] (hit)", warm[c], 400),
        ]
    folds.append(("merged", EyeDiagram.from_batch(batch, 2.5,
                                                  merge=True), None))
    return folds


class TestPhaseWindow:
    """``samples_near_phase`` on a period-stamped fold reads one period
    of phases, yet returns exactly the full-record mask's samples, in
    record order."""

    @pytest.mark.parametrize("n_samples", [2400, 2537],
                             ids=["whole-periods", "partial-period"])
    def test_folds_are_stamped(self, n_samples):
        for name, eye, period in _folds(n_samples, 1):
            assert eye._period == period, name
            assert (eye.n_samples % 400 == 0) == (n_samples == 2400)

    @pytest.mark.parametrize("n_samples", [2400, 2537],
                             ids=["whole-periods", "partial-period"])
    @pytest.mark.parametrize("phase,half_window", [
        (0.0, 20.0),       # straddles the wrap
        (395.5, 10.0),     # straddles it from the top
        (399.999, 0.5),
        (-30.0, 40.0),     # outside [0, UI)
        (200.0, 20.0),
        (123.4, 0.0),
        (10.0, 200.0),     # half a UI: every sample
        (10.0, 250.0),
        (300.0, 1e9),
    ])
    def test_matches_full_mask(self, n_samples, phase, half_window):
        for name, eye, _ in _folds(n_samples, 2):
            got = eye.samples_near_phase(phase, half_window)
            assert got.dtype == np.float64
            assert np.array_equal(
                got, _mask_samples(eye, phase, half_window)), name

    @given(
        extra=st.integers(0, 799),
        phase=st.floats(-400.0, 800.0),
        half_window=st.floats(0.0, 300.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_full_mask_property(self, extra, phase, half_window,
                                        seed):
        for name, eye, _ in _folds(1700 + extra, seed):
            assert np.array_equal(
                eye.samples_near_phase(phase, half_window),
                _mask_samples(eye, phase, half_window)), name

    def test_constructor_eye_reads_every_sample(self):
        """Phases with no period: a constructor-built eye must not
        assume one."""
        rng = np.random.default_rng(3)
        eye = EyeDiagram(rng.uniform(0.0, 400.0, 3000),
                         rng.normal(0.0, 0.3, 3000), 400.0,
                         np.array([1.0]), 0.0)
        assert eye._period is None
        for phase, half_window in ((0.0, 20.0), (250.0, 35.0)):
            assert np.array_equal(
                eye.samples_near_phase(phase, half_window),
                _mask_samples(eye, phase, half_window))

    def test_unstamped_pickle_reads_every_sample(self):
        """A fold pickled before diagrams carried a period (an
        existing disk cache) loads with none."""
        _, eye, _ = _folds(2537, 4)[0]
        del eye.__dict__["_period"]
        old = pickle.loads(pickle.dumps(eye))
        assert old._period is None
        assert np.array_equal(old.samples_near_phase(5.0, 30.0),
                              _mask_samples(old, 5.0, 30.0))
