"""Tests for eye diagram folding."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError
from repro.eye._binning import fold_period, fold_phases
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


#: ``(rate Gbps, dt ps, fold period)`` of the fold grids under test:
#: 2.5 Gbps on a 1 ps grid tiles every 400 samples; 2.3 Gbps on a
#: 1 ps grid (UI 434.78 ps) and 10 Gbps on a 0.7 ps grid (142.857
#: samples per UI) never tile.
_GRIDS = [(2.5, 1.0, 400), (2.3, 1.0, None), (10.0, 0.7, None)]


def _folds(n_samples, seed):
    """``(name, eye, grid)`` for every way a fold is built, on every
    grid of :data:`_GRIDS`, from three noise records as many UIs long
    as *n_samples* 1 ps samples at 2.5 Gbps (on that grid the fold
    keeps ``n_samples - 800`` samples). *grid* is the expected stamp,
    ``(offset, dt)``, or None for the merged fold's explicit phases.
    """
    rng = np.random.default_rng(seed)
    folds = []
    for rate, dt, _ in _GRIDS:
        ui = 1000.0 / rate
        values = rng.normal(0.0, 0.3, (3, int(n_samples / 400.0 * ui / dt)))
        batch = WaveformBatch(values, dt=dt)
        # The window starts at the first sample past one discarded UI.
        grid = (np.ceil(ui / dt) * dt, dt)
        plain = EyeDiagram.from_batch(batch, rate)
        tag = f"{rate:g} Gbps/{dt:g} ps"
        folds.append((f"{tag} from_waveform", EyeDiagram.from_waveform(
            Waveform(values[1], dt=dt), rate), grid))
        folds += [(f"{tag} from_batch[{c}]", plain[c], grid)
                  for c in range(3)]
        folds.append((f"{tag} merged",
                      EyeDiagram.from_batch(batch, rate, merge=True), None))
    return folds


class TestPhaseWindow:
    """``samples_near_phase`` on a grid-stamped fold never builds
    every phase, yet returns exactly the full-record mask's samples,
    in record order."""

    @pytest.mark.parametrize("n_samples", [2400, 2537],
                             ids=["whole-periods", "partial-period"])
    def test_folds_are_stamped(self, n_samples):
        folds = _folds(n_samples, 1)
        for name, eye, grid in folds:
            assert eye._grid == grid, name
            assert eye.n_samples == len(eye.voltages), name
            ui = eye.unit_interval
            eye.samples_near_phase(0.3 * ui, 0.05 * ui)
            eye.samples_near_phase(0.9 * ui, 0.2 * ui)
            # Windowed reads build no phase per sample.
            assert ("_phases" in vars(eye)) == (grid is None), name
        for name, eye, _ in folds:
            # The first read of phases builds them and keeps them.
            assert eye.phases is eye.phases, name
        _, dt, period = _GRIDS[0]
        tiled = folds[0][1]
        assert fold_period(dt, tiled.n_samples, tiled.unit_interval) \
            == period
        assert (tiled.n_samples % period == 0) == (n_samples == 2400)

    @pytest.mark.parametrize("n_samples", [2400, 2537],
                             ids=["whole-periods", "partial-period"])
    def test_phases_are_fold_phases_of_the_window(self, n_samples):
        """Bit for bit the array the fold stored before the stamp."""
        for name, eye, grid in _folds(n_samples, 5):
            ui = eye.unit_interval
            if grid is not None:
                rows = (grid, eye.n_samples)
                expect = fold_phases(*grid, eye.n_samples, ui)
            else:
                # The merged fold follows its grid's rows: their
                # phases once per channel.
                expect = np.tile(fold_phases(*rows[0], rows[1], ui), 3)
            assert eye.phases.dtype == np.float64, name
            assert np.array_equal(eye.phases.view(np.uint64),
                                  expect.view(np.uint64)), name

    @pytest.mark.parametrize("n_samples", [2400, 2537],
                             ids=["whole-periods", "partial-period"])
    @pytest.mark.parametrize("phase,half_window", [
        (0.0, 20.0),       # straddles the wrap
        (395.5, 10.0),     # straddles it from the top
        (399.999, 0.5),
        (-30.0, 40.0),     # outside [0, UI)
        (200.0, 20.0),
        (123.4, 0.0),
        (10.0, 99.0),      # just under a quarter UI: candidate runs
        (10.0, 100.0),     # a quarter UI: every sample
        (10.0, 200.0),     # half a UI: every sample
        (10.0, 250.0),
        (300.0, 1e9),
    ])
    def test_matches_full_mask(self, n_samples, phase, half_window):
        """Phase and window are ps at 400 ps UI, scaled to each
        fold's UI."""
        for name, eye, _ in _folds(n_samples, 2):
            scale = eye.unit_interval / 400.0
            got = eye.samples_near_phase(phase * scale,
                                         half_window * scale)
            assert got.dtype == np.float64
            assert np.array_equal(
                got, _mask_samples(eye, phase * scale,
                                   half_window * scale)), name

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
            scale = eye.unit_interval / 400.0
            assert np.array_equal(
                eye.samples_near_phase(phase * scale,
                                       half_window * scale),
                _mask_samples(eye, phase * scale,
                              half_window * scale)), name

    @given(
        rate=st.floats(0.5, 12.0),
        dt=st.floats(0.5, 25.0),
        length_ui=st.floats(6.0, 12.0),
        t0=st.floats(-500.0, 500.0),
        first_bit_ui=st.floats(-2.0, 1.0),
        phase_ui=st.floats(-1.0, 2.0),
        window_ui=st.floats(0.0, 0.75),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_grid_matches_full_mask(self, rate, dt, length_ui, t0,
                                        first_bit_ui, phase_ui,
                                        window_ui, seed):
        """Any rate, sample grid, record start and fold origin."""
        ui = 1000.0 / rate
        n = int(length_ui * ui / dt)
        t_first_bit = t0 + first_bit_ui * ui
        values = np.random.default_rng(seed).normal(0.0, 0.3, (2, n))
        eyes = EyeDiagram.from_batch(WaveformBatch(values, dt=dt, t0=t0),
                                     rate, t_first_bit=t_first_bit)
        i0 = max(0, int(np.ceil((t_first_bit + ui - t0) / dt)))
        grid = (t0 + i0 * dt - t_first_bit, dt)
        for eye in eyes:
            assert eye._grid == grid
            got = eye.samples_near_phase(phase_ui * ui, window_ui * ui)
            assert "_phases" not in vars(eye)
            assert np.array_equal(
                got, _mask_samples(eye, phase_ui * ui, window_ui * ui))
            expect = fold_phases(*grid, eye.n_samples, ui)
            assert np.array_equal(eye.phases.view(np.uint64),
                                  expect.view(np.uint64))

    def test_constructor_eye_reads_every_sample(self):
        """Phases with no grid: a constructor-built eye must not
        assume one."""
        rng = np.random.default_rng(3)
        eye = EyeDiagram(rng.uniform(0.0, 400.0, 3000),
                         rng.normal(0.0, 0.3, 3000), 400.0,
                         np.array([1.0]), 0.0)
        assert eye._grid is None
        for phase, half_window in ((0.0, 20.0), (250.0, 35.0)):
            assert np.array_equal(
                eye.samples_near_phase(phase, half_window),
                _mask_samples(eye, phase, half_window))

    def test_phases_are_read_only(self):
        _, eye, _ = _folds(2537, 4)[0]
        with pytest.raises(AttributeError):
            eye.phases = np.zeros(eye.n_samples)

    def test_unstamped_pickle_reads_every_sample(self):
        """A fold pickled before diagrams carried a grid (an existing
        disk cache) loads with explicit phases: the layout with a
        ``phases`` array and a ``_period`` stamp, and the older one
        with ``phases`` only."""
        for name, eye, grid in _folds(2537, 4):
            state = {"phases": eye.phases.copy(),
                     "voltages": eye.voltages,
                     "unit_interval": eye.unit_interval,
                     "crossing_phases": eye.crossing_phases,
                     "threshold": eye.threshold}
            period = None if grid is None else fold_period(
                grid[1], eye.n_samples, eye.unit_interval)
            for layout in ({**state, "_period": period}, state):
                written = EyeDiagram.__new__(EyeDiagram)
                written.__dict__.update(layout)
                old = pickle.loads(pickle.dumps(written))
                assert old._grid is None, name
                assert "_period" not in vars(old), name
                assert np.array_equal(old.phases, state["phases"]), name
                for phase, half_window in ((5.0, 30.0), (200.0, 1.5)):
                    assert np.array_equal(
                        old.samples_near_phase(phase, half_window),
                        _mask_samples(old, phase, half_window)), name

    def test_stamped_pickle_round_trip(self):
        """A grid-stamped fold pickles with its stamp, before and
        after its phases were first read."""
        for name, eye, grid in _folds(2537, 6):
            before = pickle.loads(pickle.dumps(eye))
            phases = eye.phases  # built and kept by the first read
            after = pickle.loads(pickle.dumps(eye))
            for again in (before, after):
                assert again._grid == grid, name
                assert np.array_equal(again.phases, phases), name
                assert np.array_equal(
                    again.samples_near_phase(7.0, 25.0),
                    eye.samples_near_phase(7.0, 25.0)), name
