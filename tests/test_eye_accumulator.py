"""Tests for the streaming eye accumulator and shared binning.

The equivalence contract under test: any chunking of a record folds
to a density grid identical to ``EyeDiagram.histogram2d`` over the
same axes, and binned metrics land within the documented
quantization of the exact per-sample measurement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MeasurementError
from repro.eye import EyeAccumulator, EyeDiagram, measure_eye
from repro.eye._binning import density_grid, fold_phases
from repro.signal.analysis import threshold_crossings
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform, WaveformBatch


def _record(rate=2.5, n=600, rj=0.0, seed=2):
    from repro.signal.jitter import JitterBudget

    bits = prbs_bits(7, n)
    jitter = JitterBudget(rj_rms=rj).build() if rj else None
    return bits_to_waveform(bits, rate, v_low=-0.4, v_high=0.4,
                            t20_80=72.0, jitter=jitter,
                            rng=np.random.default_rng(seed))


def _window(wf, rate, discard_ui=1):
    ui = 1000.0 / rate
    return wf.slice_time(discard_ui * ui, wf.t_end - discard_ui * ui)


def _feed(acc, win, chunk):
    for i in range(0, len(win), chunk):
        acc.update(Waveform(win.values[i:i + chunk].copy(),
                            dt=win.dt, t0=win.t0 + i * win.dt))
    return acc


class TestFoldPhases:
    def test_matches_direct_mod(self):
        direct = np.mod(37.0 + 1.0 * np.arange(5000), 400.0)
        tiled = fold_phases(37.0, 1.0, 5000, 400.0)
        assert np.allclose(tiled, direct, atol=1e-9)
        assert np.all(tiled >= 0.0) and np.all(tiled < 400.0)

    def test_non_commensurate_grid(self):
        phases = fold_phases(0.0, 0.7, 1000, 400.0)
        direct = np.mod(0.7 * np.arange(1000), 400.0)
        assert np.allclose(phases, direct)

    def test_empty_dtype_pinned(self):
        out = fold_phases(0.0, 1.0, 0, 400.0)
        assert out.dtype == np.float64
        assert len(out) == 0


class TestDensityGrid:
    def test_empty_input_dtypes_pinned(self):
        h, tx, vx = density_grid(np.empty(0), np.empty(0), 400.0, 8, 4)
        assert h.shape == (8, 4)
        assert h.dtype == np.float64
        assert tx.dtype == np.float64 and vx.dtype == np.float64
        assert h.sum() == 0.0

    def test_histogram2d_and_render_share_binning(self):
        """An empty eye renders without raising and histograms to
        all-zero — both through the shared helper."""
        from repro.eye.render import render_eye_ascii

        eye = EyeDiagram(np.empty(0), np.empty(0), 400.0,
                         np.empty(0), 0.0)
        h, _, _ = eye.histogram2d(8, 4)
        assert h.sum() == 0.0
        text = render_eye_ascii(eye, width=8, height=4)
        assert "1 UI" in text


class TestAccumulatorEquivalence:
    @given(chunk=st.integers(37, 4001))
    @settings(max_examples=12, deadline=None)
    def test_any_chunking_matches_one_shot_grid(self, chunk):
        wf = _record()
        eye = EyeDiagram.from_waveform(wf, 2.5)
        v_range = (float(eye.voltages.min()), float(eye.voltages.max()))
        acc = EyeAccumulator(2.5, v_range=v_range,
                             threshold=eye.threshold)
        _feed(acc, _window(wf, 2.5), chunk)
        grid_acc, te, ve = acc.density()
        grid_eye, te2, ve2 = eye.histogram2d(64, 64)
        assert np.array_equal(grid_acc, grid_eye)
        assert np.array_equal(te, te2) and np.array_equal(ve, ve2)
        assert acc.n_samples == eye.n_samples
        assert acc.n_crossings == eye.n_crossings == len(
            threshold_crossings(_window(wf, 2.5), eye.threshold))

    @given(chunk=st.integers(37, 4001))
    @settings(max_examples=8, deadline=None)
    def test_batched_chunking_matches_scalar_stream(self, chunk):
        """A batched stream chunked any way folds each row exactly
        like the scalar stream of test_any_chunking_matches_one_shot
        (the deeper golden suite lives in test_batch_equivalence)."""
        rows = [_record(seed=s) for s in (2, 3)]
        batch = WaveformBatch.from_waveforms(rows)
        v_range = (float(batch.values.min()), float(batch.values.max()))
        acc = EyeAccumulator(2.5, v_range=v_range, threshold=0.0,
                             n_channels=2)
        for i in range(0, batch.n_samples, chunk):
            acc.update(WaveformBatch(
                np.ascontiguousarray(batch.values[:, i:i + chunk]),
                dt=batch.dt, t0=batch.t0 + i * batch.dt))
        for k, wf in enumerate(rows):
            ref = EyeAccumulator(2.5, v_range=v_range, threshold=0.0)
            _feed(ref, wf, 1000)
            grid_b, _, _ = acc.density(channel=k)
            grid_s, _, _ = ref.density()
            assert np.array_equal(grid_b, grid_s)
            assert int(acc.n_crossings_per_channel[k]) \
                == ref.n_crossings

    def test_crossover_phase_exact(self):
        wf = _record(rj=3.0, seed=5)
        eye = EyeDiagram.from_waveform(wf, 2.5)
        acc = EyeAccumulator(
            2.5, v_range=(float(eye.voltages.min()),
                          float(eye.voltages.max())),
            threshold=eye.threshold)
        _feed(acc, _window(wf, 2.5), 1000)
        assert acc.crossover_phase() == pytest.approx(
            eye.crossover_phase(), abs=1e-9)

    def test_metrics_within_quantization(self):
        wf = _record(rj=3.0, seed=7, n=1200)
        eye = EyeDiagram.from_waveform(wf, 2.5)
        exact = measure_eye(eye)
        acc = EyeAccumulator(
            2.5, v_range=(float(eye.voltages.min()),
                          float(eye.voltages.max())),
            threshold=eye.threshold, n_phase_bins=512)
        _feed(acc, _window(wf, 2.5), 4096)
        binned = acc.metrics()
        ui = eye.unit_interval
        phase_q = ui / 512
        volt_q = (eye.voltages.max() - eye.voltages.min()) / 64
        assert binned.jitter_pp == pytest.approx(exact.jitter_pp,
                                                 abs=2 * phase_q)
        assert binned.jitter_rms == pytest.approx(exact.jitter_rms,
                                                  abs=2 * phase_q)
        assert binned.v_high == pytest.approx(exact.v_high,
                                              abs=2 * volt_q)
        assert binned.v_low == pytest.approx(exact.v_low,
                                             abs=2 * volt_q)
        assert binned.eye_height == pytest.approx(exact.eye_height,
                                                  abs=3 * volt_q)
        assert binned.n_crossings == exact.n_crossings

    def test_measure_eye_dispatches_accumulator(self):
        wf = _record()
        eye = EyeDiagram.from_waveform(wf, 2.5)
        acc = EyeAccumulator(
            2.5, v_range=(float(eye.voltages.min()),
                          float(eye.voltages.max())),
            threshold=eye.threshold)
        _feed(acc, _window(wf, 2.5), 2000)
        m = measure_eye(acc)
        assert m.unit_interval == pytest.approx(400.0)
        assert m.n_crossings == acc.n_crossings


class TestAccumulatorContracts:
    def test_chunks_must_be_contiguous(self):
        acc = EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0)
        acc.update(Waveform(np.zeros(10), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.update(Waveform(np.zeros(10), dt=1.0, t0=99.0))

    def test_dt_must_match(self):
        acc = EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0)
        acc.update(Waveform(np.zeros(10), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.update(Waveform(np.zeros(10), dt=2.0, t0=10.0))

    def test_seam_crossing_detected(self):
        """A crossing exactly between two chunks must be counted."""
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0)
        acc.update(Waveform(np.full(100, -0.5), dt=1.0, t0=0.0))
        acc.update(Waveform(np.full(100, 0.5), dt=1.0, t0=100.0))
        assert acc.n_crossings == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            EyeAccumulator(2.5, v_range=(0.5, -0.5), threshold=0.0)
        with pytest.raises(ConfigurationError):
            EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0,
                           n_volt_bins=1)

    def test_too_few_crossings_raises(self):
        acc = EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0)
        acc.update(Waveform(np.zeros(100), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.metrics()

    def test_memory_stays_grid_sized(self):
        """State is the grid — feeding 10x more data grows nothing."""
        acc = EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0)
        wf = _record(n=300)
        win = _window(wf, 2.5)
        _feed(acc, win, 700)
        shape_before = acc.grid.shape
        nbytes = acc.grid.nbytes + acc.phase_hist.nbytes
        acc2 = EyeAccumulator(2.5, v_range=(-0.5, 0.5), threshold=0.0)
        wf2 = _record(n=3000)
        _feed(acc2, _window(wf2, 2.5), 700)
        assert acc2.grid.shape == shape_before
        assert acc2.grid.nbytes + acc2.phase_hist.nbytes == nbytes
        assert acc2.n_samples > 9 * acc.n_samples


class TestSnapshot:
    """Snapshots are detached views: reading one mid-stream (the
    service layer publishes them between chunks) must never change
    what the stream folds to."""

    def test_interleaved_snapshots_do_not_perturb(self):
        wf = _record(n=400)
        win = _window(wf, 2.5)
        plain = EyeAccumulator(2.5, (-0.5, 0.5), 0.0,
                               n_time_bins=16, n_volt_bins=16)
        _feed(plain, win, 500)
        snapped = EyeAccumulator(2.5, (-0.5, 0.5), 0.0,
                                 n_time_bins=16, n_volt_bins=16)
        taken = []
        for i in range(0, len(win), 500):
            snapped.update(Waveform(win.values[i:i + 500].copy(),
                                    dt=win.dt,
                                    t0=win.t0 + i * win.dt))
            taken.append(snapped.snapshot())
        assert np.array_equal(plain.grid, snapped.grid)
        assert np.array_equal(plain.phase_hist, snapped.phase_hist)
        assert plain.n_samples == snapped.n_samples
        assert plain.n_crossings == snapped.n_crossings
        # The final snapshot equals the uninterrupted stream's.
        assert taken[-1] == plain.snapshot()
        # Partials grow monotonically, the stream the service
        # subscribers watch.
        samples = [s["n_samples"] for s in taken]
        assert samples == sorted(samples)
        assert samples[-1] == plain.n_samples

    def test_snapshot_is_detached(self):
        acc = EyeAccumulator(2.5, (-0.5, 0.5), 0.0,
                             n_time_bins=8, n_volt_bins=8)
        _feed(acc, _window(_record(n=200), 2.5), 777)
        snap = acc.snapshot()
        snap["grid"][0][0] += 999
        snap["n_samples"] = -1
        again = acc.snapshot()
        assert again["grid"][0][0] != snap["grid"][0][0]
        assert again["n_samples"] == acc.n_samples

    def test_snapshot_scalar_only_form(self):
        acc = EyeAccumulator(2.5, (-0.5, 0.5), 0.0,
                             n_time_bins=8, n_volt_bins=8)
        _feed(acc, _window(_record(n=200), 2.5), 1000)
        lite = acc.snapshot(include_grid=False)
        assert "grid" not in lite and "phase_hist" not in lite
        assert lite["n_samples"] == acc.n_samples
        assert lite["n_time_bins"] == 8
        assert lite["n_volt_bins"] == 8

    def test_snapshot_json_ready(self):
        import json

        acc = EyeAccumulator(2.5, (-0.5, 0.5), 0.0,
                             n_time_bins=8, n_volt_bins=8)
        _feed(acc, _window(_record(n=200), 2.5), 1000)
        text = json.dumps(acc.snapshot())
        back = json.loads(text)
        assert back["n_samples"] == acc.n_samples
        assert back["grid"] == acc.grid.tolist()

    def test_per_channel_snapshot_selects_row(self):
        wf = _record(n=240)
        win = _window(wf, 2.5)
        batch = WaveformBatch(
            np.stack([win.values, win.values * 0.5]),
            dt=win.dt, t0=win.t0)
        acc = EyeAccumulator(2.5, (-0.5, 0.5), 0.0,
                             n_time_bins=8, n_volt_bins=8,
                             n_channels=2)
        acc.update(batch)
        merged = acc.snapshot()
        ch0 = acc.snapshot(channel=0)
        assert merged["n_samples"] == 2 * ch0["n_samples"]
        assert ch0["grid"] == acc.grid[0].tolist()
