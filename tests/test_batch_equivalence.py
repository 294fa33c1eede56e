"""Golden equivalence suite for the batched signal path.

The scalar entry points of the NRZ, LTI, fold, and accumulator
stages are one-row calls into the batched ones, and the crosstalk
dict form stacks its channels into the coupling block, so each stage
is checked against an independent reference that does not call the
production batch code: the single-record ``render_nrz`` and
``_reference_sosfilt_batch`` kept in
``tests/test_kernels_equivalence.py``, a fold built on
``threshold_crossings``, a one-shot ``np.histogram2d`` density, and
a per-pair ``coupled_noise`` sum for crosstalk. The contract per
stage:

* NRZ render, LTI filtering, eye folding, and accumulator grids are
  **bit-identical** per row (shared kernels, per-row disjoint
  reductions), and so are the scalar entry points.
* Crosstalk mixing reorders float additions (one matrix product
  instead of sequential per-pair adds) and is pinned to the
  documented tolerances ``XTALK_EQUIVALENCE_RTOL/ATOL``.
* Jittered multi-row renders equal sequential one-row calls that
  share one generator, bitwise, because every built jitter budget
  draws from the RNG once per call. The test bed's block slot render
  is pinned bitwise to a per-channel loop on that basis.

Batch calls never consult the artifact cache; the single-row calls
are each stage's cached route. ``TestBatchCallsUnderCache`` checks
both halves per stage on both kernel sets, and the digest literals
pinned at the bottom guard the on-disk key format of the single-row
entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as artifact_cache
from repro.cache import ArtifactCache
from repro.channel.crosstalk import (
    XTALK_EQUIVALENCE_ATOL,
    XTALK_EQUIVALENCE_RTOL,
    CouplingSpec,
    CrosstalkMatrix,
    coupled_noise,
)
from repro.channel.lti import IdealChannel, LTIChannel
from repro.errors import ConfigurationError, MeasurementError
from repro.eye import EyeAccumulator, EyeDiagram
from repro.eye._binning import fold_phases
from repro.signal.analysis import threshold_crossings
from repro.signal.edges import EdgeShape
from repro.signal.jitter import CompositeJitter, JitterBudget, RandomJitter
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform, WaveformBatch
from repro._units import unit_interval_ps
from tests.test_kernels_equivalence import (  # noqa: F401
    _reference_sosfilt_batch,
    array_ops,
    render_nrz,
)

#: Every batched-vs-scalar identity must hold on the production array
#: kernels and on the plain reference ops alike.
pytestmark = pytest.mark.usefixtures("array_ops")


# -- strategies -----------------------------------------------------------

bit_blocks = st.integers(0, 2 ** 31 - 1).flatmap(
    lambda seed: st.tuples(st.integers(1, 6), st.integers(1, 40)).map(
        lambda shape: np.random.default_rng(seed).integers(
            0, 2, size=shape, dtype=np.int8)
    )
)

edge_shapes = st.sampled_from(list(EdgeShape))


def _reference_encode(enc, bits):
    """A clean ``enc.encode(bits)`` (one UI of padding) through the
    single-record reference render, with edges found by its own
    diff."""
    bits = np.asarray(bits).astype(np.int8)
    ui = enc.unit_interval
    t_start = -ui
    n = int(round((len(bits) * ui + ui - t_start) / enc.dt)) + 1
    change = np.flatnonzero(np.diff(bits))
    times = (change + 1).astype(np.float64) * ui
    directions = np.where(bits[change + 1] > bits[change], 1.0, -1.0)
    swing = enc.v_high - enc.v_low
    values = render_nrz(n, t_start, enc.dt,
                        enc.v_low + swing * float(bits[0]), swing,
                        times, directions, enc.t20_80, enc.shape)
    return Waveform(values, dt=enc.dt, t0=t_start)


def _reference_lti(channel, wf):
    """``channel.apply(wf)`` through the reference Bessel filter,
    designed on every call."""
    f_nyquist = 0.5 / (wf.dt * 1e-12)
    f_cut = channel.bandwidth_ghz * 1e9
    if f_cut >= f_nyquist:
        return Waveform(channel.gain * wf.values, dt=wf.dt,
                        t0=wf.t0 + channel.delay_ps)
    n_imp = min(len(wf), max(64, int(16.0 * f_nyquist / f_cut)))
    filtered, delay = _reference_sosfilt_batch(
        wf.values[None], channel.order, f_cut / f_nyquist, n_imp)
    return Waveform(channel.gain * filtered[0], dt=wf.dt,
                    t0=wf.t0 + channel.delay_ps - delay * wf.dt)


def _reference_fold(wf, rate_gbps):
    """``(threshold, phases, voltages, crossing_phases)`` of
    ``EyeDiagram.from_waveform(wf, rate_gbps)`` (bit cell 0 at t=0,
    one UI discarded at each end), built on ``threshold_crossings``."""
    ui = unit_interval_ps(rate_gbps)
    threshold = 0.5 * (wf.min() + wf.max())
    i0 = max(0, int(np.ceil((ui - wf.t0) / wf.dt)))
    i1 = min(len(wf) - 1, int(np.floor((wf.t_end - ui - wf.t0) / wf.dt)))
    window = Waveform(wf.values[i0:i1 + 1], dt=wf.dt,
                      t0=wf.t0 + i0 * wf.dt)
    phases = fold_phases(window.t0, wf.dt, len(window), ui)
    crossings = threshold_crossings(window, threshold)
    return threshold, phases, window.values, np.mod(crossings, ui)


def _reference_crosstalk(matrix, waveforms):
    """``matrix.apply(waveforms)`` as a sequential per-pair sum of
    ``coupled_noise`` terms, victims and aggressors in routing order;
    channels missing from *waveforms* neither aggress nor receive."""
    specs = {1: matrix.adjacent, 2: matrix.next_adjacent}
    out = {}
    for i, victim_name in enumerate(matrix.names):
        if victim_name not in waveforms:
            continue
        victim = waveforms[victim_name]
        for j, aggressor_name in enumerate(matrix.names):
            spec = specs.get(abs(i - j))
            if spec is None or aggressor_name not in waveforms:
                continue
            victim = victim + coupled_noise(waveforms[aggressor_name],
                                            spec)
        out[victim_name] = victim
    return out


def _batch_from_bits(bits, rate=2.5, t20_80=72.0,
                     shape=EdgeShape.ERF, dt=1.0,
                     v_low=-0.4, v_high=0.4):
    """``(encoder, batch, per-row reference waveforms)``."""
    enc = NRZEncoder(rate, v_low=v_low, v_high=v_high,
                     t20_80=t20_80, shape=shape, dt=dt)
    batch = enc.encode_batch(bits)
    rows = [_reference_encode(enc, bits[i]) for i in range(len(bits))]
    return enc, batch, rows


class TestNRZGoldenEquivalence:
    """encode_batch rows and per-channel encode == the reference
    render, bitwise."""

    @given(bits=bit_blocks, t20_80=st.sampled_from(
        [0.0, 40.0, 72.0, 120.0]), shape=edge_shapes)
    @settings(max_examples=30, deadline=None)
    def test_rows_bit_identical(self, bits, t20_80, shape):
        enc, batch, rows = _batch_from_bits(bits, t20_80=t20_80,
                                            shape=shape)
        assert batch.n_channels == len(bits)
        for i, ref in enumerate(rows):
            assert batch.dt == ref.dt and batch.t0 == ref.t0
            assert np.array_equal(batch.values[i], ref.values)
            wf = enc.encode(bits[i])
            assert wf.dt == ref.dt and wf.t0 == ref.t0
            assert np.array_equal(wf.values, ref.values)

    def test_single_channel_batch(self):
        bits = np.array([[0, 1, 1, 0, 1, 0, 1, 1]])
        _, batch, rows = _batch_from_bits(bits)
        assert batch.n_channels == 1
        assert np.array_equal(batch.values[0], rows[0].values)

    def test_single_bit_rows(self):
        """One bit per row: no edges, pure rail hold."""
        bits = np.array([[0], [1], [1]])
        _, batch, rows = _batch_from_bits(bits)
        for i, ref in enumerate(rows):
            assert np.array_equal(batch.values[i], ref.values)

    def test_constant_bit_rows_render_base_level(self):
        """Rows without a single edge hold their base level exactly,
        wherever they sit among rows that do switch."""
        bits = np.zeros((32, 64), dtype=np.int8)
        bits[:8] = np.random.default_rng(11).integers(
            0, 2, size=(8, 64), dtype=np.int8)
        bits[20:] = 1
        _, batch, rows = _batch_from_bits(bits, dt=25.0, rate=10.0)
        for i, ref in enumerate(rows):
            assert np.array_equal(batch.values[i], ref.values)
        assert np.all(batch.values[8:20] == -0.4)
        assert np.all(batch.values[20:] == 0.4)

    def test_empty_batch(self):
        """Zero channels is a valid (degenerate) batch."""
        enc = NRZEncoder(2.5, t20_80=72.0)
        batch = enc.encode_batch(np.empty((0, 8), dtype=np.int8))
        assert batch.n_channels == 0
        assert batch.n_samples > 0  # time axis still rendered

    def test_empty_bit_axis_rejected(self):
        enc = NRZEncoder(2.5)
        with pytest.raises(ConfigurationError):
            enc.encode_batch(np.empty((3, 0), dtype=np.int8))
        with pytest.raises(ConfigurationError):
            enc.encode_batch(np.zeros(8, dtype=np.int8))  # 1-D

    def test_mixed_seeds_per_row(self):
        """Rows from unrelated generators still match their refs."""
        bits = np.stack([
            np.random.default_rng(s).integers(0, 2, 64, dtype=np.int8)
            for s in (1, 7, 42, 1234)
        ])
        _, batch, rows = _batch_from_bits(bits, t20_80=0.0)
        for i, ref in enumerate(rows):
            assert np.array_equal(batch.values[i], ref.values)

    def test_jittered_batch_statistics(self):
        """Jitter moves the edges but not the rails. (How the rows'
        draws line up with a per-row loop is pinned in
        ``TestJitteredBlockContract``.)"""
        bits = np.stack([prbs_bits(7, 400) for _ in range(4)])
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        jit = JitterBudget(rj_rms=3.0)
        batch = enc.encode_batch(bits, jitter=jit.build(),
                                 rng=np.random.default_rng(3))
        ref = enc.encode_batch(bits)
        assert batch.values.shape == ref.values.shape
        # Jitter perturbs edges but not the rails.
        assert batch.values.min() == pytest.approx(-0.4, abs=1e-9)
        assert batch.values.max() == pytest.approx(0.4, abs=1e-9)
        assert not np.array_equal(batch.values, ref.values)


class TestLTIGoldenEquivalence:
    """apply_batch rows and per-channel apply == the reference
    filter, bitwise."""

    @given(bits=bit_blocks, bw=st.sampled_from([1.0, 3.0, 8.0, 1e4]),
           loss=st.sampled_from([0.0, 1.5]))
    @settings(max_examples=25, deadline=None)
    def test_rows_bit_identical(self, bits, bw, loss):
        _, batch, rows = _batch_from_bits(bits)
        ch = LTIChannel(bw, attenuation_db=loss, delay_ps=35.0)
        out = ch.apply_batch(batch)
        for i, wf in enumerate(rows):
            ref = _reference_lti(ch, wf)
            assert out.dt == ref.dt and out.t0 == ref.t0
            assert np.array_equal(out.values[i], ref.values)
            got = ch.apply(wf)
            assert got.dt == ref.dt and got.t0 == ref.t0
            assert np.array_equal(got.values, ref.values)

    def test_empty_batch_passes_through(self):
        ch = LTIChannel(3.0)
        batch = WaveformBatch(np.empty((0, 16)), dt=1.0, t0=0.0)
        out = ch.apply_batch(batch)
        assert out.n_channels == 0
        assert out.n_samples == 16

    def test_ideal_channel_batch_is_shift(self):
        _, batch, rows = _batch_from_bits(
            np.array([[0, 1, 0, 1], [1, 1, 0, 0]]))
        out = IdealChannel(delay_ps=120.0).apply_batch(batch)
        assert out.t0 == batch.t0 + 120.0
        assert np.array_equal(out.values, batch.values)


class TestCrosstalkGoldenEquivalence:
    """apply_batch rows and the dict apply == the per-pair reference
    within pinned tolerances."""

    def _names_and_waveforms(self, n_rows, seed=0):
        names = [f"ch{i}" for i in range(n_rows)]
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(n_rows, 48), dtype=np.int8)
        _, batch, rows = _batch_from_bits(bits)
        return names, batch, dict(zip(names, rows))

    @staticmethod
    def _assert_close(got, ref):
        np.testing.assert_allclose(got, ref,
                                   rtol=XTALK_EQUIVALENCE_RTOL,
                                   atol=XTALK_EQUIVALENCE_ATOL)

    @given(n_rows=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict_path(self, n_rows, seed):
        names, batch, waveforms = self._names_and_waveforms(
            n_rows, seed)
        matrix = CrosstalkMatrix(names)
        ref = _reference_crosstalk(matrix, waveforms)
        out = matrix.apply_batch(batch)
        applied = matrix.apply(waveforms)
        assert list(applied) == names
        for i, name in enumerate(names):
            self._assert_close(out.values[i], ref[name].values)
            assert applied[name].dt == ref[name].dt
            assert applied[name].t0 == ref[name].t0
            self._assert_close(applied[name].values, ref[name].values)

    def test_subset_matches_partial_dict(self):
        """Quiet lines: a subset batch and a partial dict couple like
        the reference over the channels present."""
        names, batch, waveforms = self._names_and_waveforms(5, 9)
        matrix = CrosstalkMatrix(names)
        subset = [names[0], names[2], names[3]]
        partial = {n: waveforms[n] for n in subset}
        ref = _reference_crosstalk(matrix, partial)
        out = matrix.apply_batch(
            WaveformBatch.from_waveforms(list(partial.values())),
            names=subset)
        applied = matrix.apply(partial)
        for i, name in enumerate(subset):
            self._assert_close(out.values[i], ref[name].values)
            self._assert_close(applied[name].values, ref[name].values)

    def test_distinct_rise_scales(self):
        names, batch, waveforms = self._names_and_waveforms(4, 2)
        matrix = CrosstalkMatrix(
            names,
            adjacent=CouplingSpec(coupling=0.04, rise_scale_ps=60.0),
            next_adjacent=CouplingSpec(coupling=0.01,
                                       rise_scale_ps=25.0))
        ref = _reference_crosstalk(matrix, waveforms)
        out = matrix.apply_batch(batch)
        for i, name in enumerate(names):
            self._assert_close(out.values[i], ref[name].values)

    def test_empty_dict(self):
        names, _, _ = self._names_and_waveforms(3)
        assert CrosstalkMatrix(names).apply({}) == {}

    def test_rows_on_different_grids_rejected(self):
        names, _, waveforms = self._names_and_waveforms(3)
        waveforms[names[1]] = waveforms[names[1]].shifted(200.0)
        with pytest.raises(ConfigurationError):
            CrosstalkMatrix(names).apply(waveforms)

    def test_row_count_mismatch_rejected(self):
        names, batch, _ = self._names_and_waveforms(3)
        matrix = CrosstalkMatrix(names + ["extra"])
        with pytest.raises(ConfigurationError):
            matrix.apply_batch(batch)


class TestEyeFoldGoldenEquivalence:
    """from_batch (merge=False) rows and per-row from_waveform == the
    reference fold, bitwise."""

    @given(seed=st.integers(0, 100), n_rows=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_rows_bit_identical(self, seed, n_rows):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(n_rows, 200), dtype=np.int8)
        bits[:, 0] = 0
        bits[:, 1] = 1  # guarantee at least one transition per row
        _, batch, rows = _batch_from_bits(bits)
        eyes = EyeDiagram.from_batch(batch, 2.5)
        assert len(eyes) == n_rows
        for eye, wf in zip(eyes, rows):
            threshold, phases, voltages, crossing_phases = \
                _reference_fold(wf, 2.5)
            for got in (eye, EyeDiagram.from_waveform(wf, 2.5)):
                assert got.threshold == threshold
                assert np.array_equal(got.phases, phases)
                assert np.array_equal(got.voltages, voltages)
                assert np.array_equal(got.crossing_phases,
                                      crossing_phases)

    def test_merge_pools_all_rows(self):
        bits = np.random.default_rng(5).integers(
            0, 2, size=(3, 200), dtype=np.int8)
        _, batch, rows = _batch_from_bits(bits)
        merged = EyeDiagram.from_batch(batch, 2.5, merge=True)
        per_row = EyeDiagram.from_batch(batch, 2.5)
        assert merged.n_samples == sum(e.n_samples for e in per_row)
        assert merged.n_crossings == sum(
            e.n_crossings for e in per_row)

    def test_merge_empty_batch_rejected(self):
        batch = WaveformBatch(np.empty((0, 4000)), dt=1.0, t0=0.0)
        with pytest.raises(MeasurementError):
            EyeDiagram.from_batch(batch, 2.5, merge=True)

    def test_short_record_rejected(self):
        batch = WaveformBatch(np.zeros((2, 10)), dt=1.0, t0=0.0)
        with pytest.raises(MeasurementError):
            EyeDiagram.from_batch(batch, 2.5)


class TestAccumulatorBatchEquivalence:
    """Any chunking x any batching folds each row like one
    ``np.histogram2d`` and ``threshold_crossings`` pass over it."""

    def _row_records(self, n_rows=3, n_bits=300, seed=11):
        bits = np.stack([prbs_bits(7, n_bits, seed=s)
                         for s in range(seed, seed + n_rows)])
        _, batch, rows = _batch_from_bits(bits)
        return batch, rows

    @staticmethod
    def _reference(wf, v_range, threshold):
        """``(grid, phase_hist, n_crossings, crossover_phase)`` of
        one whole record, as a 2.5 Gbps ``EyeAccumulator`` with the
        default grids folds it."""
        ui = unit_interval_ps(2.5)
        n_bins, n_phase_bins = 64, 256
        grid, _, _ = np.histogram2d(
            fold_phases(wf.t0, wf.dt, len(wf), ui), wf.values,
            bins=(np.linspace(0.0, ui, n_bins + 1),
                  np.linspace(v_range[0], v_range[1], n_bins + 1)))
        cp = np.mod(threshold_crossings(wf, threshold), ui)
        bins = np.minimum((cp / ui * n_phase_bins).astype(np.int64),
                          n_phase_bins - 1)
        angle = np.arctan2(np.mean(np.sin(2.0 * np.pi * cp / ui)),
                           np.mean(np.cos(2.0 * np.pi * cp / ui)))
        return (grid.astype(np.int64),
                np.bincount(bins, minlength=n_phase_bins), len(cp),
                float(np.mod(angle / (2.0 * np.pi) * ui, ui)))

    @given(chunk=st.integers(31, 5000))
    @settings(max_examples=10, deadline=None)
    def test_batched_chunking_matches_scalar_rows(self, chunk):
        batch, rows = self._row_records()
        v_range = (float(batch.values.min()),
                   float(batch.values.max()))
        acc = EyeAccumulator(2.5, v_range=v_range, threshold=0.0,
                             n_channels=batch.n_channels)
        n = batch.n_samples
        for i in range(0, n, chunk):
            acc.update(WaveformBatch(
                np.ascontiguousarray(batch.values[:, i:i + chunk]),
                dt=batch.dt, t0=batch.t0 + i * batch.dt))
        for k, wf in enumerate(rows):
            grid, phase_hist, n_crossings, crossover = \
                self._reference(wf, v_range, 0.0)
            grid_b, _, _ = acc.density(channel=k)
            assert np.array_equal(grid_b, grid)
            assert np.array_equal(acc.phase_hist[k], phase_hist)
            assert int(acc.n_crossings_per_channel[k]) == n_crossings
            assert int(acc.n_samples_per_channel[k]) == len(wf)
            assert acc.crossover_phase(channel=k) == pytest.approx(
                crossover, abs=1e-9)

    def test_merged_mode_pools_channels_exactly(self):
        batch, rows = self._row_records()
        v_range = (float(batch.values.min()),
                   float(batch.values.max()))
        merged = EyeAccumulator(2.5, v_range=v_range, threshold=0.0)
        merged.update(batch)
        expected = sum(self._reference(wf, v_range, 0.0)[0]
                       for wf in rows)
        assert np.array_equal(merged.grid, expected)
        assert merged.n_samples == batch.values.size

    def test_per_channel_merged_readout_matches_sum(self):
        batch, _ = self._row_records()
        v_range = (float(batch.values.min()),
                   float(batch.values.max()))
        acc = EyeAccumulator(2.5, v_range=v_range, threshold=0.0,
                             n_channels=batch.n_channels)
        acc.update(batch)
        grid_all, _, _ = acc.density()
        assert np.array_equal(grid_all, acc.grid.sum(axis=0))
        assert acc.n_crossings \
            == int(acc.n_crossings_per_channel.sum())

    def test_seam_crossing_detected_per_row(self):
        """A crossing exactly between two batched chunks counts,
        independently per row."""
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0,
                             n_channels=2)
        lo_hi = np.stack([np.full(100, -0.5), np.full(100, 0.5)])
        acc.update(WaveformBatch(lo_hi, dt=1.0, t0=0.0))
        acc.update(WaveformBatch(-lo_hi, dt=1.0, t0=100.0))
        assert acc.n_crossings == 2
        assert list(acc.n_crossings_per_channel) == [1, 1]

    def test_stream_kind_is_sticky(self):
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0)
        acc.update(WaveformBatch(np.zeros((2, 8)), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.update(Waveform(np.zeros(8), dt=1.0, t0=8.0))
        scalar = EyeAccumulator(2.5, v_range=(-1.0, 1.0),
                                threshold=0.0)
        scalar.update(Waveform(np.zeros(8), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            scalar.update(
                WaveformBatch(np.zeros((2, 8)), dt=1.0, t0=8.0))

    def test_channel_count_contracts(self):
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0,
                             n_channels=3)
        with pytest.raises(ConfigurationError):
            acc.update(Waveform(np.zeros(8), dt=1.0, t0=0.0))
        with pytest.raises(MeasurementError):
            acc.update(WaveformBatch(np.zeros((2, 8)), dt=1.0,
                                     t0=0.0))
        merged = EyeAccumulator(2.5, v_range=(-1.0, 1.0),
                                threshold=0.0)
        merged.update(WaveformBatch(np.zeros((2, 8)), dt=1.0,
                                    t0=0.0))
        with pytest.raises(MeasurementError):
            merged.update(WaveformBatch(np.zeros((3, 8)), dt=1.0,
                                        t0=8.0))

    def test_merged_accumulator_rejects_channel_reads(self):
        acc = EyeAccumulator(2.5, v_range=(-1.0, 1.0), threshold=0.0)
        with pytest.raises(ConfigurationError):
            acc.density(channel=0)


def _reference_slot(bed, slot, seed):
    """``bed.transmit_slot(slot, seed)`` one channel at a time, before
    crosstalk: ``transmit_serial`` per high-speed channel (clock,
    data0, ...), then a slow ``encode`` per Frame/Header line, all on
    one shared generator."""
    rng = np.random.default_rng(seed)
    streams = slot.all_channels()
    out = {}
    for name in ["clock"] + [f"data{i}" for i in
                             range(bed.n_data_channels)]:
        out[name] = bed.channels[name].transmit_serial(
            streams[name], bed.rate_gbps, rng=rng)
    slow = NRZEncoder(bed.rate_gbps, v_low=0.0, v_high=2.5,
                      t20_80=400.0)
    for name, bits in streams.items():
        if name.startswith(("frame", "header")):
            out[name] = slow.encode(bits, rng=rng)
    return out


#: Test-bed configurations as ``(constructor kwargs, [(transmitter
#: method, channel, value), ...])``. Each reprogrammed channel cuts
#: the high-speed channels into more same-configuration runs.
SLOT_CONFIGS = {
    "default": ({}, []),
    "swing-data1": ({}, [("set_swing", "data1", 0.6)]),
    "swing-clock": ({}, [("set_swing", "clock", 0.6)]),
    "delay-data2": ({}, [("set_delay_code", "data2", 37)]),
    "two-changed": ({}, [("set_swing", "data1", 0.6),
                         ("set_high_level", "data3", 2.3)]),
    "8-data": ({"n_data_channels": 8}, []),
    "4-gbps": ({"rate_gbps": 4.0}, []),
}


class TestTestbedBatchEquivalence:
    """transmit_slot's block render == the per-channel reference
    loop: bitwise without crosstalk, within the crosstalk tolerances
    with it."""

    @staticmethod
    def _bed_and_slot(config="default", crosstalk=None):
        from repro.core.packetformat import PacketSlot
        from repro.core.testbed import OpticalTestBed

        kwargs, program = SLOT_CONFIGS[config]
        bed = OpticalTestBed(crosstalk=crosstalk, **kwargs)
        for method, channel, value in program:
            getattr(bed.channels[channel], method)(value)
        slot = PacketSlot.random(bed.fmt, address=3,
                                 rng=np.random.default_rng(1))
        return bed, slot

    @pytest.mark.parametrize("config", list(SLOT_CONFIGS))
    def test_bit_identical_to_per_channel_loop(self, config):
        bed, slot = self._bed_and_slot(config)
        for seed in (0, 4):
            got = bed.transmit_slot(slot, seed=seed)
            ref = _reference_slot(bed, slot, seed)
            assert list(got) == list(ref)
            for name, wf in ref.items():
                assert got[name].dt == wf.dt and got[name].t0 == wf.t0
                assert np.array_equal(got[name].values, wf.values)

    def test_channel_set_and_grids_match(self):
        """Every channel in the loop's order (``receive_slot`` draws
        its strobe jitter in dict order), on one shared grid unless a
        delay code moves a channel."""
        bed, slot = self._bed_and_slot("delay-data2")
        got = bed.transmit_slot(slot, seed=4)
        assert list(got) == list(_reference_slot(bed, slot, 4))
        t0s = {name: wf.t0 for name, wf in got.items()}
        assert t0s.pop("data2") != t0s["clock"]
        assert len(set(t0s.values())) == 1
        assert len({(wf.dt, len(wf)) for wf in got.values()}) == 1

    def test_slow_channels_bit_identical(self):
        """Frame and Header are not in the crosstalk matrix, so a
        coupled bed renders them bit-identical to the loop."""
        matrix = CrosstalkMatrix(
            ["data0", "data1", "data2", "data3", "clock"])
        bed, slot = self._bed_and_slot(crosstalk=matrix)
        got = bed.transmit_slot(slot, seed=4)
        ref = _reference_slot(bed, slot, 4)
        for name in ref:
            if name.startswith(("frame", "header")):
                assert np.array_equal(got[name].values,
                                      ref[name].values)

    def test_crosstalk_applies_to_batched_slot(self):
        """The reference loop plus the per-pair crosstalk reference,
        within the crosstalk tolerances, on one run and on three."""
        matrix = CrosstalkMatrix(
            ["data0", "data1", "data2", "data3", "clock"])
        for config in ("default", "swing-data1"):
            bed, slot = self._bed_and_slot(config, crosstalk=matrix)
            got = bed.transmit_slot(slot, seed=4)
            quiet = _reference_slot(bed, slot, 4)
            ref = _reference_crosstalk(
                matrix, {name: quiet[name] for name in matrix.names})
            assert list(got) == list(quiet)
            for name, wf in ref.items():
                np.testing.assert_allclose(
                    got[name].values, wf.values,
                    rtol=XTALK_EQUIVALENCE_RTOL,
                    atol=XTALK_EQUIVALENCE_ATOL)
            assert not np.array_equal(got["data1"].values,
                                      quiet["data1"].values)


class TestOneRowEntryPoints:
    """A jittered scalar call is row 0 of its one-row batch call,
    bitwise, for the same RNG seed."""

    def test_jittered_scalar_calls_equal_one_row_batches(self):
        from repro.dlc.clocking import ClockSignal
        from repro.pecl.buffer import OutputBuffer
        from repro.pecl.serializer import ParallelToSerial
        from repro.pecl.transmitter import PECLTransmitter

        bits = prbs_bits(7, 300)
        jitter = JitterBudget(rj_rms=3.2, dj_pp=23.0).build()
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        buf = OutputBuffer()
        tx = PECLTransmitter(ParallelToSerial(),
                             clock=ClockSignal(2.5, 2.5, "rf"),
                             lane_limit_mbps=800.0)
        tx.set_delay_code(37)  # arms the per-row delay-line path
        pairs = [
            (lambda rng: enc.encode(bits, jitter=jitter, rng=rng),
             lambda rng: enc.encode_batch(bits[None], jitter=jitter,
                                          rng=rng)),
            (lambda rng: buf.drive(bits, 2.5, rng=rng),
             lambda rng: buf.drive_batch(bits[None], 2.5, rng=rng)),
            (lambda rng: tx.transmit_serial(bits, 2.5, rng=rng),
             lambda rng: tx.transmit_serial_batch(bits[None], 2.5,
                                                  rng=rng)),
        ]
        for scalar, batched in pairs:
            wf = scalar(np.random.default_rng(5))
            block = batched(np.random.default_rng(5))
            assert wf.dt == block.dt and wf.t0 == block.t0
            assert np.array_equal(wf.values, block.values[0])


class TestJitteredBlockContract:
    """A k-row jittered render equals k sequential one-row calls that
    share one generator, bitwise, when the jitter model draws from
    the RNG once per call: every ``JitterBudget.build()`` model does
    (only its one ``RandomJitter`` draws). ``OpticalTestBed
    .transmit_slot`` renders its channel runs as blocks on this
    basis."""

    BUDGETS = {
        "rj-dj": JitterBudget(rj_rms=3.2, dj_pp=23.0),
        "rj-dj-dcd-pj": JitterBudget(rj_rms=3.2, dj_pp=23.0,
                                     dcd_pp=6.0, pj_pp=8.0,
                                     pj_frequency_ghz=0.3),
    }

    #: Two PRBS rows around an edge-free one.
    BITS = np.stack([prbs_bits(7, 300, seed=1),
                     np.ones(300, dtype=np.uint8),
                     prbs_bits(7, 300, seed=2)])

    @staticmethod
    def _loop(one_row, bits):
        """*one_row* called on each row in turn, on one generator."""
        rng = np.random.default_rng(5)
        return [one_row(row, rng) for row in bits]

    @pytest.mark.parametrize("budget", list(BUDGETS))
    def test_block_equals_sequential_one_row_calls(self, budget,
                                                   monkeypatch):
        from repro.dlc.clocking import ClockSignal
        from repro.pecl.buffer import OutputBuffer
        from repro.pecl.serializer import ParallelToSerial
        from repro.pecl.transmitter import PECLTransmitter

        budget = self.BUDGETS[budget]
        jitter = budget.build()
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        buf = OutputBuffer()
        tx = PECLTransmitter(ParallelToSerial(),
                             clock=ClockSignal(2.5, 2.5, "rf"),
                             lane_limit_mbps=800.0)
        tx.set_delay_code(37)  # arms the per-row delay-line path
        monkeypatch.setattr(tx, "path_jitter_budget", lambda: budget)
        pairs = [
            (lambda b, rng: enc.encode_batch(b, jitter=jitter, rng=rng),
             lambda row, rng: enc.encode(row, jitter=jitter, rng=rng)),
            (lambda b, rng: buf.drive_batch(b, 2.5, extra_jitter=budget,
                                            rng=rng),
             lambda row, rng: buf.drive(row, 2.5, extra_jitter=budget,
                                        rng=rng)),
            (lambda b, rng: tx.transmit_serial_batch(b, 2.5, rng=rng),
             lambda row, rng: tx.transmit_serial(row, 2.5, rng=rng)),
        ]
        for render_block, one_row in pairs:
            block = render_block(self.BITS, np.random.default_rng(5))
            for k, wf in enumerate(self._loop(one_row, self.BITS)):
                assert wf.dt == block.dt and wf.t0 == block.t0
                assert np.array_equal(wf.values, block.values[k])

    def test_two_draws_per_call_break_loop_order(self):
        """The condition is needed: two random parts draw twice per
        call, each over every row, so the loop interleaves them
        differently."""
        jitter = CompositeJitter([RandomJitter(3.0), RandomJitter(2.0)])
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        block = enc.encode_batch(self.BITS, jitter=jitter,
                                 rng=np.random.default_rng(5))
        rows = self._loop(
            lambda row, rng: enc.encode(row, jitter=jitter, rng=rng),
            self.BITS)
        assert not all(np.array_equal(wf.values, block.values[k])
                       for k, wf in enumerate(rows))


def _assert_bitwise(a, b):
    """Two waveforms, or two eye diagrams, agree bit for bit in every
    output-determining field."""
    if isinstance(a, Waveform):
        fields = ("values", "dt", "t0")
    else:
        fields = ("phases", "voltages", "crossing_phases",
                  "unit_interval", "threshold")
    for name in fields:
        x, y = (np.atleast_1d(getattr(out, name)) for out in (a, b))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestBatchCallsUnderCache:
    """Inside a ``use_cache`` scope a stage's batch call computes, bit
    for bit the uncached call, and leaves the cache untouched. Its
    single-row call is the cached route: one entry per row, equal bit
    for bit to that row of the batch call, with zero-copy hits."""

    BITS = np.array([
        [0, 1, 1, 0, 1, 0, 0, 1] * 8,
        [1, 0, 1, 1, 0, 0, 1, 0] * 8,
        [0, 0, 1, 0, 1, 1, 0, 1] * 8,
    ], dtype=np.int8)
    ENC = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
    CH = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)
    STAGES = ("nrz", "lti", "eye")

    def _stage(self, name):
        """``(batch call, single-row call, batch input, row inputs)``
        of stage *name*, with the inputs computed outside any scope."""
        if name == "nrz":
            return (self.ENC.encode_batch, self.ENC.encode, self.BITS,
                    list(self.BITS))
        rendered = self.ENC.encode_batch(self.BITS)
        if name == "lti":
            return (self.CH.apply_batch, self.CH.apply, rendered,
                    rendered.waveforms())
        filtered = self.CH.apply_batch(rendered)
        return (lambda batch: EyeDiagram.from_batch(batch, 2.5),
                lambda wf: EyeDiagram.from_waveform(wf, 2.5),
                filtered, filtered.waveforms())

    @staticmethod
    def _rows(out):
        """A batch call's per-row outputs."""
        return out.waveforms() if isinstance(out, WaveformBatch) else out

    @pytest.mark.parametrize("stage", STAGES)
    def test_batch_call_computes_and_leaves_cache_untouched(self, stage):
        batch_call, _, block, _ = self._stage(stage)
        plain = self._rows(batch_call(block))
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            outs = [self._rows(batch_call(block)) for _ in range(2)]
        assert not any(cache.stats().values())
        for rows in outs:
            assert len(rows) == len(plain)
            for got, ref in zip(rows, plain):
                _assert_bitwise(got, ref)

    @pytest.mark.parametrize("stage", STAGES)
    def test_single_row_calls_equal_batch_rows(self, stage):
        batch_call, row_call, block, inputs = self._stage(stage)
        plain = self._rows(batch_call(block))
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            cold = [row_call(x) for x in inputs]
            warm = [row_call(x) for x in inputs]
        n = len(inputs)
        stats = cache.stats()
        assert (stats["misses"], stats["stores"], stats["hits"]) \
            == (n, n, n)
        for first, again, ref in zip(cold, warm, plain):
            assert again is first  # a hit is the stored artifact
            _assert_bitwise(first, ref)

    @pytest.mark.parametrize("stage", STAGES)
    def test_batch_call_ignores_single_row_entries(self, stage):
        """Entries stored by the single-row calls on the same rows are
        not read by the batch call: it computes its own outputs."""
        batch_call, row_call, block, inputs = self._stage(stage)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            refs = [row_call(x) for x in inputs]
            before = cache.stats()
            rows = self._rows(batch_call(block))
        assert cache.stats() == before
        for got, ref in zip(rows, refs):
            assert got is not ref
            if isinstance(got, Waveform):
                assert not np.shares_memory(got.values, ref.values)
            _assert_bitwise(got, ref)

    @pytest.mark.parametrize("stage", ["lti", "eye"])
    def test_batch_rows_key_downstream_by_content(self, stage):
        """A batch row carries no provenance token, so a single-row
        call keys it by a digest of its samples; a single-row
        upstream output keys by its producing config. The same
        samples reached both ways make two entries, bit for bit
        equal."""
        _, row_call, _, inputs = self._stage(stage)
        row = inputs[1]
        assert row.cache_token() == Waveform(
            row.values.copy(), dt=row.dt, t0=row.t0).cache_token()
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            upstream = self.ENC.encode(self.BITS[1])
            if stage == "eye":
                upstream = self.CH.apply(upstream)
            n_upstream = cache.stats()["stores"]
            via_batch = row_call(row)
            via_single = row_call(upstream)
        assert upstream.cache_token() != row.cache_token()
        stats = cache.stats()
        assert stats["stores"] == n_upstream + 2 and stats["hits"] == 0
        _assert_bitwise(via_batch, via_single)

    @pytest.mark.parametrize("budget", [
        JitterBudget(rj_rms=3.2, dj_pp=23.0),
        JitterBudget(dj_pp=23.0),
    ], ids=["rj-dj", "dj-only"])
    def test_jittered_render_bypasses_cache(self, budget):
        """A jittered single-row render neither reads nor stores an
        entry, also for a model that draws nothing from the RNG: the
        key does not cover the jitter model. It stays row 0 of the
        one-row batch render for the same RNG."""
        jitter = budget.build()
        bits = self.BITS[0]
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            clean = self.ENC.encode(bits)
            before = cache.stats()
            got = [self.ENC.encode(bits, jitter=jitter,
                                   rng=np.random.default_rng(5))
                   for _ in range(2)]
        assert cache.stats() == before
        block = self.ENC.encode_batch(bits[None], jitter=jitter,
                                      rng=np.random.default_rng(5))
        for wf in got:
            assert not np.array_equal(wf.values, clean.values)
            _assert_bitwise(wf, block.row(0))

    def test_ideal_channel_shifts_without_cache(self):
        """``IdealChannel`` overrides both calls with a delay shift:
        neither filters nor touches the cache."""
        ch = IdealChannel(delay_ps=50.0)
        rendered = self.ENC.encode_batch(self.BITS)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            batch = ch.apply_batch(rendered)
            rows = [ch.apply(wf) for wf in rendered.waveforms()]
        assert not any(cache.stats().values())
        assert batch.t0 == rendered.t0 + 50.0
        assert np.array_equal(batch.values, rendered.values)
        for got, ref in zip(rows, batch.waveforms()):
            _assert_bitwise(got, ref)


class TestCacheKeyRegression:
    """Pin the digest format: a disk cache, and the ``process``
    executor clones that share its directory, read entries that
    other runs wrote, so the single-row key formulas must never
    drift."""

    def test_nrz_encoder_config_digest_pinned(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        assert enc.cache_key() \
            == "fe85d0718ad14edb640e6ad40df5931647d296b1"

    def test_lti_channel_config_digest_pinned(self):
        ch = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)
        assert ch.cache_key() \
            == "ccfaac43ab5c148fb5d5dbb266763c463b1fbb07"

    def test_nrz_render_row_digest_pinned(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8)
        key = artifact_cache.canonical_digest(
            "nrz.encode", enc.cache_key(), bits, 1.0)
        assert key == "41fbadb5b01f6be67aeb679f91f1436478ee2b76"

    def test_stage_row_keys_pinned(self):
        """The keys the single-row calls store under: the render's is
        the digest above, the filter's composes the render's token,
        and the fold's composes the filter's."""
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        ch = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            rendered = enc.encode(bits)
            filtered = ch.apply(rendered)
            EyeDiagram.from_waveform(filtered, 2.5)
        assert rendered.cache_token() \
            == "41fbadb5b01f6be67aeb679f91f1436478ee2b76"
        assert filtered.cache_token() \
            == "ba0f35acf0c8374dc87c759d3ee35e3d15901910"
        assert "9e6f237950478f2a611f62a027f39c785aa57807" in cache
        assert len(cache) == 3

    def test_content_token_digest_pinned(self):
        """A waveform without a provenance token, a batch row among
        them, keys by a digest of ``(values, dt, t0)``."""
        wf = WaveformBatch(np.array([[0.0, 0.25, 0.5, 0.25]]),
                           dt=2.0, t0=-5.0).row(0)
        assert wf.cache_token() \
            == "5e2a34408873a09df2125821665fed9b0f6485d1"
