"""Tests for the E/O - O/E path."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.optics.fiber import FiberSpan
from repro.optics.laser import LaserDriver, LaserSpec, WavelengthChannel
from repro.optics.link import OpticalLink
from repro.optics.photodetector import Photodetector
from repro.optics.wdm import WDMDemux, WDMMux, wavelength_grid
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits
from repro.signal.sampling import decide_bits


def _drive(bits=None, rate=2.5, n=64, seed=0):
    if bits is None:
        bits = prbs_bits(7, n, seed=1)
    return bits, bits_to_waveform(bits, rate, v_low=1.6, v_high=2.4,
                                  t20_80=72.0)


class TestLaser:
    def test_power_levels(self):
        spec = LaserSpec(p_high_mw=1.0, extinction_ratio_db=10.0)
        assert spec.p_low_mw == pytest.approx(0.1)

    def test_modulation_tracks_drive(self):
        _, wf = _drive(bits=np.tile([0, 1], 30))
        laser = LaserDriver()
        power = laser.modulate(wf)
        assert power.max() == pytest.approx(1.0, rel=0.1)
        assert power.min() > 0.0  # finite extinction: never dark

    def test_flat_drive_rejected(self):
        laser = LaserDriver()
        flat = bits_to_waveform([1, 1, 1], 2.5, v_low=1.6, v_high=2.4)
        # A constant waveform has no swing.
        from repro.signal.waveform import Waveform

        with pytest.raises(ConfigurationError):
            laser.modulate(Waveform([2.0, 2.0, 2.0]))

    def test_rin_adds_noise(self):
        _, wf = _drive(bits=np.tile([0, 1], 30))
        laser = LaserDriver(LaserSpec(rin_db_hz=-120.0))
        clean = laser.modulate(wf)
        noisy = laser.modulate(wf, rng=np.random.default_rng(0))
        assert not np.array_equal(clean.values, noisy.values)

    def test_static_power(self):
        laser = LaserDriver()
        assert laser.static_power(True) > laser.static_power(False)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LaserSpec(p_high_mw=0.0)
        with pytest.raises(ConfigurationError):
            WavelengthChannel(-1.0, 0)


class TestWDM:
    def test_grid(self):
        grid = wavelength_grid(5)
        assert len(grid) == 5
        assert grid[1].wavelength_nm - grid[0].wavelength_nm == \
            pytest.approx(0.8)

    def test_mux_insertion_loss(self):
        grid = wavelength_grid(2)
        _, wf = _drive()
        mux = WDMMux(insertion_loss_db=3.0)
        combined = mux.combine({grid[0]: wf, grid[1]: wf})
        assert combined[grid[0]].max() == pytest.approx(
            wf.max() * 0.501, rel=0.02
        )

    def test_mux_rejects_duplicate_wavelength(self):
        grid = wavelength_grid(1)
        # A second laser tuned slightly off but on the same grid
        # slot: two distinct keys, one wavelength index.
        dup = WavelengthChannel(grid[0].wavelength_nm + 0.1,
                                grid[0].index)
        _, wf = _drive()
        with pytest.raises(ConfigurationError):
            WDMMux().combine({grid[0]: wf, dup: wf.shifted(1.0)})

    def test_total_power_sums(self):
        grid = wavelength_grid(2)
        _, wf = _drive()
        mux = WDMMux(insertion_loss_db=0.0)
        total = mux.total_power({grid[0]: wf, grid[1]: wf})
        np.testing.assert_allclose(total.values, 2.0 * wf.values,
                                   rtol=1e-9)

    def test_demux_crosstalk(self):
        grid = wavelength_grid(3)
        _, wf = _drive()
        from repro.signal.waveform import Waveform

        dark = Waveform(np.zeros(len(wf)), dt=wf.dt, t0=wf.t0)
        demux = WDMDemux(insertion_loss_db=0.0, isolation_db=20.0)
        out = demux.split({grid[0]: wf, grid[1]: dark, grid[2]: dark})
        # The dark port picks up 1% (=-20 dB) of its neighbour.
        leak = out[grid[1]].max()
        assert leak == pytest.approx(0.01 * wf.max(), rel=0.05)
        # Isolation is adjacent-channel only: two indices away, no
        # leakage at all.
        assert np.all(out[grid[2]].values == 0.0)


class TestFiberAndDetector:
    def test_fiber_delay(self):
        span = FiberSpan(length_m=10.0)
        assert span.delay_ps == pytest.approx(49_000.0)

    def test_fiber_loss_small_for_cluster_scale(self):
        assert FiberSpan(length_m=100.0).loss_db < 0.1

    def test_detector_output_polarity(self):
        _, wf = _drive(bits=np.tile([0, 1], 30))
        power = LaserDriver().modulate(wf)
        volts = Photodetector().detect(power)
        assert volts.max() > volts.min() > 0.0

    def test_sensitivity_reasonable(self):
        # Typical PIN/TIA sensitivity: -25 to -10 dBm.
        s = Photodetector().sensitivity_dbm()
        assert -30.0 < s < -5.0


class TestOpticalLink:
    def test_end_to_end_bits_survive(self):
        link = OpticalLink(n_channels=5)
        bits = {}
        wfs = {}
        for ch in range(5):
            b, wf = _drive(bits=prbs_bits(7, 64, seed=ch + 1))
            bits[ch], wfs[ch] = b, wf
        rx = link.transmit(wfs, rng=np.random.default_rng(2))
        for ch in range(5):
            threshold = 0.5 * (rx[ch].min() + rx[ch].max())
            delay = link.fiber.delay_ps
            got = decide_bits(rx[ch], 2.5, threshold, n_bits=64,
                              t_first_bit=delay)
            np.testing.assert_array_equal(got, bits[ch])

    def test_unknown_channel_rejected(self):
        link = OpticalLink(n_channels=2)
        _, wf = _drive()
        with pytest.raises(ConfigurationError):
            link.transmit({7: wf})

    def test_budget_closes(self):
        assert OpticalLink().budget().closes

    def test_budget_fails_with_huge_loss(self):
        link = OpticalLink(fiber=FiberSpan(length_m=99_000.0,
                                           attenuation_db_per_km=0.25))
        assert not link.budget().closes

    def test_margin_arithmetic(self):
        budget = OpticalLink().budget()
        assert budget.margin_db == pytest.approx(
            budget.rx_power_dbm - budget.sensitivity_dbm
        )
