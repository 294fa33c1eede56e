"""Tests for the Mini-Tester system composition."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.minitester import LoopbackResult, MiniTester


@pytest.fixture(scope="module")
def mini():
    return MiniTester(rate_gbps=5.0)


class TestConstruction:
    def test_rf_runs_at_half_rate(self, mini):
        """Figure 15: 1.25 GHz input for 2.5 G halves / 5 G output
        (the model uses rate/2 for the 2:1 mux clock)."""
        assert mini.rf_source.frequency_ghz == pytest.approx(2.5)

    def test_sixteen_lanes(self, mini):
        assert mini.serialization_factor() == 16

    def test_sampler_resolution_10ps(self, mini):
        assert mini.receiver.sampler.resolution == 10.0


class TestEyes:
    def test_figure16_1g0(self, mini):
        """1.0 Gbps: ~50 ps p-p, ~0.95 UI."""
        m = mini.measure_eye(n_bits=3000, seed=2, rate_gbps=1.0)
        assert 0.93 < m.eye_opening_ui < 0.98
        assert 30.0 < m.jitter_pp < 65.0

    def test_figure17_2g5(self, mini):
        """2.5 Gbps: ~0.87 UI."""
        m = mini.measure_eye(n_bits=3000, seed=2, rate_gbps=2.5)
        assert 0.83 < m.eye_opening_ui < 0.92

    def test_figure19_5g0(self, mini):
        """5.0 Gbps: ~0.75 UI, reduced amplitude (Figure 18)."""
        m = mini.measure_eye(n_bits=3000, seed=2, rate_gbps=5.0)
        assert 0.70 < m.eye_opening_ui < 0.82
        assert m.amplitude < 0.75  # the 120 ps edges cost swing

    def test_figure18_rise_time(self, mini):
        """I/O buffer rise time measured at ~120 ps."""
        rise, fall = mini.measure_rise_fall()
        assert 105.0 < rise < 140.0

    def test_eye_shrinks_with_rate(self, mini):
        openings = [
            mini.measure_eye(n_bits=2500, seed=3,
                             rate_gbps=r).eye_opening_ui
            for r in (1.0, 2.5, 5.0)
        ]
        assert openings[0] > openings[1] > openings[2]


class TestLoopback:
    def test_dropped_tester_freed_by_reference_counting(self):
        """No reference cycle holds a tester's DLC after a loopback,
        so dropping the tester frees it without the cycle collector."""
        gc.disable()
        try:
            tester = MiniTester()
            assert tester.run_loopback(n_bits=300, seed=1).passed
            dlc = weakref.ref(tester.dlc)
            del tester
            assert dlc() is None
        finally:
            gc.enable()

    def test_loopback_passes_at_5g(self, mini):
        result = mini.run_loopback(n_bits=1500, seed=1)
        assert isinstance(result, LoopbackResult)
        assert result.passed, str(result.ber)

    def test_loopback_at_lower_rates(self, mini):
        for rate in (1.0, 2.5):
            result = mini.run_loopback(n_bits=800, seed=1,
                                       rate_gbps=rate)
            assert result.passed, f"{rate} Gbps: {result.ber}"

    def test_bad_strobe_position_fails(self, mini):
        """Strobing at the cell boundary (code 0) lands on edges:
        errors must appear."""
        result = mini.run_loopback(n_bits=800, seed=1, strobe_code=0)
        assert result.ber.n_errors > 0

    def test_shmoo_has_pass_window(self, mini):
        results = mini.shmoo_strobe(n_bits=300, seed=1,
                                    n_positions=11)
        outcomes = [r.passed for r in results]
        assert any(outcomes)
        assert not all(outcomes)
        # The pass region is contiguous (one open eye).
        first = outcomes.index(True)
        last = len(outcomes) - 1 - outcomes[::-1].index(True)
        assert all(outcomes[first:last + 1])

    def test_through_dut_flag(self, mini):
        direct = mini.loopback_waveform(200, seed=4,
                                        through_dut=False)
        looped = mini.loopback_waveform(200, seed=4,
                                        through_dut=True)
        assert looped.t0 > direct.t0  # channel delay
