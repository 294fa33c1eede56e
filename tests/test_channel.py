"""Tests for electrical channel models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.channel.interposer import CompliantLead, InterposerChannel
from repro.channel.lti import IdealChannel, LTIChannel
from repro.channel.trace import PCBTrace, SMACable
from repro.signal.analysis import rise_time
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits
from repro.eye.diagram import EyeDiagram
from repro.eye.metrics import measure_eye


class TestLTIChannel:
    def test_gain(self):
        assert LTIChannel(10.0, attenuation_db=6.0).gain == \
            pytest.approx(0.501, rel=0.01)

    def test_delay_applied(self):
        """delay_ps must be the channel's only latency: the filter's
        own group delay is compensated, so the 50% crossing moves by
        exactly the declared delay."""
        from repro.signal.analysis import threshold_crossings

        ch = LTIChannel(100.0, delay_ps=123.0)
        wf = bits_to_waveform([0, 1, 1, 1], 2.5, t20_80=40.0)
        t_in = threshold_crossings(wf, 0.5, "rising")[0]
        t_out = threshold_crossings(ch.apply(wf), 0.5, "rising")[0]
        assert t_out - t_in == pytest.approx(123.0, abs=2.0)

    def test_bandwidth_slows_edges(self):
        fast = bits_to_waveform([0, 1, 1, 1, 1, 1], 2.5, t20_80=30.0,
                                dt=0.5)
        slow = LTIChannel(2.0).apply(fast)
        assert rise_time(slow) > rise_time(fast) * 1.5

    def test_wideband_channel_transparent_at_grid(self):
        ch = LTIChannel(1000.0)
        wf = bits_to_waveform([0, 1, 0], 2.5)
        out = ch.apply(wf)
        np.testing.assert_allclose(out.values, wf.values, atol=1e-6)

    def test_attenuation_shrinks_swing(self):
        ch = LTIChannel(100.0, attenuation_db=6.0)
        wf = bits_to_waveform(np.tile([0, 1], 30), 2.5, v_low=-0.4,
                              v_high=0.4)
        out = ch.apply(wf)
        assert out.peak_to_peak() == pytest.approx(
            0.8 * ch.gain, rel=0.05
        )

    def test_isi_closes_eye(self):
        """A channel slower than the data rate must close the eye."""
        bits = prbs_bits(7, 1500)
        wf = bits_to_waveform(bits, 2.5, v_low=-0.4, v_high=0.4,
                              t20_80=50.0)
        clean = measure_eye(EyeDiagram.from_waveform(wf, 2.5))
        degraded_wf = LTIChannel(1.2).apply(wf)
        degraded = measure_eye(EyeDiagram.from_waveform(degraded_wf,
                                                        2.5))
        # A linear-phase (Bessel) channel closes the eye mostly
        # vertically; the crossing jitter grows a little too.
        assert degraded.eye_height < clean.eye_height - 0.1
        assert degraded.jitter_pp > clean.jitter_pp

    def test_isi_estimate_zero_for_fast_channel(self):
        assert LTIChannel(50.0).isi_dj_estimate(2.5) == 0.0

    def test_isi_estimate_grows_for_slow_channel(self):
        slow = LTIChannel(1.0)
        assert slow.isi_dj_estimate(2.5) > 0.0

    def test_cascade(self):
        a = LTIChannel(10.0, attenuation_db=1.0, delay_ps=50.0)
        b = LTIChannel(10.0, attenuation_db=2.0, delay_ps=60.0)
        c = a.cascade(b)
        assert c.bandwidth_ghz == pytest.approx(10.0 / np.sqrt(2.0))
        assert c.attenuation_db == pytest.approx(3.0)
        assert c.delay_ps == pytest.approx(110.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LTIChannel(0.0)
        with pytest.raises(ConfigurationError):
            LTIChannel(1.0, attenuation_db=-1.0)
        with pytest.raises(ConfigurationError):
            LTIChannel(1.0, order=9)

    def test_ideal_channel_passthrough(self):
        wf = bits_to_waveform([0, 1, 0], 2.5)
        out = IdealChannel(delay_ps=10.0).apply(wf)
        np.testing.assert_array_equal(out.values, wf.values)
        assert out.t0 == wf.t0 + 10.0

    def test_empty_record_passes_cleanly(self):
        import warnings

        from repro.signal.waveform import Waveform

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = LTIChannel(3.0, delay_ps=20.0).apply(
                Waveform(np.empty(0), t0=5.0))
        assert len(out) == 0
        assert out.t0 == 25.0

    def test_ideal_channel_under_cache_scope(self):
        """A pure shift never consults the active cache."""
        from repro import cache as artifact_cache

        wf = bits_to_waveform([0, 1, 0], 2.5)
        with artifact_cache.use_cache() as cache:
            out = IdealChannel(delay_ps=10.0).apply(wf)
        np.testing.assert_array_equal(out.values, wf.values)
        assert out.t0 == wf.t0 + 10.0
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0


class TestTraces:
    def test_trace_delay_scales_with_length(self):
        assert PCBTrace(10.0).delay_ps == \
            pytest.approx(2.0 * PCBTrace(5.0).delay_ps)

    def test_trace_bandwidth_inverse_length(self):
        assert PCBTrace(5.0).bandwidth_ghz == \
            pytest.approx(2.0 * PCBTrace(10.0).bandwidth_ghz)

    def test_trace_loss(self):
        assert PCBTrace(10.0).attenuation_db == pytest.approx(1.2)

    def test_cable_low_loss(self):
        assert SMACable(50.0).attenuation_db < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PCBTrace(0.0)
        with pytest.raises(ConfigurationError):
            SMACable(-1.0)


class TestInterposer:
    def test_lead_resonance(self):
        lead = CompliantLead(inductance_nh=0.8, capacitance_pf=0.15)
        # 1/(2 pi sqrt(LC)) ~ 14.5 GHz.
        assert lead.resonance_ghz == pytest.approx(14.5, rel=0.05)

    def test_channel_passes_5g(self):
        """The whole point of the experiment: 5 Gbps must survive
        the interposer + compliant lead path."""
        ch = InterposerChannel()
        bits = prbs_bits(7, 1200)
        wf = bits_to_waveform(bits, 5.0, v_low=1.6, v_high=2.4,
                              t20_80=120.0)
        out = ch.round_trip().apply(wf)
        m = measure_eye(EyeDiagram.from_waveform(out, 5.0))
        assert m.eye_opening_ui > 0.5

    def test_round_trip_doubles_delay(self):
        ch = InterposerChannel()
        assert ch.round_trip().delay_ps == pytest.approx(
            2.0 * ch.delay_ps
        )

    def test_bad_lead_parasitics(self):
        with pytest.raises(ConfigurationError):
            CompliantLead(inductance_nh=0.0)

    def test_sluggish_lead_degrades_5g(self):
        """A much more inductive lead (worse compliant structure)
        must visibly degrade the 5 Gbps eye vs the nominal lead."""
        nominal = InterposerChannel()
        bad = InterposerChannel(
            lead=CompliantLead(inductance_nh=8.0, capacitance_pf=1.0)
        )
        bits = prbs_bits(7, 1000)
        wf = bits_to_waveform(bits, 5.0, v_low=1.6, v_high=2.4,
                              t20_80=120.0)
        m_nom = measure_eye(EyeDiagram.from_waveform(
            nominal.round_trip().apply(wf), 5.0))
        m_bad = measure_eye(EyeDiagram.from_waveform(
            bad.round_trip().apply(wf), 5.0))
        assert m_bad.eye_height < m_nom.eye_height
