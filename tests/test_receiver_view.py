"""The strobe-only receive path equals the dense one, bit for bit.

:class:`repro.pecl.buffer.ProcessedView` limits and Gaussian-filters
only the samples a strobe reads; these tests pin it against
``OutputBuffer.process(wf).values_at(t)`` across buffer grades,
sample spacings and strobe placements, and pin the receive path
built on it (loopback and coded-loopback BER counts, link stats)
against the same receiver strobing the dense record.
"""

import tracemalloc

import numpy as np
import pytest

import repro.pecl.receiver as receiver_mod
from repro.core.minitester import MiniTester
from repro.pecl.buffer import (
    BufferSpec, CMOS_BUFFER, MINI_IO_BUFFER, OutputBuffer,
    ProcessedView, SIGE_BUFFER,
)
from repro.signal.waveform import Waveform

INSTANT = BufferSpec(name="instant", t20_80=0.0, rj_rms=0.0,
                     dj_pp=0.0, max_rate_gbps=10.0)
GRADES = [MINI_IO_BUFFER, SIGE_BUFFER, CMOS_BUFFER, INSTANT]


def _record(n, dt, seed=0):
    """A noisy analog record that crosses its midpoint often."""
    rng = np.random.default_rng(seed)
    values = np.repeat(rng.integers(0, 2, n // 40 + 1), 40)[:n] \
        + 0.3 * rng.standard_normal(n)
    return Waveform(values, dt=dt, t0=-17.3)


def _instants(wf, rng):
    """Strobe times between samples, exactly on samples, and
    before and after the record."""
    n = len(wf)
    between = wf.t0 + wf.dt * rng.uniform(0, n - 1, 400)
    on = wf.t0 + wf.dt * np.arange(0, n, 7)
    outside = np.array([wf.t0 - 1e6, wf.t0 - 0.3 * wf.dt,
                        wf.t_end + 0.4 * wf.dt, wf.t_end + 1e6,
                        wf.t0, wf.t_end])
    return np.concatenate([between, on, outside])


def _assert_bitwise(buffer, wf, t):
    got = ProcessedView(buffer, wf).values_at(t)
    want = buffer.process(wf).values_at(t)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want), np.max(np.abs(got - want))


class TestProcessedView:
    @pytest.mark.parametrize("spec", GRADES, ids=lambda s: s.name)
    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.5])
    def test_bitwise_equal_to_dense(self, spec, dt):
        wf = _record(3000, dt)
        _assert_bitwise(OutputBuffer(spec), wf,
                        _instants(wf, np.random.default_rng(1)))

    @pytest.mark.parametrize("spec", GRADES, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [1, 2, 5, 100, 284])
    def test_records_shorter_than_the_filter(self, spec, n):
        # The 120 ps grade's filter reaches 285 samples either side.
        wf = _record(n, 1.0, seed=n)
        _assert_bitwise(OutputBuffer(spec), wf,
                        _instants(wf, np.random.default_rng(n)))

    def test_unsorted_repeated_and_nan_instants(self):
        wf = _record(2000, 1.0)
        t = np.array([900.5, 12.25, 900.5, np.nan, 1500.0, 12.25])
        got = ProcessedView(OutputBuffer(), wf).values_at(t)
        want = OutputBuffer().process(wf).values_at(t)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("t", [[-50.0], [1e9], [400.25], [400.0]])
    def test_single_instant(self, t):
        _assert_bitwise(OutputBuffer(MINI_IO_BUFFER), _record(2000, 1.0),
                        np.array(t))

    @pytest.mark.parametrize("t", [400.3, [[3.5, 1200.0], [-9.0, 7.25]]])
    def test_scalar_and_2d_instants(self, t):
        _assert_bitwise(OutputBuffer(MINI_IO_BUFFER), _record(2000, 1.0),
                        np.asarray(t))

    def test_many_blocks_of_strobes(self):
        # More read samples than one block holds.
        wf = _record(60_000, 1.0)
        t = wf.t0 + np.linspace(0, 59_999, 5000)
        _assert_bitwise(OutputBuffer(MINI_IO_BUFFER), wf, t)

    def test_temporaries_stay_one_block(self):
        # A 5 Gbps, 1000-bit loopback record: 202 001 samples (1.6 MB),
        # 1000 strobes. The edge-padded limited record takes one
        # record's bytes and a block of windows about as much again;
        # gathering every strobe's 571-sample window at once would
        # take 9 MB.
        wf = _record(202_001, 1.0)
        t = wf.t0 + 200.0 * np.arange(1000) + 100.3
        view = ProcessedView(OutputBuffer(MINI_IO_BUFFER), wf)
        view.values_at(t[:2])  # taps cached outside the measurement
        tracemalloc.start()
        try:
            view.values_at(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * wf.values.nbytes, peak


@pytest.fixture
def dense_receiver(monkeypatch):
    """Make ``receive_bits`` strobe the whole processed record."""
    def use_dense():
        monkeypatch.setattr(receiver_mod, "ProcessedView",
                            lambda buffer, wf: buffer.process(wf))
    return use_dense


def _codes(rate):
    """Strobe codes in the cell's leading edge, where strobes read
    errors, and at its center."""
    return [0, 1, 2, int(round(500.0 / rate / 10.0))]


class TestLoopbackEquivalence:
    @pytest.mark.parametrize("rate", [1.0, 2.5, 5.0])
    def test_loopback_counts(self, rate, dense_receiver):
        runs = [(seed, code) for seed in (1, 2, 5)
                for code in _codes(rate)]
        tester = MiniTester()
        got = [tester.run_loopback(n_bits=160, seed=s, rate_gbps=rate,
                                   strobe_code=c).ber
               for s, c in runs]
        dense_receiver()
        want = [tester.run_loopback(n_bits=160, seed=s, rate_gbps=rate,
                                    strobe_code=c).ber
                for s, c in runs]
        assert got == want
        assert any(b.n_errors for b in got)  # a real comparison

    @pytest.mark.parametrize("encoding", ["8b10b", "8b10b-scrambled"])
    @pytest.mark.parametrize("rate", [1.0, 3.0, 5.0])
    def test_coded_loopback_counts_and_stats(self, encoding, rate,
                                             dense_receiver):
        runs = [(seed, code) for seed in (1, 4)
                for code in _codes(rate)[1:]]
        tester = MiniTester(encoding=encoding)
        got = [tester.run_coded_loopback(n_bytes=24, seed=s,
                                         rate_gbps=rate, strobe_code=c)
               for s, c in runs]
        dense_receiver()
        want = [tester.run_coded_loopback(n_bytes=24, seed=s,
                                          rate_gbps=rate, strobe_code=c)
                for s, c in runs]
        assert [r.ber for r in got] == [r.ber for r in want]
        assert [r.stats for r in got] == [r.stats for r in want]
        assert any(r.stats.total_errors for r in got)
