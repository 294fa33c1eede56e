"""Tests for the self-synchronizing PRBS checker."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dlc.prbs_checker import SelfSyncChecker
from repro.signal.prbs import prbs_bits


class TestSynchronization:
    def test_clean_stream_no_errors(self):
        checker = SelfSyncChecker(order=7)
        state = checker.run(prbs_bits(7, 2000))
        assert state.synchronized
        assert state.errors == 0
        assert state.bits_checked == 2000 - 7

    def test_syncs_from_any_stream_offset(self):
        bits = prbs_bits(7, 3000)
        for offset in (0, 13, 127, 500):
            checker = SelfSyncChecker(order=7)
            state = checker.run(bits[offset:offset + 1000])
            assert state.errors == 0, f"offset {offset}"

    def test_rejects_all_zero_seed(self):
        """A zero run at the start must not fake synchronization."""
        checker = SelfSyncChecker(order=7)
        stream = np.concatenate([np.zeros(20, dtype=np.uint8),
                                 prbs_bits(7, 500)])
        state = checker.run(stream)
        assert state.synchronized
        # After the zeros the checker re-seeds on real data; any
        # transient start-up errors trigger resync, and the tail
        # must be clean: rerun the tail alone to compare.
        tail = SelfSyncChecker(order=7).run(prbs_bits(7, 500))
        assert tail.errors == 0

    @pytest.mark.parametrize("order", [7, 9, 15, 23])
    def test_all_orders(self, order):
        checker = SelfSyncChecker(order=order)
        state = checker.run(prbs_bits(order, 3000))
        assert state.errors == 0


class TestErrorDetection:
    def test_single_error_multiplied_by_taps(self):
        """One flipped channel bit is counted once directly plus
        once per feedback tap as it traverses the register."""
        bits = prbs_bits(7, 2000).copy()
        bits[1000] ^= 1
        checker = SelfSyncChecker(order=7)
        state = checker.run(bits)
        # Two taps: the error appears 1 (direct) + 2 (feedback) = 3
        # times, minus overlaps — textbook value is tap count + 1.
        assert 2 <= state.errors <= 3

    def test_error_positions_independent(self):
        """Two widely separated errors each multiply independently."""
        bits = prbs_bits(7, 4000).copy()
        bits[1000] ^= 1
        bits[3000] ^= 1
        single = SelfSyncChecker(order=7)
        s1 = single.run(prbs_bits(7, 4000))
        double = SelfSyncChecker(order=7)
        s2 = double.run(bits)
        assert s2.errors == 2 * 3 or 4 <= s2.errors <= 6

    def test_ber_accounting(self):
        bits = prbs_bits(7, 10_000).copy()
        rng = np.random.default_rng(5)
        flips = rng.choice(np.arange(100, 9900), size=10,
                           replace=False)
        for f in flips:
            bits[f] ^= 1
        state = SelfSyncChecker(order=7).run(bits)
        # ~3x multiplication on 10 errors over ~10k bits.
        assert 10 <= state.errors <= 35
        assert state.ber == pytest.approx(
            state.errors / state.bits_checked
        )

    def test_wrong_stream_triggers_resync(self):
        """Garbage data cannot stay 'synchronized': consecutive
        errors force resynchronization."""
        rng = np.random.default_rng(0)
        garbage = rng.integers(0, 2, size=2000).astype(np.uint8)
        checker = SelfSyncChecker(order=7, resync_threshold=8)
        state = checker.run(garbage)
        # Random data mispredicts half the time: the checker churns
        # through resyncs rather than accumulating a clean count.
        assert state.errors > 100

    def test_recovers_after_slip(self):
        """A dropped bit (slip) causes a burst, then the checker
        resynchronizes and the tail is clean again."""
        bits = prbs_bits(7, 4000)
        slipped = np.concatenate([bits[:2000], bits[2001:]])
        checker = SelfSyncChecker(order=7, resync_threshold=8)
        state = checker.run(slipped)
        # Errors bounded: the burst + resync, not thousands.
        assert 0 < state.errors < 200


class TestAPI:
    def test_reset(self):
        checker = SelfSyncChecker()
        checker.run(prbs_bits(7, 100))
        checker.reset()
        assert checker.state.bits_in == 0
        assert not checker.state.synchronized

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SelfSyncChecker(order=8)
        with pytest.raises(ConfigurationError):
            SelfSyncChecker(resync_threshold=1)

    def test_push_interface(self):
        checker = SelfSyncChecker(order=7)
        bits = prbs_bits(7, 100)
        errors = sum(checker.push(int(b)) for b in bits)
        assert errors == 0


class TestEndToEnd:
    def test_checker_grades_minitester_loopback(self):
        """The fabric checker grades the mini-tester's received
        stream without any reference alignment."""
        from repro.core.minitester import MiniTester

        mini = MiniTester()
        wf = mini.loopback_waveform(2000, seed=1)
        received = mini.receiver.receive_bits(
            wf, 5.0, 2000, t_first_bit=mini._probe_path().delay_ps,
            rng=np.random.default_rng(2),
        )
        checker = SelfSyncChecker(order=7)
        state = checker.run(received)
        assert state.synchronized
        assert state.errors == 0


class TestSlipEvents:
    def test_self_sync_absorbs_single_slip(self):
        """The self-synchronizing checker recovers from a dropped
        bit on its own: a few multiplied errors, then clean — no
        spurious loss-of-sync event."""
        bits = prbs_bits(7, 6000)
        slipped = np.concatenate([bits[:3000], bits[3001:]])
        checker = SelfSyncChecker(order=7)
        state = checker.run(slipped)
        assert state.slips == 0
        assert 0 < state.errors < 10

    def test_density_detector_fires_on_garbage_at_default(self):
        """Garbage mispredicts only ~half its bits, so the old
        consecutive-error rule essentially never fired at the
        default threshold; the density detector declares the loss
        of sync promptly."""
        rng = np.random.default_rng(3)
        garbage = rng.integers(0, 2, size=2000).astype(np.uint8)
        checker = SelfSyncChecker(order=7)  # default thresholds
        state = checker.run(garbage)
        assert state.slips >= 1

    def test_bert_slip_is_one_event_not_unbounded_errors(self):
        """The fixed-reference BERT: a mid-stream dropped bit used
        to miscompare every subsequent bit (~tail/2 errors); the
        slip-aware measurement reports one slip and a bounded
        error count."""
        from repro.instruments.bert import BitErrorRateTester

        bert = BitErrorRateTester(prbs_order=7)
        bits = bert.pattern(6000)
        slipped = np.concatenate([bits[:3000], bits[3001:]])
        # The old behaviour: roughly half the tail miscompares.
        raw = bert.measure(slipped, auto_align=False)
        assert raw.n_errors > 1000
        res = bert.measure_resync(slipped)
        assert res.slips == 1
        assert res.n_errors < 40
        assert 2900 < res.slip_positions[0] < 3100

    def test_bert_inserted_bit_also_one_slip(self):
        from repro.instruments.bert import BitErrorRateTester

        bert = BitErrorRateTester(prbs_order=7)
        bits = bert.pattern(6000)
        slipped = np.concatenate(
            [bits[:3000], np.array([1], dtype=np.uint8),
             bits[3000:5999]])
        res = bert.measure_resync(slipped)
        assert res.slips == 1
        assert res.n_errors < 40

    def test_bert_clean_and_sparse_errors_report_no_slips(self):
        from repro.instruments.bert import BitErrorRateTester

        bert = BitErrorRateTester(prbs_order=7)
        bits = bert.pattern(4000)
        assert bert.measure_resync(bits) == \
            bert.measure_resync(bits.copy())
        clean = bert.measure_resync(bits)
        assert clean.slips == 0 and clean.n_errors == 0
        # Sparse random errors are errors, not slips.
        noisy = bits.copy()
        noisy[::500] ^= 1
        res = bert.measure_resync(noisy)
        assert res.slips == 0
        assert res.n_errors == len(noisy[::500])

    def test_reset_clears_slips(self):
        rng = np.random.default_rng(3)
        checker = SelfSyncChecker(order=7)
        checker.run(rng.integers(0, 2, size=2000).astype(np.uint8))
        assert checker.state.slips >= 1
        checker.reset()
        assert checker.state.slips == 0

    def test_slip_window_validation(self):
        with pytest.raises(ConfigurationError):
            SelfSyncChecker(slip_window=8, slip_density=16)
        with pytest.raises(ConfigurationError):
            SelfSyncChecker(slip_density=1)
        from repro.instruments.bert import BitErrorRateTester
        bert = BitErrorRateTester()
        with pytest.raises(ConfigurationError):
            bert.measure_resync(np.zeros(100), slip_density=1)
        with pytest.raises(ConfigurationError):
            bert.measure_resync(np.zeros(100), max_slip=0)
