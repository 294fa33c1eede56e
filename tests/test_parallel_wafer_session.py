"""Parallel wafer sort and sharded BER characterization."""

import itertools

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.host.session import BERCharacterization, TestSession
from repro.parallel import Executor
from repro.wafer.dut import WLPDevice
from repro.wafer.map import DieState, WaferMap
from repro.wafer.probe import ProbeCard
from repro.wafer.scheduler import MultiSiteScheduler

N_WORKERS = 2


def small_wafer():
    return WaferMap(diameter_mm=40.0, die_width_mm=6.0,
                    die_height_mm=6.0)


def leaky_dut_factory(pos):
    """Deterministically fail dice on one wafer column."""
    if pos[0] == 0:
        return WLPDevice(bist_fault=(3, 0x4))
    return WLPDevice()


class TestConcurrentWaferSort:
    def test_same_dies_tested_as_serial(self):
        serial = MultiSiteScheduler(
            ProbeCard(n_sites=4, contact_yield=1.0))
        conc = MultiSiteScheduler(
            ProbeCard(n_sites=4, contact_yield=1.0),
            executor=Executor(backend="thread", max_workers=N_WORKERS))
        r1 = serial.sort_wafer(small_wafer(), seed=3)
        r2 = conc.sort_wafer(small_wafer(), seed=3)
        assert r1.dies_tested == r2.dies_tested
        assert r1.touchdowns == r2.touchdowns
        assert {a.die_position for a in r1.assignments} \
            == {a.die_position for a in r2.assignments}

    def test_concurrent_sort_reproducible(self):
        def run():
            sched = MultiSiteScheduler(
                ProbeCard(n_sites=4, contact_yield=1.0),
                executor=Executor(backend="thread",
                                  max_workers=N_WORKERS))
            wafer = small_wafer()
            result = sched.sort_wafer(wafer, seed=7)
            states = [d.state for d in wafer]
            times = sorted(a.test_time_s for a in result.assignments)
            return states, times

        assert run() == run()

    def test_deterministic_defects_found_concurrently(self):
        wafer = small_wafer()
        sched = MultiSiteScheduler(
            ProbeCard(n_sites=2, contact_yield=1.0),
            dut_factory=leaky_dut_factory,
            executor=Executor(backend="thread", max_workers=N_WORKERS))
        sched.sort_wafer(wafer, seed=0)
        for die in wafer:
            expected = DieState.FAILED if die.position[0] == 0 \
                else DieState.PASSED
            assert die.state == expected, die.position

    def test_touchdown_time_is_slowest_site(self):
        sched = MultiSiteScheduler(
            ProbeCard(n_sites=4, contact_yield=1.0),
            executor=Executor(backend="thread", max_workers=N_WORKERS))
        result = sched.sort_wafer(small_wafer(), seed=1)
        # Wall clock must exceed stepping plus one nominal test per
        # touchdown but stay far below the serial sum of all sites.
        n_td = result.touchdowns
        stepping = n_td * sched.card.index_time_s
        assert result.total_time_s > stepping
        serial_sum = stepping + sum(a.test_time_s
                                    for a in result.assignments)
        assert result.total_time_s < serial_sum

    def test_sort_stopped_early_is_a_prefix(self):
        """Closing sort_steps early keeps the touchdowns that ran,
        as the full sort ran them, and counts only those."""
        sched = MultiSiteScheduler(
            ProbeCard(n_sites=2, contact_yield=0.8))
        full = sched.sort_wafer(small_wafer(), seed=4)
        wafer = small_wafer()
        with telemetry.use_registry() as reg:
            steps = sched.sort_steps(wafer, seed=4)
            for run, total in itertools.islice(steps, 3):
                pass
            steps.close()
        assert (run.touchdowns, total) == (3, full.touchdowns)
        assert run.assignments == full.assignments[:len(run.assignments)]
        counters = reg.to_dict()["counters"]
        assert counters["wafer.sorts"] == 1
        assert counters["wafer.touchdowns"] == 3
        assert counters["wafer.dies_tested"] == run.dies_tested
        assert counters["wafer.contact_failures"] == run.retest_needed
        assert reg.to_dict()["timers"]["wafer.sort"]["count"] == 1
        assert sum(d.state == DieState.UNTESTED for d in wafer) \
            == len(list(wafer)) - len(run.assignments)

    def test_retest_on_executor_equals_serial(self):
        """Retests stay serial on a scheduler with an executor: the
        same draws from the same seed give the same retest."""
        card = ProbeCard(n_sites=4, contact_yield=0.6)
        serial = MultiSiteScheduler(card, dut_factory=leaky_dut_factory)
        conc = MultiSiteScheduler(
            card, dut_factory=leaky_dut_factory,
            executor=Executor(backend="thread", max_workers=N_WORKERS))
        wafers = [small_wafer(), small_wafer()]
        for wafer in wafers:
            serial.sort_wafer(wafer, seed=2)
        assert wafers[0].dies_in_state(DieState.SKIPPED)
        r1 = serial.retest_skipped(wafers[0], seed=5)
        r2 = conc.retest_skipped(wafers[1], seed=5)
        assert r2.assignments == r1.assignments
        assert r2.total_time_s == r1.total_time_s
        assert r2.touchdowns == r1.touchdowns
        assert [d.state for d in wafers[1]] \
            == [d.state for d in wafers[0]]

    def test_sort_telemetry(self):
        sched = MultiSiteScheduler(
            ProbeCard(n_sites=2, contact_yield=1.0))
        with telemetry.use_registry() as reg:
            result = sched.sort_wafer(small_wafer(), seed=0)
        counters = reg.to_dict()["counters"]
        assert counters["wafer.sorts"] == 1
        assert counters["wafer.touchdowns"] == result.touchdowns
        assert counters["wafer.dies_tested"] == result.dies_tested


class TestBERCharacterization:
    @pytest.fixture(scope="class")
    def session(self):
        sess = TestSession()
        sess.run_bring_up()
        return sess

    def test_requires_qualified_stage(self):
        with pytest.raises(ConfigurationError):
            TestSession().characterize_ber(total_bits=100)

    def test_bad_budget_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.characterize_ber(total_bits=0)

    def test_serial_baseline(self, session):
        result = session.characterize_ber(total_bits=3000, n_shards=3)
        assert isinstance(result, BERCharacterization)
        assert result.total_bits == 3000
        assert result.n_shards == 3
        assert result.ber == 0.0
        assert result.ber_upper_95 == pytest.approx(3.0 / 3000)

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_sharded_matches_serial(self, session, backend):
        serial = session.characterize_ber(total_bits=3000, n_shards=3,
                                          seed=5)
        ex = Executor(backend=backend, max_workers=N_WORKERS)
        sharded = session.characterize_ber(total_bits=3000, n_shards=3,
                                           seed=5, executor=ex)
        assert serial.total_bits == sharded.total_bits
        assert serial.total_errors == sharded.total_errors
        assert serial.shard_errors == sharded.shard_errors

    def test_telemetry_counters(self, session):
        with telemetry.use_registry() as reg:
            session.characterize_ber(total_bits=1000, n_shards=2)
        counters = reg.to_dict()["counters"]
        assert counters["session.ber_characterizations"] == 1
        assert counters["session.ber_bits"] == 1000

    def test_str_reports_shards(self, session):
        result = session.characterize_ber(total_bits=1000, n_shards=2)
        assert "2 shards" in str(result)


class TestCloneSpec:
    def test_round_trip_rebuilds_equivalent_tester(self):
        from repro.core.minitester import MiniTester
        from repro.core.system import TestSystem

        tester = MiniTester(rate_gbps=5.0)
        clone = TestSystem.from_clone_spec(tester.clone_spec())
        assert isinstance(clone, MiniTester)
        assert clone.rate_gbps == tester.rate_gbps
        r1 = tester.run_loopback(n_bits=400, seed=9)
        r2 = clone.run_loopback(n_bits=400, seed=9)
        assert r1.ber.n_errors == r2.ber.n_errors
        assert r1.strobe_code == r2.strobe_code

    def test_spec_is_picklable(self):
        import pickle

        from repro.core.minitester import MiniTester

        spec = MiniTester().clone_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
