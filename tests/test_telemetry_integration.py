"""Integration tests: telemetry through the real simulation stack.

A shmoo sweep and a vortex traffic run must emit the expected
counter/span names with values consistent with their own results,
and the snapshot schema must be stable across identical runs.
Also pins the injection-backpressure accounting fix.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.minitester import MiniTester
from repro.host.shmoo import ShmooRunner
from repro.vortex.fabric import DataVortexFabric, FabricConfig
from repro.vortex.traffic import UniformTraffic, run_load_point


class TestShmooTelemetry:
    def _run(self, reg):
        runner = ShmooRunner(lambda x, y: x + y < 4.0,
                             x_name="x", y_name="y")
        with telemetry.use_registry(reg):
            return runner.run([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])

    def test_counters_match_grid(self):
        reg = telemetry.Registry()
        result = self._run(reg)
        snap = reg.to_dict()
        assert snap["counters"]["shmoo.runs"] == 1
        assert snap["counters"]["shmoo.cells"] == 12
        assert snap["counters"]["shmoo.cells_passed"] == \
            int(result.passes.sum())
        assert (snap["counters"]["shmoo.cells_passed"]
                + snap["counters"]["shmoo.cells_failed"]) == 12
        assert snap["timers"]["shmoo.run"]["count"] == 1
        assert snap["counters"]["shmoo.run.calls"] == 1

    def test_schema_stable_across_identical_runs(self):
        a, b = telemetry.Registry(), telemetry.Registry()
        self._run(a)
        self._run(b)
        sa, sb = a.to_dict(), b.to_dict()
        assert set(sa["counters"]) == set(sb["counters"])
        assert set(sa["timers"]) == set(sb["timers"])
        assert sa["counters"] == sb["counters"]

    def test_module_registry_via_use_registry(self):
        with telemetry.use_registry() as reg:
            runner = ShmooRunner(lambda x, y: True)
            runner.run([1.0], [1.0, 2.0])
        assert reg.to_dict()["counters"]["shmoo.cells"] == 2


class TestVortexTelemetry:
    def test_load_point_counters_match_stats(self):
        with telemetry.use_registry() as reg:
            point = run_load_point(
                UniformTraffic(), offered_load=0.4, n_cycles=50,
                config=FabricConfig(n_angles=2, n_heights=4),
                seed=3,
            )
        snap = reg.to_dict()["counters"]
        stats = point.stats
        assert snap["vortex.steps"] == stats.cycles
        assert snap["vortex.injected"] == stats.injected
        assert snap["vortex.delivered"] == stats.delivered
        assert snap["vortex.deflections"] == stats.deflections
        # Drained run: everything submitted was delivered.
        assert snap["vortex.delivered"] == stats.submitted > 0
        assert snap["vortex.hops"] >= snap["vortex.delivered"]
        assert reg.to_dict()["gauges"]["vortex.in_flight"] == 0.0

    def test_fabric_snapshot_nonempty_and_schema_stable(self):
        def one_run():
            with telemetry.use_registry() as reg:
                fab = DataVortexFabric(FabricConfig(n_angles=2,
                                                    n_heights=4))
                for dest in (0, 1, 2, 3):
                    fab.submit(dest)
                fab.drain()
            return reg.to_dict()

        first, second = one_run(), one_run()
        assert first["counters"]
        assert set(first["counters"]) == set(second["counters"])
        assert first == second


class TestMiniTesterTelemetry:
    def test_loopback_counts_strobes_and_errors(self):
        with telemetry.use_registry() as reg:
            tester = MiniTester()
            result = tester.run_loopback(n_bits=200, seed=5)
        snap = reg.to_dict()["counters"]
        assert snap["minitester.loopbacks"] == 1
        assert snap["minitester.sampler_strobes"] == 200
        assert snap["minitester.bit_errors"] == result.ber.n_errors
        assert reg.to_dict()["timers"][
            "minitester.run_loopback"]["count"] == 1


class TestInjectionBackpressureRegression:
    """Pins the `_inject` accounting fix: blocks count packet-cycles
    spent waiting, not occupied nodes scanned."""

    def test_excess_packet_counts_one_block_per_cycle(self):
        # Two injection slots per cycle (1 angle x 2 heights); three
        # queued packets leave exactly one waiting after the scan.
        # The old per-node counting reported 0 here because every
        # outer node was free when scanned.
        fab = DataVortexFabric(FabricConfig(n_angles=1, n_heights=2))
        for _ in range(3):
            fab.submit(0)
        fab.step()
        assert fab.stats.injected == 2
        assert len(fab.injection_queue) == 1
        assert fab.stats.injection_blocks == 1
        assert fab.stats.acceptance_rate() == pytest.approx(2 / 3)

    def test_no_blocks_when_everything_injects(self):
        fab = DataVortexFabric(FabricConfig(n_angles=1, n_heights=2))
        fab.submit(0)
        fab.submit(1)
        fab.step()
        assert fab.stats.injected == 2
        assert fab.stats.injection_blocks == 0
        assert fab.stats.acceptance_rate() == 1.0

    def test_blocks_accumulate_per_waiting_cycle(self):
        # Saturate a tiny fabric: whatever waits N cycles contributes
        # N packet-cycles of backpressure, monotonically.
        fab = DataVortexFabric(FabricConfig(n_angles=1, n_heights=2))
        rng = np.random.default_rng(0)
        for _ in range(10):
            fab.submit(int(rng.integers(0, 2)))
        blocks = []
        while fab.injection_queue:
            fab.step()
            blocks.append(fab.stats.injection_blocks)
        assert blocks == sorted(blocks)
        assert fab.stats.injection_blocks > 0
        assert 0.0 < fab.stats.acceptance_rate() < 1.0
