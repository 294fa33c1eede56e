"""The production test session: the whole flow in one object.

Bring-up order on a real bench: connect to the board, run the
power-on self-test, calibrate timing, qualify the signal path, then
sort the wafer and export its map. :class:`TestSession` sequences
exactly that, leaving a datalog trail at every step.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro._rng import spawn_seeds
from repro.errors import ConfigurationError, ReproError
from repro.core.minitester import MiniTester
from repro.parallel import (
    Executor, ShardPlan, ber_shard, ber_shard_worker,
)
from repro.dlc.selftest import SelfTestReport, run_self_test
from repro.host.results import Datalog
from repro.host.testprogram import TestProgram, standard_eye_program
from repro.pecl.vernier import TimingVernier
from repro.wafer.inkmap import export_map_file, summarize
from repro.wafer.map import WaferMap
from repro.wafer.probe import ProbeCard
from repro.wafer.scheduler import MultiSiteScheduler


@dataclasses.dataclass
class SessionReport:
    """Everything a finished session produced.

    Attributes
    ----------
    self_test:
        The board's power-on self-test report.
    calibration_error_ps:
        Worst edge-placement error after calibration.
    qualification:
        The signal-path qualification datalog.
    wafers_sorted:
        Wafers completed.
    map_files:
        Exported map-file texts, one per wafer.
    """

    self_test: Optional[SelfTestReport] = None
    calibration_error_ps: Optional[float] = None
    qualification: Optional[Datalog] = None
    wafers_sorted: int = 0
    map_files: list = dataclasses.field(default_factory=list)

    @property
    def ready_for_production(self) -> bool:
        """Self-test passed, calibrated within claim, path qualified."""
        return (self.self_test is not None and self.self_test.passed
                and self.calibration_error_ps is not None
                and self.calibration_error_ps <= 25.0
                and self.qualification is not None
                and self.qualification.passed)


@dataclasses.dataclass(frozen=True)
class BERCharacterization:
    """An aggregated (possibly sharded) bit-error-rate measurement.

    Attributes
    ----------
    total_bits, total_errors:
        Pooled totals over every shard.
    shard_errors:
        Per-shard error counts in canonical shard order.
    rate_gbps:
        Data rate characterized.
    """

    total_bits: int
    total_errors: int
    shard_errors: Tuple[int, ...]
    rate_gbps: float

    @property
    def n_shards(self) -> int:
        """Shards the measurement was split into."""
        return len(self.shard_errors)

    @property
    def ber(self) -> float:
        """Pooled bit-error ratio."""
        if self.total_bits == 0:
            return 0.0
        return self.total_errors / self.total_bits

    @property
    def ber_upper_95(self) -> float:
        """95% upper confidence bound on the true BER.

        The standard "rule of 3" for zero errors; a normal
        approximation to the Poisson bound otherwise.
        """
        if self.total_bits == 0:
            return 1.0
        if self.total_errors == 0:
            return 3.0 / self.total_bits
        return (self.total_errors
                + 1.645 * math.sqrt(self.total_errors)) / self.total_bits

    def to_dict(self) -> dict:
        """Wire-ready plain-dict form (for the RPC service layer)."""
        return {
            "total_bits": int(self.total_bits),
            "total_errors": int(self.total_errors),
            "shard_errors": [int(e) for e in self.shard_errors],
            "rate_gbps": float(self.rate_gbps),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BERCharacterization":
        """Rebuild a characterization from its :meth:`to_dict` form."""
        return cls(
            total_bits=int(data["total_bits"]),
            total_errors=int(data["total_errors"]),
            shard_errors=tuple(int(e) for e in data["shard_errors"]),
            rate_gbps=float(data["rate_gbps"]),
        )

    def __str__(self) -> str:
        return (f"{self.total_errors}/{self.total_bits} errors "
                f"(BER {self.ber:.2e}, 95% <= {self.ber_upper_95:.2e}, "
                f"{self.n_shards} shards)")


def _pool(pairs: List[Tuple[int, int]],
          rate_gbps: float) -> BERCharacterization:
    """Pool per-shard ``(n_bits, n_errors)`` pairs, in shard order."""
    return BERCharacterization(
        total_bits=sum(b for b, _ in pairs),
        total_errors=sum(e for _, e in pairs),
        shard_errors=tuple(e for _, e in pairs),
        rate_gbps=rate_gbps,
    )


def ber_steps(tester: MiniTester, total_bits: int, n_shards: int,
              seed: int, rate_gbps: float
              ) -> Iterator[Tuple[BERCharacterization, int]]:
    """A serial BER characterization, one shard per step.

    The *total_bits* budget is partitioned by
    :meth:`ShardPlan.for_range`, and each shard is one
    :func:`~repro.parallel.ber_shard` loopback on *tester* with a
    seed from :func:`~repro._rng.spawn_seeds` on *seed*. After each
    shard yields ``(result, n_shards)``: the characterization of the
    shards so far and the plan's shard count.
    """
    plan = ShardPlan.for_range(total_bits, n_shards)
    ranges = [shard.items[0] for shard in plan.shards]
    pairs = []
    for item, s in zip(ranges, spawn_seeds(len(ranges), root=seed)):
        pairs.append(ber_shard(tester, rate_gbps, item, s))
        yield _pool(pairs, rate_gbps), len(ranges)


class TestSession:
    """Sequences bring-up and production on one mini-tester.

    Parameters
    ----------
    tester:
        The system under session control; a fresh 5 Gbps
        mini-tester by default.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, tester: Optional[MiniTester] = None):
        self.tester = tester if tester is not None else MiniTester()
        self.report = SessionReport()
        self._stage = "created"

    @property
    def stage(self) -> str:
        """The last completed stage name."""
        return self._stage

    # -- bring-up steps, in order ---------------------------------------

    def power_on(self) -> SelfTestReport:
        """Step 1: the board checks itself."""
        tel = telemetry.active()
        with tel.span("session.power_on"):
            self.report.self_test = run_self_test(self.tester.dlc)
        self._stage = "self-test"
        if not self.report.self_test.passed:
            tel.counter("session.failures").inc()
            raise ReproError(
                "power-on self-test failed; board needs repair"
            )
        return self.report.self_test

    def calibrate(self, rng: Optional[np.random.Generator] = None
                  ) -> float:
        """Step 2: calibrate the edge-placement vernier."""
        self._require_stage("self-test")
        if rng is None:
            rng = np.random.default_rng(31)
        tel = telemetry.active()
        with tel.span("session.calibrate"):
            line = self.tester.transmitter.delay_line
            saved_code = line.code
            vernier = TimingVernier(line, measurement_noise_rms=1.0)
            vernier.calibrate(rng=rng)
            worst = vernier.worst_case_error(n_targets=100, margin=30.0)
            # The sweep leaves the line at its last target; restore
            # the operating point so calibration does not shift the
            # output.
            line.set_code(saved_code)
        self.report.calibration_error_ps = worst
        self._stage = "calibrated"
        return worst

    def qualify(self, program: Optional[TestProgram] = None) -> Datalog:
        """Step 3: qualify the signal path against limits."""
        self._require_stage("calibrated")
        if program is None:
            program = standard_eye_program(
                self.tester.rate_gbps, min_opening_ui=0.65,
                n_bits=2000,
            )
        tel = telemetry.active()
        with tel.span("session.qualify"):
            datalog = program.run(self.tester)
        self.report.qualification = datalog
        self._stage = "qualified"
        if not datalog.passed:
            tel.counter("session.failures").inc()
            raise ReproError(
                "signal-path qualification failed: "
                + "; ".join(str(r) for r in datalog.failures())
            )
        return datalog

    def characterize_ber(self, total_bits: int = 20_000,
                         n_shards: int = 4,
                         seed: int = 1,
                         rate_gbps: Optional[float] = None,
                         executor: Optional[Executor] = None
                         ) -> BERCharacterization:
        """Deep BER characterization, optionally sharded over workers.

        The serial path drains :func:`ber_steps`. An executor runs
        the same :meth:`ShardPlan.for_range` shards, each with
        :func:`~repro.parallel.ber_shard_worker` and a seed spawned
        from *seed*, so every backend measures the same shard set
        and pools to identical totals. Executor workers
        rebuild the tester from :meth:`TestSystem.clone_spec` and
        cache it for their lifetime (the replicated-array model);
        testers customized beyond their clone spec characterize the
        clone, not the customization.
        """
        self._require_stage("qualified")
        if total_bits < 1:
            raise ConfigurationError("need a positive bit budget")
        rate = self.tester.rate_gbps if rate_gbps is None else rate_gbps
        tel = telemetry.active()
        with tel.span("session.characterize_ber"):
            if executor is None:
                for result, _ in ber_steps(self.tester, total_bits,
                                           n_shards, seed, rate):
                    pass
            else:
                plan = ShardPlan.for_range(total_bits, n_shards)
                fn = functools.partial(ber_shard_worker,
                                       self.tester.clone_spec(), rate)
                outcome = executor.run(
                    fn, [shard.items[0] for shard in plan.shards],
                    seed_root=seed)
                result = _pool(outcome.results, rate)
        tel.counter("session.ber_characterizations").inc()
        tel.counter("session.ber_bits").inc(result.total_bits)
        tel.counter("session.ber_errors").inc(result.total_errors)
        return result

    # -- production -------------------------------------------------------

    def sort_wafer(self, wafer: WaferMap,
                   card: Optional[ProbeCard] = None,
                   lot_id: str = "LOT01",
                   seed: int = 0, **scheduler_kwargs) -> str:
        """Step 4 (repeatable): sort one wafer; returns its map file."""
        self._require_stage("qualified")
        card = card if card is not None else ProbeCard(n_sites=4)
        scheduler = MultiSiteScheduler(card, **scheduler_kwargs)
        tel = telemetry.active()
        with tel.span("session.sort_wafer"):
            scheduler.sort_wafer(wafer, seed=seed)
            scheduler.retest_skipped(wafer, seed=seed + 1)
        tel.counter("session.wafers_sorted").inc()
        self.report.wafers_sorted += 1
        wafer_id = f"W{self.report.wafers_sorted:02d}"
        map_file = export_map_file(wafer, lot_id=lot_id,
                                   wafer_id=wafer_id)
        self.report.map_files.append(map_file)
        return map_file

    def _require_stage(self, needed: str) -> None:
        order = ["created", "self-test", "calibrated", "qualified"]
        if order.index(self._stage) < order.index(needed):
            raise ConfigurationError(
                f"session is at stage {self._stage!r}; run the "
                f"{needed!r} step first"
            )

    def run_bring_up(self) -> SessionReport:
        """Steps 1-3 in order; returns the session report."""
        tel = telemetry.active()
        with tel.span("session.bring_up"):
            self.power_on()
            self.calibrate()
            self.qualify()
        tel.counter("session.bring_ups").inc()
        return self.report
