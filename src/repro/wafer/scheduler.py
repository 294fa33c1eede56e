"""Multi-site parallel test execution (Figure 13).

"The miniature tester may be replicated in array form ... Functional
testing can then be done in parallel, increasing production
throughput by an order of magnitude." The scheduler walks the
touchdown plan, runs every landed site's test concurrently (each
touchdown costs the *slowest* site's test time, not the sum), and
writes results into the wafer map.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.parallel import Executor
from repro.wafer.dut import WLPDevice
from repro.wafer.map import DieState, WaferMap
from repro.wafer.probe import ProbeCard, Touchdown


def _default_dut_factory(pos: Tuple[int, int]) -> WLPDevice:
    """All-good dice (module-level so process workers can pickle it)."""
    return WLPDevice()


def _probe_site(dut_factory: Callable[[Tuple[int, int]], WLPDevice],
                test_time_s: float, n_vectors: int,
                pos: Tuple[int, int], seed) -> Tuple[bool, float]:
    """One site's test, runnable on any executor backend.

    Returns ``(passed, test_time_s)``; the time carries the same
    +/-10% site-to-site variation the serial model applies, drawn
    from the site's spawned seed so results are deterministic per
    (wafer seed, touchdown, site) regardless of worker scheduling.
    """
    rng = np.random.default_rng(seed)
    dut = dut_factory(pos)
    result = dut.run_bist(n_vectors=n_vectors)
    return bool(result.passed), test_time_s * float(rng.uniform(0.9, 1.1))


@dataclasses.dataclass(frozen=True)
class SiteAssignment:
    """One site's work during one touchdown.

    Attributes
    ----------
    site:
        Site index on the card.
    die_position:
        Which die it landed on.
    passed:
        Test outcome (None when contact failed).
    test_time_s:
        Time that site's test took.
    """

    site: int
    die_position: Tuple[int, int]
    passed: Optional[bool]
    test_time_s: float


@dataclasses.dataclass
class SortRun:
    """Results of probing one wafer.

    Attributes
    ----------
    assignments:
        Every (touchdown, site) outcome.
    total_time_s:
        Wall-clock test time including stepping.
    touchdowns:
        Touchdowns executed.
    """

    assignments: List[SiteAssignment]
    total_time_s: float
    touchdowns: int

    @property
    def dies_tested(self) -> int:
        """Dies with a definite pass/fail."""
        return sum(1 for a in self.assignments if a.passed is not None)

    @property
    def dies_passed(self) -> int:
        """Dies that passed."""
        return sum(1 for a in self.assignments if a.passed)

    @property
    def retest_needed(self) -> int:
        """Sites where contact failed (die left untested)."""
        return sum(1 for a in self.assignments if a.passed is None)


class MultiSiteScheduler:
    """Runs a wafer sort with an array of mini-testers.

    Parameters
    ----------
    card:
        The probe card (site count, contact yield, stepping time).
    test_time_s:
        Nominal per-die test time.
    dut_factory:
        Builds the DUT model for a die position (lets callers seed
        defects); default: all-good dice. Must be picklable for the
        process executor backend.
    executor:
        Optional :class:`repro.parallel.Executor`. When given, the
        sites of each touchdown are tested *concurrently* on its
        backend — the real Figure 13 array — instead of only
        modeling concurrency as the max of site times. Per-site
        randomness is spawned deterministically from the sort seed
        and touchdown index, so outcomes are reproducible (though
        the RNG stream differs from the serial model's single
        interleaved stream). The serial path stays the default and
        bit-exact.
    """

    def __init__(self, card: ProbeCard, test_time_s: float = 2.0,
                 dut_factory: Optional[
                     Callable[[Tuple[int, int]], WLPDevice]] = None,
                 executor: Optional[Executor] = None):
        if test_time_s <= 0.0:
            raise ConfigurationError("test time must be positive")
        self.card = card
        self.test_time_s = float(test_time_s)
        self.dut_factory = dut_factory or _default_dut_factory
        self.executor = executor

    def _test_one(self, dut: WLPDevice,
                  rng: np.random.Generator) -> Tuple[bool, float]:
        """One die's test: BIST plus outcome; returns (pass, time)."""
        result = dut.run_bist(n_vectors=128)
        # Site-to-site time variation (settling, retries): +/-10%.
        t = self.test_time_s * float(rng.uniform(0.9, 1.1))
        return result.passed, t

    def sort_wafer(self, wafer: WaferMap, seed: int = 0) -> SortRun:
        """Probe the whole wafer; updates die states in place.

        With an executor configured, every touchdown's landed sites
        run concurrently on its backend; otherwise the serial model
        walks sites in order (bit-exact with earlier releases).
        """
        rng = np.random.default_rng(seed)
        plan = self.card.plan_touchdowns(wafer)
        assignments: List[SiteAssignment] = []
        total_time = 0.0
        tel = telemetry.active()
        with tel.span("wafer.sort"):
            for td_index, touchdown in enumerate(plan):
                total_time += touchdown.index_time_s
                if self.executor is None:
                    slowest = self._touchdown_serial(
                        wafer, touchdown, rng, assignments)
                else:
                    slowest = self._touchdown_concurrent(
                        wafer, touchdown, rng, assignments,
                        seed, td_index)
                # Parallel sites: the touchdown costs its slowest site.
                total_time += slowest
        tel.counter("wafer.sorts").inc()
        tel.counter("wafer.touchdowns").inc(len(plan))
        tel.counter("wafer.dies_tested").inc(
            sum(1 for a in assignments if a.passed is not None))
        tel.counter("wafer.dies_passed").inc(
            sum(1 for a in assignments if a.passed))
        tel.counter("wafer.contact_failures").inc(
            sum(1 for a in assignments if a.passed is None))
        return SortRun(assignments=assignments, total_time_s=total_time,
                       touchdowns=len(plan))

    def _touchdown_serial(self, wafer, touchdown, rng,
                          assignments) -> float:
        """One touchdown, sites in order on one RNG stream."""
        slowest = 0.0
        for site, pos in enumerate(touchdown.sites):
            if pos is None:
                continue
            die = wafer.die_at(*pos)
            die.state = DieState.TESTING
            if not self.card.contact_ok(rng):
                die.state = DieState.SKIPPED
                assignments.append(SiteAssignment(site, pos, None, 0.0))
                continue
            dut = self.dut_factory(pos)
            passed, t = self._test_one(dut, rng)
            slowest = max(slowest, t)
            die.state = DieState.PASSED if passed else DieState.FAILED
            assignments.append(SiteAssignment(site, pos, passed, t))
        return slowest

    def _touchdown_concurrent(self, wafer, touchdown, rng,
                              assignments, seed, td_index) -> float:
        """One touchdown with landed sites run on the executor.

        Contact is still drawn in the parent (it is a prober
        property, not a site computation); the site tests fan out.
        """
        landed = []
        for site, pos in enumerate(touchdown.sites):
            if pos is None:
                continue
            die = wafer.die_at(*pos)
            die.state = DieState.TESTING
            if not self.card.contact_ok(rng):
                die.state = DieState.SKIPPED
                assignments.append(SiteAssignment(site, pos, None, 0.0))
                continue
            landed.append((site, pos))
        if not landed:
            return 0.0
        fn = functools.partial(_probe_site, self.dut_factory,
                               self.test_time_s, 128)
        outcome = self.executor.run(
            fn, [pos for _, pos in landed],
            seed_root=[int(seed), int(td_index)],
        )
        slowest = 0.0
        for (site, pos), (passed, t) in zip(landed, outcome.results):
            die = wafer.die_at(*pos)
            die.state = DieState.PASSED if passed else DieState.FAILED
            slowest = max(slowest, t)
            assignments.append(SiteAssignment(site, pos, passed, t))
        return slowest

    def retest_skipped(self, wafer: WaferMap, seed: int = 1,
                       max_passes: int = 3) -> SortRun:
        """Re-probe dies skipped for contact failure.

        Production flow: after the main pass, step back to each
        skipped die (single-site touchdowns) up to *max_passes*
        times. Returns the combined retest run.
        """
        if max_passes < 1:
            raise ConfigurationError("need >= 1 retest pass")
        rng = np.random.default_rng(seed)
        assignments: List[SiteAssignment] = []
        total_time = 0.0
        touchdowns = 0
        for _ in range(max_passes):
            skipped = wafer.dies_in_state(DieState.SKIPPED)
            if not skipped:
                break
            for die in skipped:
                touchdowns += 1
                total_time += self.card.index_time_s
                if not self.card.contact_ok(rng):
                    assignments.append(SiteAssignment(
                        0, die.position, None, 0.0
                    ))
                    continue
                dut = self.dut_factory(die.position)
                passed, t = self._test_one(dut, rng)
                total_time += t
                die.state = DieState.PASSED if passed \
                    else DieState.FAILED
                assignments.append(SiteAssignment(
                    0, die.position, passed, t
                ))
        return SortRun(assignments=assignments,
                       total_time_s=total_time,
                       touchdowns=touchdowns)
