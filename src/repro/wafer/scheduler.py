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
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.parallel import Executor
from repro.wafer.dut import WLPDevice
from repro.wafer.map import DieState, WaferMap
from repro.wafer.probe import ProbeCard


def _default_dut_factory(pos: Tuple[int, int]) -> WLPDevice:
    """All-good dice (module-level so process workers can pickle it)."""
    return WLPDevice()


def _probe_site(dut_factory: Callable[[Tuple[int, int]], WLPDevice],
                test_time_s: float, n_vectors: int,
                pos: Tuple[int, int], seed) -> Tuple[bool, float]:
    """One site's test, runnable on any executor backend.

    Returns ``(passed, test_time_s)``, the time with a +/-10%
    site-to-site variation drawn from *seed*: a site's spawned seed
    on an executor, or the serial sort's own ``Generator`` (which
    ``np.random.default_rng`` returns as is).
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
        interleaved stream).
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

    def sort_wafer(self, wafer: WaferMap, seed: int = 0) -> SortRun:
        """Probe the whole wafer; updates die states in place.

        Drains :meth:`sort_steps`: with an executor configured,
        every touchdown's landed sites run concurrently on its
        backend; otherwise the serial model walks sites in order.
        """
        for run, _ in self.sort_steps(wafer, seed):
            pass
        return run

    def sort_steps(self, wafer: WaferMap, seed: int = 0
                   ) -> Iterator[Tuple[SortRun, int]]:
        """Probe the wafer one touchdown per step.

        After each touchdown yields ``(run, n_touchdowns)``: the
        :class:`SortRun` so far, updated in place, and the plan's
        touchdown count. Closing the generator early stops the sort;
        the ``wafer.*`` counters cover the touchdowns that ran.
        """
        rng = np.random.default_rng(seed)
        plan = self.card.plan_touchdowns(wafer)
        run = SortRun(assignments=[], total_time_s=0.0, touchdowns=0)
        tel = telemetry.active()
        try:
            with tel.span("wafer.sort"):
                for td_index, touchdown in enumerate(plan):
                    run.total_time_s += touchdown.index_time_s
                    # Parallel sites: a touchdown costs its slowest.
                    run.total_time_s += self._touchdown(
                        wafer, touchdown, rng, run.assignments,
                        [int(seed), td_index])
                    run.touchdowns += 1
                    yield run, len(plan)
        finally:
            tel.counter("wafer.sorts").inc()
            tel.counter("wafer.touchdowns").inc(run.touchdowns)
            tel.counter("wafer.dies_tested").inc(run.dies_tested)
            tel.counter("wafer.dies_passed").inc(run.dies_passed)
            tel.counter("wafer.contact_failures").inc(run.retest_needed)

    def _touchdown(self, wafer, touchdown, rng, assignments,
                   seed_root) -> float:
        """One touchdown; returns its slowest site's test time.

        Contact is drawn site by site on the sort's *rng* (a prober
        property, not a site computation). Landed sites are tested
        on that stream, each right after its contact draw, or fanned
        out on the executor with seeds spawned from *seed_root*.
        """
        def landed():
            for site, pos in enumerate(touchdown.sites):
                if pos is None:
                    continue
                die = wafer.die_at(*pos)
                die.state = DieState.TESTING
                if self.card.contact_ok(rng):
                    yield site, pos
                else:
                    die.state = DieState.SKIPPED
                    assignments.append(SiteAssignment(site, pos, None,
                                                      0.0))

        test = functools.partial(_probe_site, self.dut_factory,
                                 self.test_time_s, 128)
        if self.executor is None:
            # Lazy, so the sort's stream draws contact and test site
            # by site.
            tested = ((site, pos, test(pos, rng))
                      for site, pos in landed())
        else:
            sites = list(landed())
            outcomes = self.executor.run(
                test, [pos for _, pos in sites], seed_root=seed_root,
            ).results if sites else []
            tested = ((site, pos, outcome) for (site, pos), outcome
                      in zip(sites, outcomes))
        slowest = 0.0
        for site, pos, (passed, t) in tested:
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
                passed, t = _probe_site(self.dut_factory,
                                        self.test_time_s, 128,
                                        die.position, rng)
                total_time += t
                die.state = DieState.PASSED if passed \
                    else DieState.FAILED
                assignments.append(SiteAssignment(
                    0, die.position, passed, t
                ))
        return SortRun(assignments=assignments,
                       total_time_s=total_time,
                       touchdowns=touchdowns)
