"""Declarative test programs.

A test program is an ordered list of named steps, each producing a
measurement judged against limits. Running one against a test
system fills a :class:`~repro.host.results.Datalog` — the shape of
every production test flow, applied here to the paper's bench
measurements (eye opening, jitter, rise time, BER).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro import telemetry
from repro.errors import ConfigurationError
from repro.host.results import Datalog, TestRecord


@dataclasses.dataclass(frozen=True)
class Limit:
    """Pass limits for one measurement.

    Attributes
    ----------
    lo, hi:
        Bounds (None = unbounded).
    units:
        Units string for the datalog.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    units: str = ""

    def __post_init__(self):
        if self.lo is not None and self.hi is not None \
                and self.lo > self.hi:
            raise ConfigurationError(
                f"limit lo {self.lo} exceeds hi {self.hi}"
            )


@dataclasses.dataclass(frozen=True)
class TestStep:
    """One step: a measurement callable plus its limits.

    (Not a pytest class, despite the name.)

    Attributes
    ----------
    name:
        Step (and datalog record) name.
    measure:
        Callable taking the system under test, returning a float.
    limit:
        Pass window.
    """

    __test__ = False  # not a pytest collection target

    name: str
    measure: Callable[[object], float]
    limit: Limit = Limit()


class TestProgram:
    """An ordered list of steps with stop-on-fail semantics.

    Parameters
    ----------
    name:
        Program name.
    steps:
        The steps, run in order.
    stop_on_fail:
        Abort the flow at the first failing step (production
        default); False datalogs everything.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, name: str, steps: List[TestStep] = None,
                 stop_on_fail: bool = True):
        if not name:
            raise ConfigurationError("program name must be non-empty")
        self.name = name
        self.steps: List[TestStep] = list(steps or [])
        self.stop_on_fail = bool(stop_on_fail)

    def add_step(self, name: str,
                 measure: Callable[[object], float],
                 lo: Optional[float] = None, hi: Optional[float] = None,
                 units: str = "") -> "TestProgram":
        """Append a step; returns self for chaining."""
        self.steps.append(TestStep(name, measure, Limit(lo, hi, units)))
        return self

    def run(self, system) -> Datalog:
        """Execute against *system*; returns the filled datalog.

        Each run is traced as a ``testprogram.<name>`` span with one
        nested span per step, plus pass/fail step counters. Run it
        inside a :func:`repro.cache.use_cache` scope to let steps
        that measure the same stimulus (e.g. eye opening and jitter
        from one pattern) share rendered waveforms instead of
        re-synthesizing them per step.
        """
        if not self.steps:
            raise ConfigurationError(
                f"program {self.name!r} has no steps"
            )
        tel = telemetry.active()
        datalog = Datalog()
        with tel.span(f"testprogram.{self.name}"):
            tel.counter("testprogram.runs").inc()
            for step in self.steps:
                with tel.span(f"step.{step.name}"):
                    value = float(step.measure(system))
                record = TestRecord.judged(
                    step.name, value, step.limit.lo, step.limit.hi,
                    step.limit.units,
                )
                datalog.add(record)
                tel.counter("testprogram.steps").inc()
                tel.counter(
                    f"testprogram.steps_{record.verdict.value}"
                ).inc()
                if self.stop_on_fail and record.verdict.value == "fail":
                    break
        return datalog


def standard_eye_program(rate_gbps: float,
                         min_opening_ui: float = 0.6,
                         max_jitter_pp: float = 80.0,
                         n_bits: int = 3000) -> TestProgram:
    """The bench's standard output-qualification program.

    Measures eye opening and crossover jitter at *rate_gbps* on any
    :class:`~repro.core.system.TestSystem`.
    """
    program = TestProgram(f"eye_qual_{rate_gbps:g}G")
    program.add_step(
        "eye_opening",
        lambda sys_: sys_.measure_eye(
            n_bits=n_bits, rate_gbps=rate_gbps).eye_opening_ui,
        lo=min_opening_ui, units="UI",
    )
    program.add_step(
        "jitter_pp",
        lambda sys_: sys_.measure_eye(
            n_bits=n_bits, rate_gbps=rate_gbps).jitter_pp,
        hi=max_jitter_pp, units="ps",
    )
    return program
