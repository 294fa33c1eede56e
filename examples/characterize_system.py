#!/usr/bin/env python
"""Bench characterization: sweep data rate, reference quality, and
output levels, and run the host-side test program with a datalog.

This is what an engineer adapting the DLC to a new application would
run first — the paper's selling point is exactly this kind of quick
re-characterization.

Run:  python examples/characterize_system.py
"""

import numpy as np

from repro import telemetry
from repro.core.budget import system_timing_budget
from repro.core.calibration import DeskewCalibration
from repro.core.minitester import MiniTester
from repro.core.testbed import OpticalTestBed
from repro.dlc.clocking import ClockSignal
from repro.host.testprogram import TestProgram
from repro.pecl.delay import ProgrammableDelayLine
from repro.pecl.vernier import TimingVernier


def eye_vs_rate() -> None:
    print("Eye opening vs data rate (both systems):")
    bed = OpticalTestBed()
    mini = MiniTester()
    print(f"  {'rate':>6} {'test bed':>10} {'mini-tester':>12}")
    for rate in (1.0, 2.0, 2.5, 3.0, 4.0, 5.0):
        bed_val = "-"
        if rate <= 4.0:
            m = bed.measure_eye(n_bits=2500, seed=1, rate_gbps=rate)
            bed_val = f"{m.eye_opening_ui:.2f} UI"
        m2 = mini.measure_eye(n_bits=2500, seed=1, rate_gbps=rate)
        print(f"  {rate:>4.1f}G {bed_val:>10} "
              f"{m2.eye_opening_ui:>9.2f} UI")
    print()


def timing_accuracy() -> None:
    print("Edge-placement accuracy (the +/-25 ps claim):")
    line = ProgrammableDelayLine()
    print(f"  delay line: {line.step:.0f} ps steps, "
          f"{line.full_range / 1000:.1f} ns range, raw INL "
          f"{line.worst_case_error():.1f} ps")
    vernier = TimingVernier(line, measurement_noise_rms=1.0)
    vernier.calibrate(rng=np.random.default_rng(1))
    worst = vernier.worst_case_error(n_targets=200, margin=30.0)
    print(f"  calibrated worst-case placement error: {worst:.1f} ps")
    budget = system_timing_budget()
    print(f"  system budget: {budget.worst_case():.1f} ps worst case "
          f"({budget.rss():.1f} ps RSS) -> "
          f"{'meets' if budget.meets(25.0) else 'MISSES'} +/-25 ps")
    for term, value in budget.terms().items():
        print(f"    {term:<22} +/-{value:.1f} ps")
    print()


def channel_deskew() -> None:
    print("Five-channel deskew (Figure 4 alignment requirement):")
    bed = OpticalTestBed()
    cal = DeskewCalibration(bed.channels, measurement_noise_rms=1.0)
    residuals = cal.deskew(np.random.default_rng(3))
    for name, resid in sorted(residuals.items()):
        print(f"  {name:<7} residual {resid:+6.2f} ps")
    worst = max(abs(r) for r in residuals.values())
    print(f"  worst channel-to-channel error: {worst:.2f} ps")
    print()


def reference_clock_sensitivity() -> None:
    print("Eye vs RF reference quality (mini-tester, 5 Gbps):")
    for jitter_ps in (0.5, 2.5, 8.0, 15.0):
        mini = MiniTester()
        mini.transmitter.clock = ClockSignal(2.5, jitter_ps, "rf")
        m = mini.measure_eye(n_bits=2500, seed=2)
        print(f"  ref jitter {jitter_ps:>4.1f} ps rms -> "
              f"{m.jitter_pp:5.1f} ps p-p, {m.eye_opening_ui:.2f} UI")
    print()


def host_test_program() -> None:
    print("Host-side qualification program with datalog:")
    bed = OpticalTestBed()
    program = TestProgram("testbed_qual", stop_on_fail=False)
    program.add_step(
        "eye_opening_2g5",
        lambda s: s.measure_eye(n_bits=2500, seed=1).eye_opening_ui,
        lo=0.80, units="UI",
    )
    program.add_step(
        "jitter_pp_2g5",
        lambda s: s.measure_eye(n_bits=2500, seed=1).jitter_pp,
        hi=60.0, units="ps",
    )
    program.add_step(
        "rise_time",
        lambda s: s.measure_rise_fall()[0],
        lo=55.0, hi=90.0, units="ps",
    )
    program.add_step(
        "edge_rj_rms",
        lambda s: s.measure_edge_jitter(n_acquisitions=300).rms,
        hi=5.0, units="ps",
    )
    datalog = program.run(bed)
    for record in datalog:
        print(f"  {record}")
    print(f"  program verdict: "
          f"{'PASS' if datalog.passed else 'FAIL'}")


def telemetry_profile() -> None:
    print()
    print("Telemetry profile of a characterization pass:")
    with telemetry.use_registry() as reg:
        mini = MiniTester()
        mini.run_loopback(n_bits=500, seed=1)
        mini.measure_eye(n_bits=1500, seed=1)
    snap = reg.to_dict()
    for name, value in snap["counters"].items():
        print(f"  {name:<28} {value}")
    for name, stats in snap["timers"].items():
        print(f"  {name:<28} {stats['count']}x, "
              f"{stats['total_s'] * 1e3:.1f} ms total")
    print("  (export formats: reg.to_json(), reg.to_prometheus())")


def main() -> None:
    eye_vs_rate()
    timing_accuracy()
    channel_deskew()
    reference_clock_sensitivity()
    host_test_program()
    telemetry_profile()


if __name__ == "__main__":
    main()
