"""Ablation: the DLC I/O derating policy.

"In principle, these are capable of running at 800 Mbps, although we
typically limit them to 300 or 400 Mbps in order to maintain
sufficient design margin." What serial rates does each policy
enable through an 8:1 serializer?
"""

import pytest

from _report import report
from conftest import one_shot
from repro.dlc.io import SILICON_MAX_MBPS
from repro.errors import RateLimitError, ReproError
from repro.pecl.serializer import ParallelToSerial


def test_ablation_io_derating(benchmark):
    serializer = ParallelToSerial()

    def max_serial_rate(lane_limit):
        # Steps in integer tenths of a Gbps: a float accumulator
        # lands just above each limit and stops one step early.
        tenths = 1
        while tenths < 100:
            try:
                serializer.check_rates((tenths + 1) / 10, lane_limit)
            except ReproError:
                break
            tenths += 1
        return tenths / 10

    rates = {}

    def sweep():
        for limit in (300.0, 400.0, 800.0):
            rates[limit] = max_serial_rate(limit)
        return rates

    one_shot(benchmark, sweep)
    report(
        "Ablation — I/O derating vs reachable 8:1 serial rate",
        ("per-pin limit", "max serial rate", "note"),
        [
            ("300 Mbps", f"{rates[300.0]:.1f} Gbps",
             "paper's conservative setting"),
            ("400 Mbps", f"{rates[400.0]:.1f} Gbps",
             "paper's typical setting"),
            ("800 Mbps", f"{rates[800.0]:.1f} Gbps",
             "silicon rating, no margin (serializer-limited)"),
        ],
    )
    assert rates[300.0] == 2.4
    assert rates[400.0] == 3.2
    # At the full silicon rate, the PECL part becomes the limit.
    assert rates[800.0] == 4.0


def test_ablation_silicon_ceiling_is_hard(benchmark):
    """Past 800 Mbps the pins refuse outright."""
    from repro.dlc.io import IOPin

    def try_overdrive():
        pin = IOPin("p", max_rate_mbps=SILICON_MAX_MBPS)
        pin.drive([0, 1], 800.0)  # at the rating: fine
        with pytest.raises(RateLimitError):
            pin.drive([0, 1], 801.0)
        return True

    assert one_shot(benchmark, try_overdrive)
