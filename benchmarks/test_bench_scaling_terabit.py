"""Extension study: the paper's Terabit roadmap.

"The end-application will require extending the word width to at
least 64 bits, and increasing channel data rates to 10 Gbps at each
wavelength, so that the aggregate data rate will be of the order of
a Terabit-per-second."
"""

import time

import numpy as np

from _report import report
from conftest import one_shot
from repro.channel.crosstalk import CrosstalkMatrix
from repro.channel.lti import LTIChannel
from repro.core.scaling import scaling_path, size_configuration
from repro.eye.diagram import EyeDiagram
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import prbs_bits


def test_terabit_configuration(benchmark):
    r = one_shot(benchmark, size_configuration,
                 word_width=64, rate_gbps=10.0)
    report(
        "Roadmap — 64-bit x 10 Gbps configuration",
        ("quantity", "value"),
        [
            ("aggregate", f"{r.aggregate_gbps:.0f} Gbps"),
            ("wavelengths", str(r.wavelengths)),
            ("DLC lanes", str(r.lanes_total)),
            ("DLC boards (XC2V1000)", str(r.boards)),
            ("feasible with 2004 PECL", "yes" if
             r.feasible_first_stage else "no — " + r.notes[0]),
        ],
    )
    assert r.terabit
    assert r.boards >= 4
    # 10 Gbps/lambda genuinely requires faster parts, as the paper's
    # phrasing ("will require") anticipates.
    assert not r.feasible_first_stage


def test_width_vs_rate_tradeoff(benchmark):
    reports = one_shot(benchmark, scaling_path, 640.0)
    rows = [
        (f"{r.rate_gbps:g} Gbps", str(r.word_width),
         str(r.boards), "yes" if r.feasible_first_stage else "no")
        for r in reports
    ]
    report(
        "Roadmap — paths to 640 Gbps aggregate",
        ("per-channel rate", "word width", "boards",
         "2004-feasible"),
        rows,
    )
    by_rate = {r.rate_gbps: r for r in reports}
    assert by_rate[2.5].feasible_first_stage
    assert by_rate[5.0].feasible_first_stage
    assert not by_rate[10.0].feasible_first_stage


def test_batched_array_throughput(benchmark):
    """Simulating the roadmap's 64-wavelength word as one array.

    A Terabit configuration is 64 channels at 10 Gbps. The batched
    signal path runs the whole (channels x samples) block through
    each stage once; the loop calls the scalar entry points once per
    channel. Those are one-row calls into the same kernels, so the
    loop no longer pays per-channel filter design or edge-template
    setup (both memoized), only per-call overhead: cache and
    telemetry resolution, and 64 small NumPy passes per stage instead
    of one. Crosstalk is one coupling block on both sides: the dict
    ``apply`` stacks its channels into ``apply_batch``. This bench
    pins the batched path at >= 3x the loop (best of three rounds
    each) on the full PRBS -> NRZ -> channel -> crosstalk -> eye
    pipeline, and records the aggregate simulated throughput.
    """
    n_channels, n_bits, rate, dt = 64, 256, 10.0, 25.0
    bits = np.stack([prbs_bits(7, n_bits, seed=s + 1)
                     for s in range(n_channels)])
    enc = NRZEncoder(rate, v_low=-0.4, v_high=0.4, t20_80=72.0,
                     dt=dt)
    channel = LTIChannel(7.0, attenuation_db=1.0, delay_ps=50.0)
    names = [f"ch{i}" for i in range(n_channels)]
    matrix = CrosstalkMatrix(names)

    def per_channel_loop():
        wfs = {n: enc.encode(bits[i]) for i, n in enumerate(names)}
        wfs = {n: channel.apply(w) for n, w in wfs.items()}
        wfs = matrix.apply(wfs)
        return [EyeDiagram.from_waveform(w, rate)
                for w in wfs.values()]

    # Timed inside the rounds: under --benchmark-disable the
    # fixture keeps no stats.
    batch_times = []

    def batched():
        t0 = time.perf_counter()
        block = enc.encode_batch(bits)
        block = channel.apply_batch(block)
        block = matrix.apply_batch(block)
        eyes = EyeDiagram.from_batch(block, rate)
        batch_times.append(time.perf_counter() - t0)
        return eyes

    loop_eyes = per_channel_loop()  # warm + reference
    t_loop = min(
        (lambda t0: (per_channel_loop(), time.perf_counter() - t0)[1])
        (time.perf_counter()) for _ in range(3)
    )
    eyes = one_shot(benchmark, batched)
    t_batch = min(batch_times)  # best of three, like the loop
    speedup = t_loop / t_batch
    agg_bps = n_channels * n_bits / t_batch
    report(
        "Roadmap — batched 64-channel array simulation @ 10 Gbps",
        ("quantity", "value"),
        [
            ("channels", str(n_channels)),
            ("bits/channel", str(n_bits)),
            ("per-channel loop", f"{t_loop * 1e3:.1f} ms"),
            ("batched path", f"{t_batch * 1e3:.1f} ms"),
            ("speedup", f"{speedup:.1f}x"),
            ("aggregate", f"{agg_bps / 1e6:.2f} Mbit simulated/s"),
        ],
    )
    assert len(eyes) == n_channels
    # The batched pipeline folds the same eyes the loop does
    # (crossing counts are integer-exact).
    for eye, ref in zip(eyes, loop_eyes):
        assert eye.n_crossings == ref.n_crossings
    assert speedup >= 3.0, (
        f"batched array path only {speedup:.1f}x faster than the "
        f"per-channel loop at {n_channels} channels"
    )


def test_tsp_mode_enhancement(benchmark):
    """TSP deployment (ref [1]): the DLC+PECL stage as an ATE
    add-on multiplies the host's channel rate by the serialization
    factor."""
    from repro.core.tsp import HostATE, TestSupportProcessor

    def build():
        return TestSupportProcessor(
            HostATE(channel_rate_mbps=100.0,
                    n_channels_available=32),
            serializer_factor=16,
        )

    tsp = one_shot(benchmark, build)
    summary = tsp.upgrade_summary()
    report(
        "TSP mode — enhancing a conventional ATE",
        ("quantity", "value"),
        [
            ("host ATE channel rate",
             f"{summary['ate_channel_rate_gbps']:.1f} Gbps"),
            ("TSP output rate",
             f"{summary['tsp_output_rate_gbps']:.1f} Gbps"),
            ("enhancement", f"{summary['enhancement_factor']:.0f}x"),
            ("ATE channels consumed",
             str(summary["ate_channels_consumed"])),
        ],
    )
    assert summary["enhancement_factor"] >= 8.0
