"""Extension study: multi-board synchronization.

The low-rate Terabit path spreads hundreds of channels across
several DLC boards on one RF reference; the array must still meet
the ±25 ps edge-placement claim end to end.
"""

import numpy as np

from _report import report
from conftest import one_shot
from repro.core.multiboard import BoardArray, array_for_scaling
from repro.core.scaling import size_configuration


def test_array_meets_timing_claim(benchmark):
    def build_and_calibrate():
        array = BoardArray(n_boards=5, channels_per_board=13,
                           fanout_skew_pp=12.0)
        return array, array.report(rng=np.random.default_rng(3))

    array, summary = one_shot(benchmark, build_and_calibrate)
    report(
        "Multi-board array — synchronization budget",
        ("quantity", "value"),
        [
            ("boards", str(summary.n_boards)),
            ("channels", str(summary.n_channels)),
            ("reference skew", f"{summary.reference_skew_pp:.1f} ps p-p"),
            ("worst deskew residual",
             f"{summary.worst_deskew_residual:.1f} ps"),
            ("meets +/-25 ps", "yes" if summary.meets_25ps else "NO"),
        ],
    )
    assert summary.meets_25ps
    assert summary.n_channels == 65


def test_batched_slot_render_throughput(benchmark):
    """Render one packet slot across every test-bed channel, batched.

    A multi-board array renders hundreds of channel waveforms per
    slot; ``transmit_slot`` renders each run of same-configuration
    channels as one (channels x samples) block. This bench times it
    against a per-channel loop of ``transmit_serial`` and slow
    ``encode`` calls on the five-channel bed (plus frame/header),
    asserting the block render is no slower and produces the same
    channel set.
    """
    import time

    from repro.core.packetformat import PacketSlot
    from repro.core.testbed import OpticalTestBed
    from repro.signal.nrz import NRZEncoder

    bed = OpticalTestBed(rate_gbps=2.5)
    slot = PacketSlot.random(bed.fmt, address=3,
                             rng=np.random.default_rng(1))
    streams = slot.all_channels()
    slow = NRZEncoder(bed.rate_gbps, v_low=0.0, v_high=2.5,
                      t20_80=400.0)

    def per_channel_loop():
        rng = np.random.default_rng(5)
        out = {name: bed.channels[name].transmit_serial(
            streams[name], bed.rate_gbps, rng=rng)
            for name in ["clock"] + [f"data{i}" for i in
                                     range(bed.n_data_channels)]}
        for name, bits in streams.items():
            if name.startswith(("frame", "header")):
                out[name] = slow.encode(bits, rng=rng)
        return out

    def best_of_three(render):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            render()
            times.append(time.perf_counter() - t0)
        return min(times)

    loop = per_channel_loop()  # warm
    t_loop = best_of_three(per_channel_loop)
    batched = one_shot(benchmark, bed.transmit_slot, slot, seed=5)
    t_batch = best_of_three(lambda: bed.transmit_slot(slot, seed=5))
    report(
        "Multi-board building block — batched slot render",
        ("quantity", "value"),
        [
            ("channels rendered", str(len(batched))),
            ("per-channel loop", f"{t_loop * 1e3:.1f} ms"),
            ("batched render", f"{t_batch * 1e3:.1f} ms"),
            ("speedup", f"{t_loop / t_batch:.2f}x"),
        ],
    )
    assert set(batched) == set(loop)
    assert t_batch <= t_loop * 1.10  # never slower than the loop


def test_terabit_array_sizing(benchmark):
    """The full feasible roadmap point: 256 channels at 2.5 Gbps."""
    scaling = size_configuration(word_width=256, rate_gbps=2.5)

    def build():
        return array_for_scaling(scaling)

    array = one_shot(benchmark, build)
    report(
        "Multi-board array — 256 x 2.5 Gbps (640 Gbps aggregate)",
        ("quantity", "value"),
        [
            ("aggregate", f"{scaling.aggregate_gbps:.0f} Gbps"),
            ("boards", str(array.n_boards)),
            ("channels", str(array.n_channels)),
            ("2004-feasible",
             "yes" if scaling.feasible_first_stage else "no"),
        ],
    )
    assert scaling.feasible_first_stage
    assert array.n_channels >= scaling.wavelengths
