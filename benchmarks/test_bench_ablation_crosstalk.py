"""Ablation: channel-to-channel crosstalk on the five-channel bed.

The test bed routes five serialized channels side by side (Figure
5's board); the probe card packs even more at finer pitch. How much
coupling can the layout afford before the 2.5 Gbps eye degrades
below the paper's numbers?
"""

import numpy as np

from _report import report
from conftest import one_shot
from repro.channel.crosstalk import CouplingSpec, CrosstalkMatrix
from repro.eye.diagram import EyeDiagram
from repro.eye.metrics import measure_eye
from repro.signal.nrz import bits_to_waveform
from repro.signal.prbs import prbs_bits


def _five_channels(n=1500):
    names = [f"data{k}" for k in range(4)] + ["clock"]
    waveforms = {}
    for k, name in enumerate(names):
        bits = prbs_bits(7, n, seed=k + 1) if name != "clock" \
            else np.tile([0, 1], n // 2)
        waveforms[name] = bits_to_waveform(
            bits, 2.5, v_low=-0.4, v_high=0.4, t20_80=72.0,
            rng=np.random.default_rng(k),
        )
    return names, waveforms


def test_ablation_crosstalk_levels(benchmark):
    names, waveforms = _five_channels()

    def sweep():
        out = {}
        for coupling in (0.0, 0.02, 0.05, 0.10):
            if coupling == 0.0:
                victim = waveforms["data1"]
            else:
                matrix = CrosstalkMatrix(
                    names, adjacent=CouplingSpec(coupling=coupling)
                )
                victim = matrix.apply(waveforms)["data1"]
            out[coupling] = measure_eye(
                EyeDiagram.from_waveform(victim, 2.5)
            )
        return out

    results = one_shot(benchmark, sweep)
    rows = [
        (f"{c * 100:.0f}%", f"{m.jitter_pp:.1f} ps",
         f"{m.eye_opening_ui:.2f} UI",
         f"{m.eye_height * 1000:.0f} mV")
        for c, m in results.items()
    ]
    report(
        "Ablation — adjacent-channel coupling vs 2.5 Gbps eye "
        "(victim: data1, middle of the group; aggressors "
        "bit-aligned)",
        ("coupling", "jitter p-p", "opening", "eye height"),
        rows,
    )
    # Bit-aligned aggressors switch at the victim's cell boundaries,
    # so the coupling shows up as *crossing jitter*, monotone in the
    # coupling strength, while the eye center stays clean — the
    # reason source-synchronous parallel buses tolerate tight
    # routing.
    jitters = [m.jitter_pp for m in results.values()]
    assert all(a <= b + 0.5 for a, b in zip(jitters, jitters[1:]))
    assert results[0.10].jitter_pp > results[0.0].jitter_pp + 5.0
    assert results[0.02].eye_opening_ui > 0.9


def test_ablation_skewed_aggressor_hits_eye_center(benchmark):
    """A half-UI-skewed aggressor (e.g. a differently-routed
    neighbour) couples into the victim's *sampling point* — the
    dangerous layout the aligned case avoids."""
    from repro.channel.crosstalk import apply_crosstalk

    names, waveforms = _five_channels()
    victim = waveforms["data1"]
    aggressor = waveforms["data2"]
    spec = CouplingSpec(coupling=0.10)

    def run():
        aligned = apply_crosstalk(victim, [aggressor], spec)
        skewed = apply_crosstalk(victim, [aggressor.shifted(200.0)],
                                 spec)
        return (
            measure_eye(EyeDiagram.from_waveform(aligned, 2.5)),
            measure_eye(EyeDiagram.from_waveform(skewed, 2.5)),
        )

    m_aligned, m_skewed = one_shot(benchmark, run)
    report(
        "Ablation — aggressor alignment vs victim eye (10% coupling)",
        ("aggressor", "eye height", "jitter p-p"),
        [
            ("bit-aligned", f"{m_aligned.eye_height * 1000:.0f} mV",
             f"{m_aligned.jitter_pp:.1f} ps"),
            ("half-UI skewed", f"{m_skewed.eye_height * 1000:.0f} mV",
             f"{m_skewed.jitter_pp:.1f} ps"),
        ],
    )
    assert m_skewed.eye_height < m_aligned.eye_height - 0.02


def test_jitter_tolerance_curve(benchmark):
    """The receive-side margin: tolerated injected PJ vs frequency
    for a link carrying the paper's intrinsic jitter."""
    from repro.instruments.jtol import JitterToleranceTester
    from repro.signal.jitter import JitterBudget

    tester = JitterToleranceTester(
        rate_gbps=2.5,
        base_budget=JitterBudget(rj_rms=3.2, dj_pp=23.0),
        n_bits=600,
    )
    curve = one_shot(benchmark, tester.sweep, (0.01, 0.1, 0.4),
                     seed=2)
    report(
        "Jitter tolerance — injected sinusoidal jitter @ 2.5 Gbps",
        ("jitter frequency", "tolerated p-p"),
        [(f"{p.frequency_ghz * 1000:.0f} MHz",
          f"{p.tolerated_pp_ui:.2f} UI") for p in curve],
    )
    for point in curve:
        assert point.tolerated_pp_ui > 0.1
