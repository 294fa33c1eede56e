"""The wafer-probe Mini-Tester (Section 4).

A self-contained tester on the probe card: the DLC plus a two-stage
PECL serializer (two 8:1 groups to 2.5 Gbps, interleaved 2:1 to
5.0 Gbps), differential I/O buffers (120 ps edges), and a PECL
sampling circuit with 10 ps strobe resolution to capture the signal
returned through the interposer and the DUT's compliant leads.
Connections are only DC power, USB, and the RF clock.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.channel.interposer import InterposerChannel
from repro.dlc.io import SILICON_MAX_MBPS
from repro.channel.lti import LTIChannel
from repro.core.system import TestSystem
from repro.pecl.buffer import MINI_IO_BUFFER, BufferSpec
from repro.pecl.receiver import PECLReceiver, BERResult
from repro.pecl.serializer import TwoStageSerializer
from repro.pecl.transmitter import PECLTransmitter
from repro.signal.waveform import Waveform


@dataclasses.dataclass(frozen=True)
class LoopbackResult:
    """Outcome of one loopback test through the probe path.

    Attributes
    ----------
    ber:
        The bit-error comparison.
    rate_gbps:
        Data rate used.
    strobe_code:
        Sampler strobe position (delay-line code).
    """

    ber: BERResult
    rate_gbps: float
    strobe_code: int

    @property
    def passed(self) -> bool:
        """True for an error-free run."""
        return self.ber.n_errors == 0


@dataclasses.dataclass(frozen=True)
class CodedLoopbackResult:
    """Outcome of one *coded* loopback through the probe path.

    Attributes
    ----------
    ber:
        Payload-bit comparison (after decode + descramble).
    stats:
        Link-layer health: code violations, disparity errors, lock
        acquisition/loss accounting (a
        :class:`repro.coding.LinkStats`).
    rate_gbps:
        Line rate used (payload rate is 8/10 of it).
    strobe_code:
        Sampler strobe position.
    """

    ber: BERResult
    stats: object
    rate_gbps: float
    strobe_code: int

    @property
    def passed(self) -> bool:
        """Error-free payload with lock held and a clean line."""
        return (self.ber.n_errors == 0 and self.stats.locked
                and self.stats.total_errors == 0)


class MiniTester(TestSystem):
    """Project 2: the self-contained wafer-probe tester.

    Parameters
    ----------
    rate_gbps:
        Target serial rate (5.0 Gbps design target).
    buffer_spec:
        Output/input buffer grade (the 120 ps differential part).
    channel:
        The probe path (interposer + compliant leads) for loopback
        tests; defaults to the standard interposer model.
    """

    def __init__(self, rate_gbps: float = 5.0,
                 buffer_spec: BufferSpec = MINI_IO_BUFFER,
                 channel: Optional[LTIChannel] = None,
                 io_rate_mbps: float = 400.0,
                 encoding=None):
        from repro.coding.link import LinkCodec

        # The RF reference runs at half the bit rate: the 2:1 output
        # mux toggles on both clock edges (1.25 GHz input in Fig. 15
        # for 2.5 G halves / 5 G output).
        super().__init__(rate_gbps, rf_frequency_ghz=rate_gbps / 2.0,
                         io_rate_mbps=io_rate_mbps)
        codec = LinkCodec.from_spec(encoding)
        self._tx = PECLTransmitter(
            TwoStageSerializer(),
            buffer_spec=buffer_spec,
            clock=self.rf_clock,
            lane_limit_mbps=SILICON_MAX_MBPS,
            encoding=codec,
        )
        self.receiver = PECLReceiver(buffer_spec=buffer_spec,
                                     encoding=codec)
        self.channel = channel if channel is not None else \
            InterposerChannel()

    def serialization_factor(self) -> int:
        return self.transmitter.serializer.total_lanes

    # -- stimulus/capture loop ---------------------------------------------

    def loopback_waveform(self, n_bits: int, seed: int = 1,
                          rate_gbps: Optional[float] = None,
                          through_dut: bool = True) -> Waveform:
        """The waveform arriving back at the sampler.

        With *through_dut* the signal traverses the probe channel
        twice (out through the interposer and leads, back again).
        """
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        wf = self.prbs_waveform(n_bits, seed=seed, rate_gbps=rate)
        if through_dut:
            wf = self._probe_path().apply(wf)
        return wf

    def run_loopback(self, n_bits: int = 2000, seed: int = 1,
                     rate_gbps: Optional[float] = None,
                     strobe_code: Optional[int] = None) -> LoopbackResult:
        """Full self-test: transmit PRBS, capture, count errors."""
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        tel = telemetry.active()
        with tel.span("minitester.run_loopback"):
            wf = self.loopback_waveform(n_bits, seed=seed,
                                        rate_gbps=rate)
            if strobe_code is None:
                strobe_code = self._center_code(rate)
            # Account for the channel's bulk delay when strobing.
            bits = self.receiver.receive_bits(
                wf, rate, n_bits, strobe_code=strobe_code,
                t_first_bit=self._probe_path().delay_ps,
                rng=np.random.default_rng(seed + 7),
            )
            expected = self._expected_serial(n_bits, seed=seed,
                                             rate_gbps=rate)
            ber = self.receiver.compare(bits, expected[:len(bits)])
            tel.counter("minitester.loopbacks").inc()
            tel.counter("minitester.sampler_strobes").inc(len(bits))
            tel.counter("minitester.bit_errors").inc(ber.n_errors)
            if ber.n_errors:
                tel.counter("minitester.loopback_failures").inc()
            return LoopbackResult(ber=ber, rate_gbps=rate,
                                  strobe_code=strobe_code)

    def run_coded_loopback(self, n_bytes: int = 256, seed: int = 1,
                           rate_gbps: Optional[float] = None,
                           strobe_code: Optional[int] = None,
                           order: int = 7) -> CodedLoopbackResult:
        """Coded self-test: PRBS payload through the 8b10b link.

        The 16:1 serializer drives the framed, encoded payload at
        the line rate; the receiver strobes the raw line bits and
        runs the full coded receive stack (comma alignment, decode,
        lock tracking, descrambling). Requires ``encoding=`` at
        construction.
        """
        from repro.coding.checker import prbs_payload_bytes

        self.transmitter._require_codec()
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        tel = telemetry.active()
        with tel.span("minitester.run_coded_loopback"):
            payload = prbs_payload_bytes(order, n_bytes, seed=seed)
            wf = self.transmitter.transmit_coded(
                payload, rate, rng=np.random.default_rng(seed))
            path = self._probe_path()
            wf = path.apply(wf)
            if strobe_code is None:
                strobe_code = self._center_code(rate)
            frame = self.receiver.receive_payload(
                wf, rate, n_bytes, strobe_code=strobe_code,
                t_first_bit=path.delay_ps,
                rng=np.random.default_rng(seed + 7),
            )
            received = np.unpackbits(frame.payload)
            expected = np.unpackbits(payload)[:len(received)]
            ber = self.receiver.compare(received, expected)
            tel.counter("minitester.coded_loopbacks").inc()
            tel.counter("minitester.bit_errors").inc(ber.n_errors)
            if ber.n_errors or not frame.stats.locked:
                tel.counter("minitester.loopback_failures").inc()
            return CodedLoopbackResult(ber=ber, stats=frame.stats,
                                       rate_gbps=rate,
                                       strobe_code=strobe_code)

    def _probe_path(self) -> LTIChannel:
        """The path a looped-back signal takes: out through the
        interposer and back (its round trip), or the given channel
        once when it is not an interposer."""
        if isinstance(self.channel, InterposerChannel):
            return self.channel.round_trip()
        return self.channel

    def _center_code(self, rate: float) -> int:
        """The strobe code of the bit cell's center at *rate*."""
        ui = 1_000.0 / rate
        return int(round((ui / 2.0) / self.receiver.sampler.resolution))

    def _expected_serial(self, n_bits: int, seed: int,
                         rate_gbps: float) -> np.ndarray:
        """Regenerate the serial stream the TX path produced.

        The stimulus carries the fabric LFSR's stream in true serial
        order (see :meth:`TestSystem.prbs_waveform`), so the expected
        data is simply the LFSR output.
        """
        factor = self.serialization_factor()
        n_words = int(np.ceil(n_bits / factor))
        return self._lfsr_stream(seed, n_words * factor)[:n_bits]

    def digitize_loopback(self, pattern_len: int = 8, seed: int = 1,
                          rate_gbps: Optional[float] = None,
                          n_reps: int = 24) -> "Waveform":
        """Reconstruct the looped-back waveform with the tester's
        own sampler (no external scope).

        A short repeating pattern is transmitted through the probe
        path; the PECL sampler's strobe-delay x threshold scan
        rebuilds one repetition at 10 ps resolution.
        """
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        # A repeating pattern: the LFSR stream's first pattern_len
        # bits, tiled.
        bits = np.tile(self._lfsr_stream(seed, pattern_len), n_reps + 2)
        wf = self.transmitter.transmit_serial(
            bits, rate, rng=np.random.default_rng(seed)
        )
        path = self._probe_path()
        regen = self.receiver.regenerate(path.apply(wf))
        return self.receiver.sampler.reconstruct_pattern(
            regen, rate, pattern_len, n_reps=n_reps,
            t_first_bit=path.delay_ps + pattern_len
            * (1_000.0 / rate),
            rng=np.random.default_rng(seed + 3),
        )

    def shmoo_strobe(self, n_bits: int = 500, seed: int = 1,
                     rate_gbps: Optional[float] = None,
                     n_positions: int = 21) -> list:
        """Sweep the strobe across the bit cell; BER per position.

        The pass window's width is the operational eye opening as
        the mini-tester itself (not a scope) sees it.
        """
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        ui = 1_000.0 / rate
        step = self.receiver.sampler.resolution
        max_code = max(1, int(ui / step))
        codes = np.unique(np.linspace(0, max_code, n_positions)
                          .astype(int))
        return [
            self.run_loopback(n_bits=n_bits, seed=seed, rate_gbps=rate,
                              strobe_code=int(code))
            for code in codes
        ]
