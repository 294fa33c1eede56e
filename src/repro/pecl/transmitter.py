"""Full PECL transmit path: lanes in, analog multi-gigabit signal out.

Composes the serializer stage(s), the voltage-tuning level control,
the programmable delay, and the output buffer, accumulating each
stage's jitter contribution into the budget that shapes the final
waveform — the transmit half of both the optical test bed and the
mini-tester.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.signal.jitter import JitterBudget
from repro.signal.waveform import Waveform, WaveformBatch
from repro.dlc.clocking import ClockSignal
from repro.pecl.buffer import OutputBuffer, BufferSpec, SIGE_BUFFER
from repro.pecl.dac import LevelControl
from repro.pecl.delay import ProgrammableDelayLine
from repro.pecl.levels import PECLLevels
from repro.pecl.serializer import ParallelToSerial, TwoStageSerializer


class PECLTransmitter:
    """A complete transmit channel.

    Parameters
    ----------
    serializer:
        Single-stage (:class:`ParallelToSerial`) or two-stage
        (:class:`TwoStageSerializer`) front end.
    buffer_spec:
        Output buffer grade (SiGe for the test bed, the slower I/O
        buffer for the mini-tester).
    clock:
        The RF reference after fanout; its jitter enters the budget.
    lane_limit_mbps:
        The DLC I/O ceiling feeding the serializer.
    """

    def __init__(self,
                 serializer: Union[ParallelToSerial, TwoStageSerializer],
                 buffer_spec: BufferSpec = SIGE_BUFFER,
                 clock: Optional[ClockSignal] = None,
                 lane_limit_mbps: float = 400.0,
                 levels: Optional[PECLLevels] = None,
                 encoding=None):
        from repro.coding.link import LinkCodec

        self.serializer = serializer
        #: Optional line coding (None = raw NRZ; "8b10b",
        #: "8b10b-scrambled", or a :class:`repro.coding.LinkCodec`).
        self.codec = LinkCodec.from_spec(encoding)
        self.level_control = LevelControl(
            levels if levels is not None else
            OutputBuffer(buffer_spec).levels
        )
        self.output_buffer = OutputBuffer(buffer_spec,
                                          self.level_control.levels)
        self.delay_line = ProgrammableDelayLine()
        # Default reference: a bench RF source at the bit rate. Its
        # ~2.5 ps rms, RSS-combined with the serializer and buffer
        # terms, reproduces the paper's 3.2 ps rms single-edge
        # measurement (Figure 9).
        self.clock = clock or ClockSignal(2.5, jitter_rms=2.5, name="rf")
        self.lane_limit_mbps = float(lane_limit_mbps)

    # -- configuration ----------------------------------------------------

    @property
    def levels(self) -> PECLLevels:
        """Current output levels (tracks the level-control DACs)."""
        return self.level_control.levels

    def _sync_levels(self) -> None:
        self.output_buffer.levels = self.level_control.levels

    def set_high_level(self, voltage: float) -> PECLLevels:
        """Program VOH (Figure 10 control)."""
        levels = self.level_control.set_high_level(voltage)
        self._sync_levels()
        return levels

    def set_low_level(self, voltage: float) -> PECLLevels:
        """Program VOL."""
        levels = self.level_control.set_low_level(voltage)
        self._sync_levels()
        return levels

    def set_swing(self, swing: float) -> PECLLevels:
        """Program the amplitude swing (Figure 11 control)."""
        levels = self.level_control.set_swing(swing)
        self._sync_levels()
        return levels

    def set_midpoint(self, voltage: float) -> PECLLevels:
        """Program the midpoint bias."""
        levels = self.level_control.set_midpoint(voltage)
        self._sync_levels()
        return levels

    def set_delay_code(self, code: int) -> float:
        """Program the channel's edge-placement delay."""
        return self.delay_line.set_code(code)

    # -- jitter budget ------------------------------------------------------

    def path_jitter_budget(self) -> JitterBudget:
        """Everything upstream of the output buffer.

        Clock random jitter plus the serializer stage(s); the buffer
        adds its own terms inside :meth:`OutputBuffer.drive`.
        """
        clock_budget = JitterBudget(rj_rms=self.clock.jitter_rms)
        return clock_budget.combined(self.serializer.jitter_budget)

    def total_jitter_budget(self) -> JitterBudget:
        """The complete transmit budget including the buffer."""
        return self.path_jitter_budget().combined(
            self.output_buffer.jitter_budget
        )

    # -- transmission ----------------------------------------------------

    def transmit(self, lanes, rate_gbps: float,
                 rng: Optional[np.random.Generator] = None,
                 dt: float = 1.0) -> Waveform:
        """Serialize *lanes* and drive the analog output.

        Returns the waveform at the output connector, delayed by the
        programmed delay-line code.
        """
        serial = self.serializer.serialize(lanes, rate_gbps,
                                           self.lane_limit_mbps)
        return self.transmit_serial(serial, rate_gbps, rng=rng, dt=dt)

    def transmit_serial(self, bits, rate_gbps: float,
                        rng: Optional[np.random.Generator] = None,
                        dt: float = 1.0) -> Waveform:
        """Drive an already-serial bit stream (bench convenience).

        Rate ceilings of the serializer stage(s) still apply — the
        stream notionally passed through them. Row 0 of a one-row
        :meth:`transmit_serial_batch` call, so for the same RNG the
        jittered output is bit-identical to it.
        """
        return self.transmit_serial_batch(np.asarray(bits)[None],
                                          rate_gbps, rng=rng,
                                          dt=dt).row(0)

    def transmit_serial_batch(self, bits, rate_gbps: float,
                              rng: Optional[np.random.Generator] = None,
                              dt: float = 1.0) -> WaveformBatch:
        """Drive a ``(channels, n_bits)`` block down this channel.

        For a group of streams sharing this transmitter's
        configuration: one :meth:`OutputBuffer.drive_batch` render,
        the serializer's rate ceilings, and the programmed delay
        applied to every row; :meth:`transmit_serial` is the one-row
        case. Jitter offsets are drawn once across all rows' edges
        in row order, and the budget draws from *rng* once per call,
        so the block is bit-identical to per-channel
        :meth:`transmit_serial` calls sharing *rng*.
        """
        if isinstance(self.serializer, TwoStageSerializer):
            self.serializer.stage_a.check_rates(rate_gbps / 2.0,
                                                self.lane_limit_mbps)
            if rate_gbps > self.serializer.mux.spec.max_output_gbps:
                raise ConfigurationError(
                    f"{rate_gbps} Gbps exceeds the output mux ceiling of "
                    f"{self.serializer.mux.spec.max_output_gbps} Gbps"
                )
        else:
            self.serializer.check_rates(rate_gbps, self.lane_limit_mbps)
        self._sync_levels()
        batch = self.output_buffer.drive_batch(
            bits, rate_gbps,
            extra_jitter=self.path_jitter_budget(),
            rng=rng, dt=dt,
        )
        if self.delay_line.code != 0:
            # The programmable delay is rarely armed; rows go
            # through the per-waveform delay line and restack.
            batch = WaveformBatch.from_waveforms([
                self.delay_line.apply(wf)
                .shifted(-self.delay_line.insertion_delay)
                for wf in batch
            ])
        return batch

    # -- coded transmission ----------------------------------------------

    def _require_codec(self):
        if self.codec is None:
            raise ConfigurationError(
                "no encoding configured on this transmitter; pass "
                "encoding='8b10b' (or a LinkCodec) at construction"
            )
        return self.codec

    def transmit_coded(self, payload, rate_gbps: float,
                       rng: Optional[np.random.Generator] = None,
                       dt: float = 1.0) -> Waveform:
        """Frame, encode, and drive *payload* bytes at the line rate.

        *rate_gbps* is the line (symbol-bit) rate; the payload rate
        is 8/10 of it. The frame carries the codec's comma preamble
        so a blind receiver can align and lock.
        """
        codec = self._require_codec()
        bits = codec.encode_frame(payload)
        return self.transmit_serial(bits, rate_gbps, rng=rng, dt=dt)

    def transmit_coded_batch(self, payloads, rate_gbps: float,
                             rng: Optional[np.random.Generator] = None,
                             dt: float = 1.0) -> WaveformBatch:
        """Batched :meth:`transmit_coded` over ``(channels, n_bytes)``.

        One vectorized frame encode plus one batched render; the
        encoded line bits are bit-identical per row to the scalar
        path.
        """
        codec = self._require_codec()
        bits = codec.encode_frame_batch(payloads)
        return self.transmit_serial_batch(bits, rate_gbps, rng=rng,
                                          dt=dt)

    def max_rate_gbps(self) -> float:
        """Highest serial rate the composed path supports."""
        if isinstance(self.serializer, TwoStageSerializer):
            stage_limit = min(
                2.0 * self.serializer.stage_a.spec.max_output_gbps,
                self.serializer.mux.spec.max_output_gbps,
            )
            lane_limit = (2.0 * self.serializer.stage_a.factor
                          * self.lane_limit_mbps / 1_000.0)
        else:
            stage_limit = self.serializer.spec.max_output_gbps
            lane_limit = (self.serializer.factor
                          * self.lane_limit_mbps / 1_000.0)
        return min(stage_limit, lane_limit,
                   self.output_buffer.spec.max_rate_gbps)
