"""The Optical Test Bed (Section 3).

Five high-speed channels (4-bit payload + source-synchronous clock)
at a nominal 2.5 Gbps, each an 8:1 PECL serializer behind a SiGe
output buffer, plus a slower Frame bit and four Header channels
straight off DLC pins. Output levels are adjustable per Figures 10
and 11 to stress the Data Vortex under non-ideal conditions.

A packet slot (Figure 4) sends all of these together, so
:meth:`OpticalTestBed.transmit_slot` renders them as blocks: one per
run of neighbouring same-configuration high-speed channels, one for
Frame and Header, and one coupling block for board crosstalk.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.core.packetformat import PacketSlot, PacketSlotFormat
from repro.core.system import TestSystem
from repro.pecl.buffer import SIGE_BUFFER, BufferSpec
from repro.pecl.levels import PECLLevels
from repro.dlc.io import SILICON_MAX_MBPS
from repro.pecl.serializer import ParallelToSerial, SerializerSpec
from repro.pecl.transmitter import PECLTransmitter
from repro.signal.nrz import NRZEncoder
from repro.signal.waveform import Waveform, WaveformBatch


class OpticalTestBed(TestSystem):
    """Project 1: the Data Vortex test bed's electronics.

    Parameters
    ----------
    rate_gbps:
        High-speed channel rate (2.5 nominal; demonstrated to 4.0).
    n_data_channels:
        Parallel payload width (4 + clock = the 5 channels built).
    buffer_spec:
        Output stage; the SiGe part by default.
    """

    def __init__(self, rate_gbps: float = 2.5, n_data_channels: int = 4,
                 buffer_spec: BufferSpec = SIGE_BUFFER,
                 io_rate_mbps: float = 400.0,
                 crosstalk=None, encoding=None):
        from repro.coding.link import LinkCodec
        from repro.pecl.receiver import PECLReceiver

        super().__init__(rate_gbps, io_rate_mbps=io_rate_mbps)
        if n_data_channels < 1:
            raise ConfigurationError("need >= 1 data channel")
        self.n_data_channels = int(n_data_channels)
        self.fmt = PacketSlotFormat(rate_gbps=rate_gbps,
                                    n_data_channels=n_data_channels)
        #: Optional line coding on the high-speed channels (None =
        #: raw NRZ; "8b10b", "8b10b-scrambled", or a
        #: :class:`repro.coding.LinkCodec`).
        self.codec = LinkCodec.from_spec(encoding)
        # One TX per high-speed channel: data channels + the clock.
        self.channels: Dict[str, PECLTransmitter] = {}
        for i in range(n_data_channels):
            self.channels[f"data{i}"] = self._make_tx()
        self.channels["clock"] = self._make_tx()
        self._tx = self.channels["data0"]
        #: Receive side for coded channels (shares the codec).
        self.receiver = PECLReceiver(buffer_spec=SIGE_BUFFER,
                                     encoding=self.codec)
        if crosstalk is not None:
            foreign = set(crosstalk.names) - set(self.channels)
            if foreign:
                raise ConfigurationError(
                    f"crosstalk names {sorted(foreign)} are not "
                    f"high-speed channels; have {sorted(self.channels)}"
                )
        #: Optional board-level coupling between the high-speed
        #: channels (a :class:`repro.channel.crosstalk
        #: .CrosstalkMatrix` over some of this bed's high-speed
        #: channel names; the others pass through uncoupled).
        self.crosstalk = crosstalk

    def _make_tx(self) -> PECLTransmitter:
        return PECLTransmitter(
            ParallelToSerial(SerializerSpec()),
            buffer_spec=SIGE_BUFFER,
            clock=self.rf_clock,
            lane_limit_mbps=SILICON_MAX_MBPS,
            encoding=self.codec,
        )

    def serialization_factor(self) -> int:
        return self.channels["data0"].serializer.factor

    # -- packet transmission ------------------------------------------------

    def transmit_slot(self, slot: PacketSlot, seed: int = 0,
                      dt: float = 1.0) -> Dict[str, Waveform]:
        """Render every channel of one packet slot as waveforms.

        High-speed channels (clock + data) go through the PECL
        serializer path; Frame and Header channels are driven at the
        bit-period granularity directly from DLC-grade outputs
        (slower edges, CMOS-grade jitter). The channels render as
        blocks: each run of neighbouring high-speed channels (clock,
        data0, data1, ...) that share a transmit configuration is one
        :meth:`~repro.pecl.transmitter.PECLTransmitter
        .transmit_serial_batch` call, and Frame and Header are one
        slow block. The runs draw jitter in channel order, so the
        result is bit-identical to rendering each channel on its own
        from the same generator. Board crosstalk couples the
        channels the matrix names as one block, so they must share
        one time grid: a delay code on one of them raises
        :class:`ConfigurationError`. The others pass through.
        """
        if slot.fmt.rate_gbps != self.rate_gbps:
            raise ConfigurationError(
                f"slot format is {slot.fmt.rate_gbps} Gbps; test bed "
                f"runs {self.rate_gbps} Gbps"
            )
        tel = telemetry.active()
        with tel.span("testbed.transmit_slot"):
            rng = np.random.default_rng(seed)
            out: Dict[str, Waveform] = {}
            streams = slot.all_channels()
            high_speed = ["clock"] + [f"data{i}" for i in
                                      range(self.n_data_channels)]
            for _, run in itertools.groupby(high_speed,
                                            key=self._transmit_key):
                names = list(run)
                block = self.channels[names[0]].transmit_serial_batch(
                    np.stack([streams[n] for n in names]),
                    self.rate_gbps, rng=rng, dt=dt,
                )
                out.update(zip(names, block))
            # Frame + header: lower-speed CMOS outputs (~8x slower
            # edges).
            slow = NRZEncoder(self.rate_gbps, v_low=0.0, v_high=2.5,
                              t20_80=400.0, dt=dt)
            slow_names = [name for name in streams
                          if name.startswith(("frame", "header"))]
            out.update(zip(slow_names, slow.encode_batch(
                np.stack([streams[n] for n in slow_names]),
                rng=rng)))
            if self.crosstalk is not None:
                out.update(self.crosstalk.apply(
                    {name: out[name] for name in self.crosstalk.names}))
            tel.counter("testbed.slots_transmitted").inc()
            tel.counter("testbed.channel_waveforms").inc(len(out))
            return out

    def _transmit_key(self, name: str) -> tuple:
        """What a channel's render depends on beyond its bits;
        neighbours with equal keys render as one block."""
        tx = self.channels[name]
        return (tx.output_buffer.spec, tx.levels.v_low,
                tx.levels.v_high, tx.delay_line.code,
                tx.path_jitter_budget())

    def transmit_packets(self, slots: List[PacketSlot],
                         seed: int = 0) -> Dict[str, Waveform]:
        """Render a train of slots end-to-end per channel."""
        if not slots:
            raise ConfigurationError("need at least one slot")
        per_channel: Dict[str, List[Waveform]] = {}
        for k, slot in enumerate(slots):
            rendered = self.transmit_slot(slot, seed=seed + k)
            for name, wf in rendered.items():
                per_channel.setdefault(name, []).append(wf)
        return {
            name: Waveform.concatenate(parts)
            for name, parts in per_channel.items()
        }

    # -- level controls (Figures 10 and 11) -----------------------------

    def set_channel_high_level(self, channel: str,
                               voltage: float) -> PECLLevels:
        """Program one channel's VOH."""
        return self._channel(channel).set_high_level(voltage)

    def set_channel_swing(self, channel: str, swing: float) -> PECLLevels:
        """Program one channel's amplitude swing."""
        return self._channel(channel).set_swing(swing)

    def set_channel_midpoint(self, channel: str,
                             voltage: float) -> PECLLevels:
        """Program one channel's midpoint bias."""
        return self._channel(channel).set_midpoint(voltage)

    def sweep_high_level(self, channel: str, n_steps: int = 4,
                         step: float = -0.1) -> List[PECLLevels]:
        """Figure 10: VOH stepped down in 100 mV increments."""
        return self._channel(channel).level_control.sweep_high_level(
            n_steps, step
        )

    def sweep_swing(self, channel: str, n_steps: int = 4,
                    step: float = -0.2) -> List[PECLLevels]:
        """Figure 11: swing stepped in 200 mV increments."""
        return self._channel(channel).level_control.sweep_swing(
            n_steps, step
        )

    def _channel(self, name: str) -> PECLTransmitter:
        if name not in self.channels:
            raise ConfigurationError(
                f"no channel {name!r}; have {sorted(self.channels)}"
            )
        return self.channels[name]

    # -- receive side -------------------------------------------------------

    def receive_slot(self, waveforms: Dict[str, Waveform],
                     seed: int = 0) -> Dict[str, np.ndarray]:
        """Recover a transmitted slot's channels from waveforms.

        The receive half of the test bed ("5 high-speed data
        channels for both transmitting and receiving"): each channel
        is strobed at its bit-cell centers and sliced back into the
        Figure 4 fields. Returns the recovered bit streams per
        channel plus decoded fields:

        * ``payload``: (n_data_channels, payload_bits)
        * ``header_value``: the routing address as an int array of
          one element
        * ``frame_valid``: 1 if the frame bit asserted in the data
          window
        """
        from repro.signal.sampling import decide_bits

        telemetry.active().counter("testbed.slots_received").inc()
        fmt = self.fmt
        rng = np.random.default_rng(seed)
        recovered: Dict[str, np.ndarray] = {}
        for name, wf in waveforms.items():
            threshold = 0.5 * (wf.min() + wf.max())
            if wf.peak_to_peak() < 1e-6:
                # A quiet channel (e.g. header bit 0): all zeros.
                recovered[name] = np.zeros(fmt.slot_bits,
                                           dtype=np.uint8)
                continue
            jitter = rng.normal(0.0, 1.0)
            recovered[name] = decide_bits(
                wf, self.rate_gbps, threshold,
                n_bits=fmt.slot_bits, t_first_bit=jitter,
            )
        payload = np.vstack([
            recovered[f"data{i}"][fmt.data_start_bit:fmt.data_end_bit]
            for i in range(self.n_data_channels)
        ])
        header_value = 0
        for i in range(fmt.n_header_bits):
            bit = int(recovered[f"header{i}"][fmt.data_start_bit])
            header_value = (header_value << 1) | bit
        frame_window = recovered["frame"][fmt.data_start_bit:
                                          fmt.data_end_bit]
        recovered["payload"] = payload
        recovered["header_value"] = np.array([header_value])
        recovered["frame_valid"] = np.array(
            [1 if frame_window.all() else 0], dtype=np.uint8
        )
        return recovered

    def slot_roundtrip(self, slot: PacketSlot,
                       seed: int = 0) -> bool:
        """Transmit a slot and verify its recovery bit-for-bit."""
        waveforms = self.transmit_slot(slot, seed=seed)
        recovered = self.receive_slot(waveforms, seed=seed + 1)
        payload_ok = all(
            np.array_equal(recovered["payload"][i], slot.payload[i])
            for i in range(self.n_data_channels)
        )
        header_ok = int(recovered["header_value"][0]) == slot.address()
        frame_ok = bool(recovered["frame_valid"][0]) == slot.frame
        ok = payload_ok and header_ok and frame_ok
        tel = telemetry.active()
        tel.counter("testbed.roundtrips").inc()
        if not ok:
            tel.counter("testbed.roundtrip_failures").inc()
        return ok

    # -- multi-channel measurements --------------------------------------

    def four_channel_waveforms(self, word_bits: int = 32, seed: int = 2,
                               dt: float = 1.0) -> Dict[str, Waveform]:
        """Figure 6's view: four serialized data words side by side."""
        rng = np.random.default_rng(seed)
        out = {}
        for i in range(min(4, self.n_data_channels)):
            bits = rng.integers(0, 2, size=word_bits).astype(np.uint8)
            tx = self.channels[f"data{i}"]
            out[f"data{i}"] = tx.transmit_serial(
                bits, self.rate_gbps, rng=rng, dt=dt
            )
        return out

    # -- coded serial links -----------------------------------------------

    def _require_codec(self):
        if self.codec is None:
            raise ConfigurationError(
                "no encoding configured on this test bed; pass "
                "encoding='8b10b' (or a LinkCodec) at construction"
            )
        return self.codec

    def transmit_coded(self, payload, channel: str = "data0",
                       seed: int = 0, dt: float = 1.0) -> Waveform:
        """Frame, encode, and render *payload* bytes on one channel."""
        self._require_codec()
        tx = self._channel(channel)
        return tx.transmit_coded(payload, self.rate_gbps,
                                 rng=np.random.default_rng(seed),
                                 dt=dt)

    def transmit_coded_channels(self, payloads, seed: int = 0,
                                dt: float = 1.0) -> WaveformBatch:
        """Drive a ``(n_data_channels, n_bytes)`` coded payload block.

        One vectorized frame encode plus one batched render across
        the bed's data channels (they share a transmit
        configuration), consistent with the PR 5 batched layout —
        the encoded line bits are bit-identical per row to
        :meth:`transmit_coded`.
        """
        self._require_codec()
        payloads = np.asarray(payloads, dtype=np.uint8)
        if payloads.ndim != 2 or \
                payloads.shape[0] != self.n_data_channels:
            raise ConfigurationError(
                f"expected ({self.n_data_channels}, n_bytes), got "
                f"shape {payloads.shape}"
            )
        tel = telemetry.active()
        with tel.span("testbed.transmit_coded_channels"):
            return self._tx.transmit_coded_batch(
                payloads, self.rate_gbps,
                rng=np.random.default_rng(seed), dt=dt)

    def coded_roundtrip(self, payload, channel: str = "data0",
                        seed: int = 0, noise_rms: float = 0.0):
        """One coded TX → RX pass; returns the decoded frame.

        Optionally adds Gaussian voltage noise before the receiver
        (the bench knob for error-burst statistics). The returned
        :class:`repro.coding.DecodedFrame` carries payload bytes and
        the violation/disparity/lock stats.
        """
        self._require_codec()
        payload = np.asarray(payload, dtype=np.uint8)
        wf = self.transmit_coded(payload, channel=channel, seed=seed)
        if noise_rms > 0.0:
            rng = np.random.default_rng(seed + 1)
            wf = Waveform(
                wf.values + rng.normal(0.0, noise_rms, len(wf)),
                dt=wf.dt, t0=wf.t0)
        return self.receiver.receive_payload(
            wf, self.rate_gbps, len(payload),
            rng=np.random.default_rng(seed + 2))

    def measure_coded_eye(self, n_bytes: int = 400, seed: int = 1,
                          channel: str = "data0"):
        """Eye metrics of the encoded line stream on one channel.

        The 8b10b symbol stream is what actually crosses the
        connector, so its eye (at the line rate) is the apples-to-
        apples counterpart of the raw-PRBS eyes in Figures 7-8.
        """
        from repro.coding.checker import prbs_payload_bytes
        from repro.eye.diagram import EyeDiagram
        from repro.eye.metrics import measure_eye

        self._require_codec()
        payload = prbs_payload_bytes(7, n_bytes, seed=seed)
        wf = self.transmit_coded(payload, channel=channel, seed=seed)
        return measure_eye(EyeDiagram.from_waveform(wf,
                                                    self.rate_gbps))
