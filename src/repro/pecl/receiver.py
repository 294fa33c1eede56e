"""PECL receive path: analog input to recovered lanes.

An input buffer regenerates the (possibly channel-degraded) signal,
the PECL sampler strobes it at the programmed cell position, and an
optional deserializer returns the data to DLC lane format. Includes
bit-error accounting against an expected stream — the check the
mini-tester performs on signals returned through the DUT.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.signal.waveform import Waveform
from repro.pecl.buffer import (OutputBuffer, BufferSpec, MINI_IO_BUFFER,
                               ProcessedView)
from repro.pecl.sampler import PECLSampler
from repro.pecl.serializer import ParallelToSerial
from repro._units import unit_interval_ps


@dataclasses.dataclass(frozen=True)
class BERResult:
    """Outcome of a bit-error comparison.

    Attributes
    ----------
    n_bits:
        Bits compared.
    n_errors:
        Mismatches.
    """

    n_bits: int
    n_errors: int

    @property
    def ber(self) -> float:
        """Bit-error ratio."""
        if self.n_bits == 0:
            return 0.0
        return self.n_errors / self.n_bits

    def to_dict(self) -> dict:
        """Wire-ready plain-dict form (for the RPC service layer)."""
        return {"n_bits": int(self.n_bits),
                "n_errors": int(self.n_errors)}

    @classmethod
    def from_dict(cls, data: dict) -> "BERResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(n_bits=int(data["n_bits"]),
                   n_errors=int(data["n_errors"]))

    def __str__(self) -> str:
        return f"{self.n_errors}/{self.n_bits} errors (BER {self.ber:.2e})"


class PECLReceiver:
    """A complete receive channel.

    Parameters
    ----------
    buffer_spec:
        Input buffer grade.
    deserializer:
        Optional N:1 deserializer returning lane format.
    threshold:
        Decision voltage; default mid-rail of the buffer.
    """

    def __init__(self, buffer_spec: BufferSpec = MINI_IO_BUFFER,
                 deserializer: Optional[ParallelToSerial] = None,
                 threshold: Optional[float] = None,
                 encoding=None):
        from repro.coding.link import LinkCodec

        self.input_buffer = OutputBuffer(buffer_spec)
        if threshold is None:
            threshold = self.input_buffer.levels.midpoint
        self.sampler = PECLSampler(threshold=threshold)
        self.deserializer = deserializer
        #: Optional line coding, mirroring the transmit side (None =
        #: raw NRZ; "8b10b", "8b10b-scrambled", or a
        #: :class:`repro.coding.LinkCodec`).
        self.codec = LinkCodec.from_spec(encoding)

    def regenerate(self, waveform: Waveform) -> Waveform:
        """Pass the input through the limiting input buffer."""
        return self.input_buffer.process(waveform)

    def receive_bits(self, waveform: Waveform, rate_gbps: float,
                     n_bits: int, strobe_code: Optional[int] = None,
                     t_first_bit: float = 0.0,
                     rng: Optional[np.random.Generator] = None
                     ) -> np.ndarray:
        """Regenerate and strobe *n_bits* out of the waveform.

        The strobe defaults to cell center (half a UI of delay-line
        codes past the cell start). The sampler reads a
        :class:`~repro.pecl.buffer.ProcessedView` of the input, which
        filters only the samples around each strobe, so the bits are
        those of strobing :meth:`regenerate`'s whole record at a
        fraction of its cost.
        """
        if n_bits < 1:
            raise ConfigurationError(f"need >= 1 bit, got {n_bits}")
        regen = ProcessedView(self.input_buffer, waveform)
        # The regenerated signal rides between the input buffer's
        # rails; strobe against its midpoint.
        self.sampler.threshold = self.input_buffer.levels.midpoint
        if strobe_code is None:
            ui = unit_interval_ps(rate_gbps)
            strobe_code = int(round((ui / 2.0) / self.sampler.resolution))
            strobe_code = min(strobe_code,
                              self.sampler.delay_line.n_codes - 1)
        return self.sampler.capture_bits(regen, rate_gbps, n_bits,
                                         strobe_code, t_first_bit, rng)

    def receive_payload(self, waveform: Waveform, rate_gbps: float,
                        n_bytes: int, extra_bits: int = 0,
                        **kwargs):
        """Strobe a coded waveform and recover the framed payload.

        Captures the frame's line bits (``codec.frame_bits(n_bytes)``
        plus *extra_bits* of margin), then runs the full receive
        stack — bit-slip comma alignment, 8b10b decode with
        disparity tracking, lock state machine, descrambling —
        returning a :class:`repro.coding.DecodedFrame` whose stats
        carry the code-violation / disparity-error / lock telemetry.
        """
        if self.codec is None:
            raise ConfigurationError(
                "no encoding configured on this receiver; pass "
                "encoding='8b10b' (or a LinkCodec) at construction"
            )
        n_line_bits = self.codec.frame_bits(n_bytes) + int(extra_bits)
        bits = self.receive_bits(waveform, rate_gbps, n_line_bits,
                                 **kwargs)
        return self.codec.decode_frame(bits, n_bytes=n_bytes)

    def receive_lanes(self, waveform: Waveform, rate_gbps: float,
                      n_bits: int, **kwargs) -> np.ndarray:
        """Receive and deserialize back to DLC lane format."""
        if self.deserializer is None:
            raise ConfigurationError(
                "no deserializer configured on this receiver"
            )
        bits = self.receive_bits(waveform, rate_gbps, n_bits, **kwargs)
        usable = (len(bits) // self.deserializer.factor
                  * self.deserializer.factor)
        return self.deserializer.deserialize(bits[:usable])

    @staticmethod
    def compare(received, expected) -> BERResult:
        """Count bit errors between two streams."""
        received = np.asarray(received).astype(np.uint8)
        expected = np.asarray(expected).astype(np.uint8)
        if received.shape != expected.shape:
            raise MeasurementError(
                f"stream lengths differ: {received.shape} vs "
                f"{expected.shape}"
            )
        errors = int(np.count_nonzero(received != expected))
        return BERResult(n_bits=received.size, n_errors=errors)
