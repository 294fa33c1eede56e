"""PRBS verification over a *coded* stream.

The raw :class:`~repro.dlc.prbs_checker.SelfSyncChecker` grades line
bits directly; on a coded link the payload rides inside 8b10b
symbols, so verification means: align and decode the line stream,
strip framing, descramble, and only then run the self-synchronizing
PRBS check over the recovered payload bits — while reporting the
line-layer health (code violations, disparity errors, lock state)
the raw checker cannot see.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro import telemetry
from repro.coding.link import DecodedFrame, LinkCodec
from repro.dlc.prbs_checker import CheckerState, SelfSyncChecker


def prbs_payload_bytes(order: int, n_bytes: int,
                       seed: int = 1) -> np.ndarray:
    """*n_bytes* of PRBS-*order* packed MSB-first into bytes."""
    from repro.signal.prbs import prbs_bits

    bits = prbs_bits(order, 8 * n_bytes, seed=seed)
    return np.packbits(bits)


@dataclasses.dataclass
class CodedCheckResult:
    """Line-layer and payload-layer verdicts for one stream."""

    frame: DecodedFrame
    payload: CheckerState

    @property
    def code_violations(self) -> int:
        return self.frame.stats.code_violations

    @property
    def disparity_errors(self) -> int:
        return self.frame.stats.disparity_errors

    @property
    def locked(self) -> bool:
        return self.frame.stats.locked

    @property
    def payload_ber(self) -> float:
        return self.payload.ber

    @property
    def clean(self) -> bool:
        """Error-free line and payload, with lock held."""
        return (self.frame.clean and self.payload.errors == 0
                and self.payload.slips == 0)


class CodedStreamChecker:
    """Self-synchronizing PRBS check through the coded-link stack.

    Parameters
    ----------
    codec:
        The framing in use on the transmit side (scrambling and
        comma layout must match).
    order:
        PRBS order of the payload stream.
    """

    def __init__(self, codec: Optional[LinkCodec] = None,
                 order: int = 7, resync_threshold: int = 16):
        self.codec = codec if codec is not None else LinkCodec()
        self.order = int(order)
        self.resync_threshold = int(resync_threshold)

    def check(self, line_bits, n_bytes: Optional[int] = None
              ) -> CodedCheckResult:
        """Decode *line_bits* and grade the recovered payload."""
        tel = telemetry.active()
        frame = self.codec.decode_frame(line_bits, n_bytes=n_bytes)
        checker = SelfSyncChecker(
            order=self.order, resync_threshold=self.resync_threshold)
        if len(frame.payload):
            checker.run(np.unpackbits(frame.payload))
        state = checker.state
        tel.counter("coding.payload_bits_checked").inc(
            state.bits_checked)
        tel.counter("coding.payload_errors").inc(state.errors)
        tel.counter("coding.checker_slips").inc(state.slips)
        return CodedCheckResult(frame=frame, payload=state)
