"""Bit-slip word alignment on the comma character.

A deserializer wakes up at an arbitrary bit phase: symbol boundaries
land anywhere within its 10-bit word. Hardware fixes this with a
*bitslip* — shift the framing one bit and look again — until the
comma (K.28.5) pattern sits aligned in the word; the comma's 7-bit
core is singular, i.e. it cannot straddle two valid symbols, so an
aligned sighting pins the boundary exactly (SNIPPETS.md Snippet 2's
``BitSlip`` + comma path, in array form).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.coding.code8b10b import COMMA_CODES, SYMBOL_BITS


@dataclasses.dataclass(frozen=True)
class Alignment:
    """A detected word boundary.

    Attributes
    ----------
    position:
        Absolute bit index of the first aligned symbol.
    slip:
        Bit-slips a hardware aligner would apply (``position`` mod
        10) to rotate its framing onto the boundary.
    polarity:
        Entry running disparity of the comma found there (-1/+1).
    """

    position: int
    slip: int
    polarity: int


def _window_codes(bits: np.ndarray) -> np.ndarray:
    """Pack every 10-bit window of *bits* into symbol integers."""
    if len(bits) < SYMBOL_BITS:
        return np.zeros(0, dtype=np.uint16)
    windows = np.lib.stride_tricks.sliding_window_view(
        (bits & 1).astype(np.uint16), SYMBOL_BITS)
    shifts = np.arange(SYMBOL_BITS - 1, -1, -1)
    return (windows << shifts).sum(axis=-1).astype(np.uint16)


def _comma_sightings(bits: np.ndarray) -> np.ndarray:
    """Bit index of every comma window in *bits*, at any phase."""
    codes = _window_codes(bits)
    return np.flatnonzero((codes == COMMA_CODES[0])
                          | (codes == COMMA_CODES[1]))


class BitSlipAligner:
    """Comma hunter over a serial bit stream.

    Parameters
    ----------
    confirm:
        Comma sightings required at the same 10-bit phase before an
        alignment is reported (>= 2 rejects chance patterns in
        uncoded garbage; 1 is the fast relock setting used once a
        frame is known to carry commas).
    """

    def __init__(self, confirm: int = 1):
        if confirm < 1:
            raise ValueError("confirm must be >= 1")
        self.confirm = int(confirm)
        #: Cumulative bit-slips applied across ``find`` calls.
        self.slips = 0

    def find(self, bits, start: int = 0) -> Optional[Alignment]:
        """Locate the next aligned comma at or after *start*.

        Scans every bit offset (the software form of slipping one
        bit per try), requiring ``confirm`` sightings at the same
        phase. Returns ``None`` when no comma aligns.
        """
        bits = np.asarray(bits)
        hits = _comma_sightings(bits[start:])
        if len(hits) == 0:
            return None
        if self.confirm > 1:
            phases = hits % SYMBOL_BITS
            for phase in np.unique(phases):
                at_phase = hits[phases == phase]
                if len(at_phase) >= self.confirm:
                    hits = at_phase
                    break
            else:
                return None
        first = int(hits[0])
        code = _window_codes(bits[start + first:start + first + SYMBOL_BITS])
        polarity = -1 if code[0] == COMMA_CODES[0] else +1
        self.slips += first % SYMBOL_BITS
        return Alignment(position=start + first,
                         slip=first % SYMBOL_BITS,
                         polarity=polarity)

    def aligned_words(self, bits, alignment: Alignment) -> np.ndarray:
        """Cut *bits* into 10-bit words from the aligned boundary."""
        bits = np.asarray(bits)
        usable = (len(bits) - alignment.position) // SYMBOL_BITS
        stop = alignment.position + usable * SYMBOL_BITS
        return (bits[alignment.position:stop] & 1).reshape(
            usable, SYMBOL_BITS)
