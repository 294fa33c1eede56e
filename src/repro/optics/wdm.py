"""Wavelength-division multiplexing: combine and split.

"The optical signals are combined at the transmitting end, and
optically split at the receiving end (to recover the parallel data
words)." The mux sums channel powers (with insertion loss); the
demux separates them again with finite channel isolation
(crosstalk).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.optics.laser import WavelengthChannel
from repro.signal.waveform import Waveform


def wavelength_grid(n_channels: int, start_nm: float = 1546.0,
                    spacing_nm: float = 0.8) -> List[WavelengthChannel]:
    """A DWDM-style grid of *n_channels* (default 100 GHz spacing)."""
    if n_channels < 1:
        raise ConfigurationError("need >= 1 channel")
    if spacing_nm <= 0.0:
        raise ConfigurationError("spacing must be positive")
    return [
        WavelengthChannel(start_nm + k * spacing_nm, k)
        for k in range(n_channels)
    ]


class WDMMux:
    """Combines per-wavelength power waveforms onto one fiber.

    Parameters
    ----------
    insertion_loss_db:
        Loss through the combiner per channel.
    """

    def __init__(self, insertion_loss_db: float = 1.5):
        if insertion_loss_db < 0.0:
            raise ConfigurationError("insertion loss must be >= 0 dB")
        self.insertion_loss_db = float(insertion_loss_db)

    @property
    def gain(self) -> float:
        """Linear power transmission per channel."""
        return 10.0 ** (-self.insertion_loss_db / 10.0)

    def combine(self, channels: Dict[WavelengthChannel, Waveform]
                ) -> Dict[WavelengthChannel, Waveform]:
        """Apply the mux: each wavelength keeps its identity on the
        shared fiber (the model tracks per-wavelength power), scaled
        by the insertion loss."""
        if not channels:
            raise ConfigurationError("nothing to combine")
        seen = set()
        for ch in channels:
            if ch.index in seen:
                raise ConfigurationError(
                    f"two signals on wavelength index {ch.index}"
                )
            seen.add(ch.index)
        return {ch: wf.scaled(self.gain) for ch, wf in channels.items()}

    def total_power(self, channels: Dict[WavelengthChannel, Waveform]
                    ) -> Waveform:
        """Aggregate power on the fiber (what a power meter reads)."""
        combined = self.combine(channels)
        waveforms = list(combined.values())
        total = waveforms[0]
        for wf in waveforms[1:]:
            total = total + wf
        return total


class WDMDemux:
    """Splits wavelengths back out with finite isolation.

    Parameters
    ----------
    insertion_loss_db:
        Loss through the splitter per channel.
    isolation_db:
        Suppression of each *adjacent* channel's power leaking into
        a port (crosstalk).
    """

    def __init__(self, insertion_loss_db: float = 2.0,
                 isolation_db: float = 30.0):
        if insertion_loss_db < 0.0:
            raise ConfigurationError("insertion loss must be >= 0 dB")
        if isolation_db <= 0.0:
            raise ConfigurationError("isolation must be positive dB")
        self.insertion_loss_db = float(insertion_loss_db)
        self.isolation_db = float(isolation_db)

    @property
    def gain(self) -> float:
        """Linear through-channel power transmission."""
        return 10.0 ** (-self.insertion_loss_db / 10.0)

    @property
    def crosstalk(self) -> float:
        """Linear adjacent-channel leakage."""
        return 10.0 ** (-self.isolation_db / 10.0)

    def split(self, channels: Dict[WavelengthChannel, Waveform]
              ) -> Dict[WavelengthChannel, Waveform]:
        """Separate the wavelengths; each output port carries its own
        channel plus attenuated leakage from spectral neighbours."""
        if not channels:
            raise ConfigurationError("nothing to split")
        by_index = {ch.index: (ch, wf) for ch, wf in channels.items()}
        out: Dict[WavelengthChannel, Waveform] = {}
        for index, (ch, wf) in by_index.items():
            port = wf.scaled(self.gain)
            for neighbour in (index - 1, index + 1):
                if neighbour in by_index:
                    _, n_wf = by_index[neighbour]
                    port = port + n_wf.scaled(self.gain * self.crosstalk)
            out[ch] = port
        return out
