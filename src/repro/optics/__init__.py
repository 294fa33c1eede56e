"""Electro-optic and opto-electronic conversion path.

In the test bed the PECL signals "control laser drivers which
converted the signals to light pulses of differing wavelengths. The
optical signals are combined at the transmitting end, and optically
split at the receiving end." This package models that path: laser
driver/modulator, WDM combine/split, fiber spans, and the
photodetector+TIA receiver.
"""

from repro.optics.laser import LaserDriver, LaserSpec, WavelengthChannel
from repro.optics.wdm import WDMMux, WDMDemux, wavelength_grid
from repro.optics.fiber import FiberSpan
from repro.optics.photodetector import Photodetector
from repro.optics.link import OpticalLink, LinkBudget

__all__ = [
    "LaserDriver",
    "LaserSpec",
    "WavelengthChannel",
    "WDMMux",
    "WDMDemux",
    "wavelength_grid",
    "FiberSpan",
    "Photodetector",
    "OpticalLink",
    "LinkBudget",
]
