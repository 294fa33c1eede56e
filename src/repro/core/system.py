"""TestSystem base: the wiring common to both projects.

Figure 1's block diagram: a PC controls the DLC over USB, an RF
source provides the timing reference, PECL takes the DLC's wide
moderate-speed data to multi-gigabit rates, and a sampling scope (in
the lab) grades the outputs. Both concrete systems share this
skeleton and differ in the PECL arrangement.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.dlc.core import DigitalLogicCore
from repro.dlc.clocking import ClockSignal
from repro.eye.diagram import EyeDiagram
from repro.eye.metrics import EyeMetrics
from repro.instruments.rfclock import RFClockSource
from repro.instruments.scope import SamplingScope, EdgeJitterResult
from repro.pecl.transmitter import PECLTransmitter
from repro.signal.waveform import Waveform


class TestSystem:
    """Common skeleton: DLC + RF reference + scope + one TX channel.

    (Not a pytest class, despite the name.)

    Parameters
    ----------
    rate_gbps:
        Target serial data rate.
    rf_frequency_ghz:
        RF reference frequency; defaults to the bit rate (the
        reference clocks the final serializer stage).
    io_rate_mbps:
        DLC I/O derating.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, rate_gbps: float,
                 rf_frequency_ghz: Optional[float] = None,
                 io_rate_mbps: float = 400.0):
        if rate_gbps <= 0.0:
            raise ConfigurationError("rate must be positive")
        self.rate_gbps = float(rate_gbps)
        self.rf_source = RFClockSource(
            rf_frequency_ghz if rf_frequency_ghz is not None else rate_gbps
        )
        self.rf_source.enable()
        self.dlc = DigitalLogicCore(io_rate_mbps=io_rate_mbps,
                                    rf_clock=self.rf_clock)
        self.dlc.configure_direct()
        self.scope = SamplingScope()
        self._tx: Optional[PECLTransmitter] = None

    @property
    def rf_clock(self) -> ClockSignal:
        """The RF reference as a clock signal."""
        return self.rf_source.output()

    # -- worker-side replication ------------------------------------------

    def clone_spec(self) -> dict:
        """A picklable recipe for rebuilding an equivalent system.

        Parallel BER characterization ships this dict (class path
        plus constructor kwargs) to executor workers, which rebuild
        and cache their own tester — the software form of Figure
        13's "replicated in array form". Captures the configuration
        the base constructor owns; systems customized beyond that
        (a swapped channel model, say) should override this.
        """
        return {
            "class": f"{type(self).__module__}:{type(self).__qualname__}",
            "kwargs": {
                "rate_gbps": self.rate_gbps,
                "io_rate_mbps": self.dlc.io_rate_mbps,
            },
        }

    @staticmethod
    def from_clone_spec(spec: dict) -> "TestSystem":
        """Rebuild a system from a :meth:`clone_spec` recipe."""
        import importlib

        module_name, _, qualname = spec["class"].partition(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj(**spec["kwargs"])

    @property
    def transmitter(self) -> PECLTransmitter:
        """The system's transmit channel (built by the subclass)."""
        if self._tx is None:
            raise ConfigurationError(
                "no transmitter configured on this system"
            )
        return self._tx

    # -- stimulus ----------------------------------------------------------

    def serialization_factor(self) -> int:
        """Lanes consumed per serial bit stream (subclass knows)."""
        raise NotImplementedError

    def _lfsr_stream(self, seed: int, n_bits: int) -> np.ndarray:
        """The fabric LFSR's first *n_bits* serial bits from *seed*,
        restarted from the DLC's registers."""
        self.dlc.host_write(0x0C, seed)  # LFSR_SEED
        self.dlc.reset_lfsrs()
        return self.dlc.lfsr().bits(n_bits)

    def prbs_waveform(self, n_bits: int, seed: int = 1,
                      rate_gbps: Optional[float] = None,
                      dt: float = 1.0) -> Waveform:
        """A PRBS stimulus waveform out of the full TX path.

        The fabric LFSR's serial stream is struck across the DLC
        lanes in the layout the serializer topology needs, so the
        analog output carries the *true* PRBS bit order (a
        self-synchronizing checker locks onto it directly).
        """
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        tel = telemetry.active()
        with tel.span("system.prbs_waveform"):
            factor = self.serialization_factor()
            n_words = int(np.ceil(n_bits / factor))
            serial = self._lfsr_stream(seed, n_words * factor)
            lanes = self.transmitter.serializer.lanes_for_stream(serial)
            lane_rate = \
                self.transmitter.serializer.required_lane_rate_mbps(rate)
            lanes = self.dlc.drive_lanes(lanes, lane_rate_mbps=lane_rate)
            rng = np.random.default_rng(seed)
            tel.counter("system.prbs_waveforms").inc()
            tel.counter("system.serializer_words").inc(n_words)
            tel.counter("system.serial_bits").inc(n_words * factor)
            return self.transmitter.transmit(lanes, rate, rng=rng, dt=dt)

    # -- measurements ----------------------------------------------------

    def measure_eye(self, n_bits: int = 4000, seed: int = 1,
                    rate_gbps: Optional[float] = None) -> EyeMetrics:
        """PRBS eye measurement at the output connector."""
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        tel = telemetry.active()
        with tel.span("system.measure_eye"):
            wf = self.prbs_waveform(n_bits, seed=seed, rate_gbps=rate)
            tel.counter("system.eye_measurements").inc()
            return self.scope.measure_eye(
                wf, rate, rng=np.random.default_rng(seed + 1)
            )

    def eye_diagram(self, n_bits: int = 4000, seed: int = 1,
                    rate_gbps: Optional[float] = None) -> EyeDiagram:
        """The folded eye itself (for rendering)."""
        rate = self.rate_gbps if rate_gbps is None else rate_gbps
        wf = self.prbs_waveform(n_bits, seed=seed, rate_gbps=rate)
        return self.scope.eye_diagram(wf, rate,
                                      rng=np.random.default_rng(seed + 1))

    def measure_edge_jitter(self, n_acquisitions: int = 500,
                            seed: int = 0) -> EdgeJitterResult:
        """Figure 9's measurement: one repeated transition.

        A fixed 0->1 pattern is re-armed per acquisition so only
        random (not data-dependent) jitter is visible.
        """
        tx = self.transmitter
        rate = self.rate_gbps
        pattern = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8)

        def edge_source(rng: np.random.Generator) -> Waveform:
            return tx.output_buffer.drive(
                pattern, rate,
                extra_jitter=tx.path_jitter_budget(), rng=rng,
            )

        return self.scope.edge_jitter(edge_source,
                                      n_acquisitions=n_acquisitions,
                                      seed=seed)

    def measure_rise_fall(self, seed: int = 0):
        """(rise, fall) 20-80% times of the output, ps."""
        tx = self.transmitter
        pattern = np.array([0, 1, 1, 1, 1, 0, 0, 0], dtype=np.uint8)
        wf = tx.output_buffer.drive(pattern, self.rate_gbps,
                                    rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        return (self.scope.rise_time(wf, rng), self.scope.fall_time(wf, rng))
