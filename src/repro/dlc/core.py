"""The Digital Logic Core facade.

Composes the FPGA, clocking, register file, test sequencer, pattern
sources, and the configuration FLASH into the board-level DLC of
Figure 2: the common controlling logic of both test systems.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError, RateLimitError
from repro.dlc.clocking import ClockManager, ClockSignal
from repro.dlc.fpga import FPGA, FPGAResources, Bitstream
from repro.dlc.io import IOBank, DEFAULT_DERATED_MBPS
from repro.dlc.lfsr import LFSR
from repro.dlc.pattern import PatternMemory
from repro.dlc.registers import RegisterFile
from repro.dlc.sram import SRAM
from repro.dlc.statemachine import TestSequencer, SequencerState
from repro.flash.memory import FlashMemory
from repro.flash.config_loader import ConfigLoader, store_bitstream


def default_test_design(name: str = "tsp_pattern_core") -> Bitstream:
    """A representative DLC test design bitstream.

    Sized after the paper's applications: pattern generators, the
    sequencer, USB glue and register file — a modest fraction of the
    XC2V1000.
    """
    usage = FPGAResources(logic_gates=180_000, io_pins=48,
                          block_ram_kbits=128)
    payload = (name.encode("utf-8") * 64)[:1024]
    return Bitstream(name, usage, payload)


class _WeakHook:
    """A register callback that holds its core's method weakly.

    The register file then keeps no reference cycle back to the
    core, so a dropped core is freed by reference counting rather
    than the cycle collector. It pickles as the method itself, so a
    pickled core comes back with its hook.
    """

    def __init__(self, method):
        self._method = weakref.WeakMethod(method)

    def __call__(self, value: int) -> None:
        method = self._method()
        if method is not None:
            method(value)

    def __reduce__(self):
        return (_WeakHook, (self._method(),))


class DigitalLogicCore:
    """Board-level DLC: FPGA + FLASH + clocks + control registers.

    Parameters
    ----------
    io_rate_mbps:
        Derated per-pin I/O ceiling (the paper uses 300-400 Mbps).
    rf_clock:
        External RF reference, if connected at construction.
    with_sram:
        Attach the optional SRAM pattern store.
    """

    def __init__(self, io_rate_mbps: float = DEFAULT_DERATED_MBPS,
                 rf_clock: Optional[ClockSignal] = None,
                 with_sram: bool = False):
        self.fpga = FPGA()
        self.flash = FlashMemory()
        self.clocks = ClockManager()
        self.io_rate_mbps = float(io_rate_mbps)
        self.sram: Optional[SRAM] = SRAM() if with_sram else None
        self.sequencer = TestSequencer()
        self.registers = self._build_register_map()
        self._lfsrs: Dict[str, LFSR] = {}
        self._rf_clock: Optional[ClockSignal] = None
        if rf_clock is not None:
            self.connect_rf_clock(rf_clock)

    # -- construction helpers -------------------------------------------

    def _build_register_map(self) -> RegisterFile:
        regs = RegisterFile()
        regs.define("ID", 0x00, width=16, reset_value=0xD1C5,
                    read_only=True)
        regs.define("VERSION", 0x02, width=16, reset_value=0x0100,
                    read_only=True)
        regs.define("CONTROL", 0x04, width=16,
                    on_write=_WeakHook(self._on_control_write))
        regs.define("STATUS", 0x06, width=16, read_only=True)
        regs.define("PATTERN_LEN", 0x08, width=32)
        regs.define("LFSR_SEED", 0x0C, width=32, reset_value=1)
        regs.define("LFSR_ORDER", 0x10, width=8, reset_value=7)
        regs.define("CHANNEL_MASK", 0x12, width=16, reset_value=0xFFFF)
        regs.define("DELAY_CODE", 0x14, width=16)
        regs.define("VOH_CODE", 0x16, width=8)
        regs.define("VOL_CODE", 0x18, width=8)
        return regs

    # CONTROL register bits.
    CTRL_ARM = 1 << 0
    CTRL_TRIGGER = 1 << 1
    CTRL_ABORT = 1 << 2
    CTRL_CLEAR = 1 << 3

    _STATUS_CODES = {
        SequencerState.IDLE: 0x0,
        SequencerState.ARMED: 0x1,
        SequencerState.RUNNING: 0x2,
        SequencerState.DONE: 0x3,
        SequencerState.ERROR: 0xF,
    }

    def _on_control_write(self, value: int) -> None:
        if value & self.CTRL_ABORT:
            self.sequencer.abort()
        if value & self.CTRL_CLEAR:
            self.sequencer.clear()
        if value & self.CTRL_ARM:
            self.sequencer.arm(self.registers["PATTERN_LEN"].value)
        if value & self.CTRL_TRIGGER:
            self.sequencer.trigger()
        self._update_status()

    def _update_status(self) -> None:
        self.registers["STATUS"].hw_set(
            self._STATUS_CODES[self.sequencer.state]
        )

    # -- configuration ----------------------------------------------------

    def program_flash(self, bitstream: Bitstream) -> int:
        """Store *bitstream* in the configuration FLASH."""
        return store_bitstream(self.flash, bitstream)

    def power_up(self) -> Bitstream:
        """Power-up: configure the FPGA from FLASH.

        Raises :class:`ConfigurationError` if FLASH holds no image.
        """
        loader = ConfigLoader(self.flash)
        bitstream = loader.power_up(self.fpga)
        self._update_status()
        return bitstream

    def configure_direct(self, bitstream: Optional[Bitstream] = None
                         ) -> Bitstream:
        """Program FLASH and power up in one step (bench convenience)."""
        if bitstream is None:
            bitstream = default_test_design()
        self.program_flash(bitstream)
        return self.power_up()

    # -- clocking ---------------------------------------------------------

    def connect_rf_clock(self, clock: ClockSignal) -> None:
        """Attach the external low-jitter RF reference."""
        self._rf_clock = clock
        if clock.name not in self.clocks.clocks:
            self.clocks.register(clock)

    @property
    def rf_clock(self) -> ClockSignal:
        """The RF reference; raises if none is connected."""
        if self._rf_clock is None:
            raise ConfigurationError(
                "no RF clock connected; the PECL stage needs a reference"
            )
        return self._rf_clock

    # -- pattern generation -----------------------------------------------

    def lfsr(self, name: str = "main") -> LFSR:
        """Fetch (creating on first use) a named fabric LFSR.

        Order and seed come from the LFSR_ORDER / LFSR_SEED registers.
        """
        if name not in self._lfsrs:
            order = self.registers["LFSR_ORDER"].value
            seed = self.registers["LFSR_SEED"].value
            seed = max(1, seed & ((1 << order) - 1))
            self._lfsrs[name] = LFSR(order, seed=seed)
        return self._lfsrs[name]

    def reset_lfsrs(self) -> None:
        """Drop fabric LFSR state (re-created from registers)."""
        self._lfsrs = {}

    def prbs_lanes(self, n_lanes: int, bits_per_lane: int,
                   lane_rate_mbps: Optional[float] = None,
                   bank_name: str = "tx") -> np.ndarray:
        """Generate PRBS data on *n_lanes* FPGA pins.

        The serial PRBS stream is struck across the lanes round-robin
        (lane k gets serial bits k, k+n, k+2n, ...) — the word layout
        an n:1 serializer needs to reconstruct the original stream.

        Returns an array of shape ``(n_lanes, bits_per_lane)``.
        """
        if n_lanes < 1:
            raise ConfigurationError(f"need >= 1 lane, got {n_lanes}")
        if bits_per_lane < 1:
            raise ConfigurationError(
                f"need >= 1 bit per lane, got {bits_per_lane}"
            )
        rate = self.io_rate_mbps if lane_rate_mbps is None else lane_rate_mbps
        serial = self.lfsr().bits(n_lanes * bits_per_lane)
        lanes = serial.reshape(bits_per_lane, n_lanes).T.copy()
        bank = self._ensure_bank(bank_name, n_lanes)
        return bank.drive(lanes, rate)

    def drive_lanes(self, lanes, lane_rate_mbps: Optional[float] = None,
                    bank_name: str = "tx") -> np.ndarray:
        """Drive a prepared lane array out of an I/O bank.

        Used when the serializer topology dictates the lane layout
        (see ``lanes_for_stream``); enforces the pins' rate limits.
        """
        lanes = np.asarray(lanes).astype(np.uint8)
        if lanes.ndim != 2:
            raise ConfigurationError("lanes must be a 2-D array")
        rate = self.io_rate_mbps if lane_rate_mbps is None \
            else lane_rate_mbps
        bank = self._ensure_bank(bank_name, lanes.shape[0])
        return bank.drive(lanes, rate)

    def pattern_lanes(self, memory: PatternMemory, n_vectors: int,
                      lane_rate_mbps: Optional[float] = None,
                      bank_name: str = "tx") -> np.ndarray:
        """Drive stored-pattern vectors onto a bank (one lane per bit)."""
        lanes = memory.lanes(n_vectors)
        rate = self.io_rate_mbps if lane_rate_mbps is None else lane_rate_mbps
        bank = self._ensure_bank(bank_name, memory.width)
        return bank.drive(lanes, rate)

    def _ensure_bank(self, name: str, n_pins: int) -> IOBank:
        # Banks are allocated at the silicon rating; io_rate_mbps is
        # the *default drive rate* (the paper's derating policy), so
        # deliberate overclock experiments (e.g. the 4 Gbps eye of
        # Figure 8, 500 Mbps per lane) remain possible while the
        # 800 Mbps hard ceiling still trips.
        from repro.dlc.io import SILICON_MAX_MBPS

        try:
            bank = self.fpga.bank(name)
        except ConfigurationError:
            bank = self.fpga.allocate_bank(name, n_pins,
                                           max_rate_mbps=SILICON_MAX_MBPS)
        if bank.n_pins != n_pins:
            raise ConfigurationError(
                f"bank {name!r} has {bank.n_pins} pins; need {n_pins}"
            )
        return bank

    # -- host-visible control ------------------------------------------

    def host_read(self, address: int) -> int:
        """Register read as seen over USB."""
        telemetry.active().counter("dlc.register_reads").inc()
        self._update_status()
        return self.registers.read(address)

    def host_write(self, address: int, value: int) -> None:
        """Register write as seen over USB."""
        telemetry.active().counter("dlc.register_writes").inc()
        self.registers.write(address, value)

    def run_test(self, pattern_length: int) -> SequencerState:
        """Arm, trigger, and clock a test to completion."""
        tel = telemetry.active()
        with tel.span("dlc.run_test"):
            self.host_write(0x08, pattern_length)
            self.host_write(0x04, self.CTRL_ARM)
            self.host_write(0x04, self.CTRL_TRIGGER)
            self.sequencer.clock(pattern_length)
            self._update_status()
            # cycles_run is clamped to the pattern, so this is the
            # number of cycles actually consumed (not the request).
            tel.counter("dlc.tests_run").inc()
            tel.counter("dlc.cycles").inc(self.sequencer.cycles_run)
            return self.sequencer.state
