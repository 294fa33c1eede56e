"""Tests for the DigitalLogicCore facade."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError, RateLimitError
from repro.dlc.clocking import ClockSignal
from repro.dlc.core import DigitalLogicCore, default_test_design
from repro.dlc.pattern import PatternMemory
from repro.dlc.statemachine import SequencerState
from repro.signal.prbs import prbs_bits


@pytest.fixture
def dlc():
    core = DigitalLogicCore(rf_clock=ClockSignal(2.5, 1.0, "rf"))
    core.configure_direct()
    return core


class TestConfiguration:
    def test_power_up_without_flash_image(self):
        core = DigitalLogicCore()
        with pytest.raises(ConfigurationError):
            core.power_up()

    def test_flash_then_power_up(self):
        core = DigitalLogicCore()
        core.program_flash(default_test_design())
        bs = core.power_up()
        assert core.fpga.configured
        assert bs.design_name == "tsp_pattern_core"

    def test_reprogramming_changes_design(self, dlc):
        new = default_test_design("vortex_driver")
        dlc.program_flash(new)
        dlc.fpga.unconfigure()
        dlc.power_up()
        assert dlc.fpga.design_name == "vortex_driver"


class TestRegisters:
    def test_id_register(self, dlc):
        assert dlc.host_read(0x00) == 0xD1C5

    def test_id_read_only(self, dlc):
        with pytest.raises(ProtocolError):
            dlc.host_write(0x00, 1)

    def test_status_tracks_sequencer(self, dlc):
        assert dlc.host_read(0x06) == 0x0
        dlc.host_write(0x08, 100)
        dlc.host_write(0x04, DigitalLogicCore.CTRL_ARM)
        assert dlc.host_read(0x06) == 0x1

    def test_control_runs_test(self, dlc):
        state = dlc.run_test(500)
        assert state is SequencerState.DONE
        assert dlc.host_read(0x06) == 0x3

    def test_pickled_core_keeps_its_control_hook(self, dlc):
        clone = pickle.loads(pickle.dumps(dlc))
        clone.host_write(0x08, 100)
        clone.host_write(0x04, DigitalLogicCore.CTRL_ARM)
        assert clone.host_read(0x06) == 0x1
        assert dlc.host_read(0x06) == 0x0

    def test_abort_via_control(self, dlc):
        dlc.host_write(0x08, 100)
        dlc.host_write(0x04, DigitalLogicCore.CTRL_ARM)
        dlc.host_write(0x04, DigitalLogicCore.CTRL_TRIGGER)
        dlc.host_write(0x04, DigitalLogicCore.CTRL_ABORT)
        assert dlc.sequencer.state is SequencerState.IDLE


class TestPatternGeneration:
    def test_prbs_lanes_shape(self, dlc):
        lanes = dlc.prbs_lanes(8, 64, lane_rate_mbps=312.5)
        assert lanes.shape == (8, 64)

    def test_lane_layout_reserializes(self, dlc):
        """Lane k carries serial bits k, k+8, ... — round robin."""
        dlc.host_write(0x0C, 1)
        dlc.reset_lfsrs()
        lanes = dlc.prbs_lanes(8, 32, lane_rate_mbps=312.5)
        serial = lanes.T.reshape(-1)
        np.testing.assert_array_equal(serial, prbs_bits(7, 256, seed=1))

    def test_seed_from_register(self, dlc):
        dlc.host_write(0x0C, 17)
        dlc.reset_lfsrs()
        a = dlc.prbs_lanes(4, 16, lane_rate_mbps=300.0)
        dlc.host_write(0x0C, 17)
        dlc.reset_lfsrs()
        b = dlc.prbs_lanes(4, 16, lane_rate_mbps=300.0)
        np.testing.assert_array_equal(a, b)

    def test_silicon_ceiling_trips(self, dlc):
        with pytest.raises(RateLimitError):
            dlc.prbs_lanes(8, 16, lane_rate_mbps=900.0)

    def test_pattern_lanes(self, dlc):
        mem = PatternMemory(width=4, depth=16)
        mem.load([0b0001, 0b0010, 0b0100])
        lanes = dlc.pattern_lanes(mem, 3, bank_name="pat")
        assert lanes.shape == (4, 3)
        np.testing.assert_array_equal(lanes[0], [1, 0, 0])

    def test_bank_size_conflict(self, dlc):
        dlc.prbs_lanes(8, 4, lane_rate_mbps=300.0, bank_name="x")
        with pytest.raises(ConfigurationError):
            dlc.prbs_lanes(4, 4, lane_rate_mbps=300.0, bank_name="x")


class TestRFClock:
    def test_missing_rf_clock(self):
        core = DigitalLogicCore()
        with pytest.raises(ConfigurationError):
            core.rf_clock

    def test_connect_rf_clock(self):
        core = DigitalLogicCore()
        core.connect_rf_clock(ClockSignal(1.25, 0.5, "rf"))
        assert core.rf_clock.frequency_ghz == 1.25
