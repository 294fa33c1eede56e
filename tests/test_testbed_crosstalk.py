"""Tests for the test bed's optional crosstalk realism knob."""

import numpy as np
import pytest

from repro.channel.crosstalk import CouplingSpec, CrosstalkMatrix
from repro.core.packetformat import PacketSlot
from repro.core.testbed import OpticalTestBed
from repro.errors import ConfigurationError


def _bed_with_coupling(coupling=0.05):
    names = ["data0", "data1", "data2", "data3", "clock"]
    matrix = CrosstalkMatrix(
        names, adjacent=CouplingSpec(coupling=coupling)
    )
    return OpticalTestBed(crosstalk=matrix)


class TestTestbedCrosstalk:
    def test_disabled_by_default(self):
        assert OpticalTestBed().crosstalk is None

    def test_coupled_slot_differs(self):
        clean_bed = OpticalTestBed()
        coupled_bed = _bed_with_coupling(0.08)
        slot = PacketSlot.random(clean_bed.fmt, 5,
                                 rng=np.random.default_rng(1))
        clean = clean_bed.transmit_slot(slot, seed=2)["data1"]
        dirty = coupled_bed.transmit_slot(slot, seed=2)["data1"]
        assert not np.array_equal(clean.values, dirty.values)

    def test_slot_still_decodes_with_moderate_coupling(self):
        """A few percent of coupling must not break the protocol:
        the slot round-trips through the coupled board."""
        bed = _bed_with_coupling(0.03)
        slot = PacketSlot.random(bed.fmt, 9,
                                 rng=np.random.default_rng(3))
        assert bed.slot_roundtrip(slot, seed=4)

    def test_frame_header_not_coupled(self):
        """Only the high-speed channels are in the matrix; the slow
        frame/header lines are untouched."""
        clean_bed = OpticalTestBed()
        coupled_bed = _bed_with_coupling(0.08)
        slot = PacketSlot.random(clean_bed.fmt, 5,
                                 rng=np.random.default_rng(5))
        clean = clean_bed.transmit_slot(slot, seed=6)["frame"]
        dirty = coupled_bed.transmit_slot(slot, seed=6)["frame"]
        np.testing.assert_array_equal(clean.values, dirty.values)

    def test_partial_matrix_couples_only_named_channels(self):
        """A matrix over the data lines leaves the clock bitwise
        uncoupled and still couples the data lines."""
        matrix = CrosstalkMatrix(["data0", "data1", "data2", "data3"],
                                 adjacent=CouplingSpec(coupling=0.08))
        clean_bed = OpticalTestBed()
        coupled_bed = OpticalTestBed(crosstalk=matrix)
        slot = PacketSlot.random(clean_bed.fmt, 5,
                                 rng=np.random.default_rng(7))
        clean = clean_bed.transmit_slot(slot, seed=8)
        dirty = coupled_bed.transmit_slot(slot, seed=8)
        np.testing.assert_array_equal(dirty["clock"].values,
                                      clean["clock"].values)
        assert not np.array_equal(dirty["data1"].values,
                                  clean["data1"].values)

    @pytest.mark.parametrize("name", ["frame", "data9"])
    def test_matrix_names_must_be_high_speed_channels(self, name):
        matrix = CrosstalkMatrix(["data0", "data1", name])
        with pytest.raises(ConfigurationError):
            OpticalTestBed(crosstalk=matrix)

    def test_delayed_channel_with_crosstalk_rejected(self):
        """A delay code moves one channel off the shared time grid;
        the coupling block needs every coupled channel on it."""
        bed = _bed_with_coupling(0.03)
        bed.channels["data2"].set_delay_code(37)
        slot = PacketSlot.random(bed.fmt, 5,
                                 rng=np.random.default_rng(9))
        with pytest.raises(ConfigurationError):
            bed.transmit_slot(slot, seed=1)
