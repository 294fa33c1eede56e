"""Cross-subsystem integration tests.

These exercise the paths a user of the real systems would: host
control over USB, reconfiguration over JTAG, the full optical chain
into the Data Vortex, and the mini-tester probing a wafer.
"""

import numpy as np
import pytest

from repro.core.minitester import MiniTester
from repro.core.packetformat import PacketSlot
from repro.core.testbed import OpticalTestBed
from repro.host.controller import PCController
from repro.vortex.fabric import DataVortexFabric, FabricConfig


class TestHostToHardware:
    def test_usb_register_to_sequencer_to_status(self):
        """Full control loop: USB write starts a test; USB read sees
        completion."""
        pc = PCController()
        pc.dlc.configure_direct()
        pc.connect()
        pc.setup_test(pattern_length=256, lfsr_order=7, lfsr_seed=5)
        pc.start_test()
        pc.dlc.sequencer.clock(256)
        from repro.dlc.statemachine import SequencerState

        assert pc.poll_status() is SequencerState.DONE

    def test_jtag_reconfiguration_survives_usb_session(self):
        from repro.dlc.core import default_test_design

        pc = PCController()
        pc.dlc.configure_direct()
        pc.connect()
        pc.update_firmware(default_test_design("optical_app"))
        assert pc.identify()["id"] == 0xD1C5
        assert pc.dlc.fpga.design_name == "optical_app"


class TestOpticalChain:
    def test_testbed_packets_route_through_vortex(self):
        """The Section 3 application end to end: packet slots out of
        the test bed become optical packets that the Data Vortex
        routes to the addressed port."""
        bed = OpticalTestBed()
        fabric = DataVortexFabric(FabricConfig(n_angles=3,
                                               n_heights=16))
        rng = np.random.default_rng(5)
        addresses = [int(rng.integers(0, 16)) for _ in range(20)]
        for k, addr in enumerate(addresses):
            slot = PacketSlot.random(bed.fmt, addr,
                                     rng=np.random.default_rng(k))
            fabric.submit_slot(slot)
        fabric.drain()
        for addr in set(addresses):
            assert len(fabric.delivered(addr)) == \
                addresses.count(addr)

    def test_electrical_to_optical_to_electrical(self):
        """One channel's slot waveform survives the E/O-fiber-O/E
        path with its bits intact."""
        from repro.optics.link import OpticalLink
        from repro.signal.sampling import decide_bits

        bed = OpticalTestBed()
        slot = PacketSlot.random(bed.fmt, 3,
                                 rng=np.random.default_rng(2))
        waveforms = bed.transmit_slot(slot, seed=9)
        link = OpticalLink(n_channels=5)
        rx = link.transmit({0: waveforms["data0"]},
                           rng=np.random.default_rng(3))
        out = rx[0]
        threshold = 0.5 * (out.min() + out.max())
        got = decide_bits(out, 2.5, threshold,
                          n_bits=bed.fmt.slot_bits,
                          t_first_bit=link.fiber.delay_ps)
        np.testing.assert_array_equal(got, slot.data_bits(0))


class TestWaferFlow:
    def test_minitester_probes_wafer_sites(self):
        """Mini-tester + wafer map: loop through several dies, run
        the 5 Gbps loopback, record pass/fail."""
        from repro.wafer.dut import WLPDevice
        from repro.wafer.map import DieState, WaferMap

        mini = MiniTester()
        wafer = WaferMap(diameter_mm=40.0, die_width_mm=8.0,
                         die_height_mm=8.0)
        dies = list(wafer)[:4]
        for k, die in enumerate(dies):
            dut = WLPDevice()
            wf = mini.loopback_waveform(400, seed=k + 1)
            looped = dut.loopback(wf, 5.0)
            bits = mini.receiver.receive_bits(
                looped, 5.0, 400,
                t_first_bit=mini._probe_path().delay_ps,
                rng=np.random.default_rng(k),
            )
            expected = mini._expected_serial(400, seed=k + 1,
                                             rate_gbps=5.0)
            result = mini.receiver.compare(bits, expected)
            die.state = DieState.PASSED if result.n_errors == 0 \
                else DieState.FAILED
        assert wafer.yield_fraction() == 1.0

    def test_multi_site_sort_with_defect_pattern(self):
        from repro.wafer.dut import WLPDevice
        from repro.wafer.map import WaferMap
        from repro.wafer.probe import ProbeCard
        from repro.wafer.scheduler import MultiSiteScheduler

        wafer = WaferMap(diameter_mm=60.0, die_width_mm=6.0,
                         die_height_mm=6.0)

        def factory(pos):
            # Edge dies fail (a classic radial yield pattern).
            if abs(pos[0]) + abs(pos[1]) >= 4:
                return WLPDevice(bist_fault=(0, 0x1))
            return WLPDevice()

        sched = MultiSiteScheduler(
            ProbeCard(n_sites=4, contact_yield=1.0),
            test_time_s=1.0, dut_factory=factory,
        )
        run = sched.sort_wafer(wafer, seed=2)
        assert run.dies_tested == len(wafer)
        assert 0.0 < wafer.yield_fraction() < 1.0


class TestProgramOnSystems:
    def test_eye_qual_program_on_both_systems(self):
        from repro.host.testprogram import standard_eye_program

        bed = OpticalTestBed()
        mini = MiniTester()
        prog = standard_eye_program(2.5, min_opening_ui=0.7,
                                    n_bits=1500)
        assert prog.run(bed).passed
        assert prog.run(mini).passed
