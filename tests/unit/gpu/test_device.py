"""Unit tests for the GPU device (fault-producing phases)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import MiB


def make_device(streams, **cfg):
    config = GpuDeviceConfig(memory_bytes=16 * MiB, **cfg)
    return GpuDevice(config, streams, rng=SimRng(5), total_vablocks=8)


class TestConfig:
    def test_defaults_valid(self):
        GpuDeviceConfig()

    def test_invalid_memory(self):
        with pytest.raises(ConfigurationError):
            GpuDeviceConfig(memory_bytes=0)

    def test_invalid_phase_width(self):
        with pytest.raises(ConfigurationError):
            GpuDeviceConfig(phase_width=0)

    def test_sms_vs_gpcs(self):
        with pytest.raises(ConfigurationError):
            GpuDeviceConfig(n_sms=2, n_gpcs=4)


class TestPhases:
    def test_phase_generates_faults(self):
        streams = StreamSet(np.arange(10))
        device = make_device(streams)
        clock = SimClock()
        result = device.run_phase(np.zeros(100, dtype=bool), clock)
        assert result.faults_enqueued == 10
        assert len(device.fault_buffer) == 10

    def test_phase_width_bounds_advancement(self):
        streams = StreamSet(np.arange(100))
        device = make_device(streams, phase_width=10)
        result = device.run_phase(np.zeros(200, dtype=bool), SimClock())
        assert result.faults_enqueued == 10

    def test_max_streams_override(self):
        streams = StreamSet(np.arange(100))
        device = make_device(streams, phase_width=50)
        result = device.run_phase(np.zeros(200, dtype=bool), SimClock(), max_streams=3)
        assert result.faults_enqueued == 3

    def test_resident_pages_complete_streams(self):
        streams = StreamSet(np.arange(5))
        device = make_device(streams)
        resident = np.ones(10, dtype=bool)
        result = device.run_phase(resident, SimClock())
        assert result.streams_completed == 5
        assert device.kernel_finished()

    def test_same_gpc_duplicates_coalesce(self):
        # many streams touching the same page; some share GPCs
        streams = StreamSet(np.full(12, 7))
        device = make_device(streams, n_sms=12, n_gpcs=6)
        result = device.run_phase(np.zeros(10, dtype=bool), SimClock())
        assert result.faults_enqueued == 6  # one per GPC
        assert result.faults_coalesced == 6

    def test_buffer_overflow_drops(self):
        streams = StreamSet(np.arange(10))
        device = make_device(streams, fault_buffer_capacity=4, n_sms=80)
        result = device.run_phase(np.zeros(100, dtype=bool), SimClock())
        assert result.faults_enqueued == 4
        assert result.faults_dropped == 6

    def test_flops_accumulate(self):
        streams = StreamSet(np.array([0, 1]), [2], flops=[10.0])
        device = make_device(streams)
        resident = np.ones(4, dtype=bool)
        result = device.run_phase(resident, SimClock())
        assert result.flops_retired == 20.0

    def test_flops_sum_matches_scalar_engine_bitwise(self):
        """Awkward per-access FLOPs: any sum but the left-to-right one in
        visit order (pairwise, reordered) rounds differently.  The pinned
        total is the one the retired per-stream scalar engine gave, and
        the phase engine matched, on this exact input."""
        flops = np.random.default_rng(3).random(300) * 1e3
        lengths = 1 + np.arange(300) % 7
        pages = np.concatenate([np.arange(n) for n in lengths])
        streams = StreamSet(pages, lengths, flops=flops)

        result = make_device(streams).run_phase(np.ones(16, dtype=bool), SimClock())
        assert result.streams_completed == 300
        assert result.flops_retired.hex() == "0x1.2b546a47aaa66p+19"


class TestReplayDelivery:
    def test_replay_wakes_and_clears_tlb(self):
        streams = StreamSet(np.arange(4))
        device = make_device(streams)
        device.run_phase(np.zeros(10, dtype=bool), SimClock())
        assert device.has_stalled_streams()
        woken = device.deliver_replay()
        assert woken == 4
        assert not device.has_stalled_streams()
        assert not device.utlb.cells.any()


class TestAccessCounters:
    def test_counters_track_vablock_accesses(self):
        streams = StreamSet(np.arange(600), [600])
        config = GpuDeviceConfig(memory_bytes=16 * MiB, track_access_counters=True)
        device = GpuDevice(config, streams, rng=SimRng(5), total_vablocks=8)
        device.set_vablock_geometry(512)
        resident = np.ones(600, dtype=bool)
        device.run_phase(resident, SimClock())
        assert device.access_counters[0] == 512
        assert device.access_counters[1] == 88

    def test_counters_disabled_by_default(self):
        device = make_device(StreamSet([0]))
        assert device.access_counters is None
