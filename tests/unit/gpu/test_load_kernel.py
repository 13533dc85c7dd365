"""Unit tests for multi-kernel device loading."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import MiB


def make_device(streams):
    config = GpuDeviceConfig(memory_bytes=16 * MiB, track_access_counters=True)
    device = GpuDevice(config, streams, rng=SimRng(5), total_vablocks=8)
    device.set_vablock_geometry(512)
    return device


class TestLoadKernel:
    def test_second_kernel_runs_after_first_completes(self):
        device = make_device(StreamSet([0]))
        resident = np.ones(100, dtype=bool)
        device.run_phase(resident, SimClock())
        assert device.kernel_finished()
        device.load_kernel(StreamSet([5, 6], [2], ids=[1]))
        assert not device.kernel_finished()
        result = device.run_phase(resident, SimClock())
        assert result.streams_completed == 1

    def test_loading_over_running_kernel_rejected(self):
        device = make_device(StreamSet([0]))
        device.run_phase(np.zeros(100, dtype=bool), SimClock())  # stalls
        with pytest.raises(ConfigurationError):
            device.load_kernel(StreamSet([1], ids=[1]))

    def test_access_counters_persist_across_kernels(self):
        device = make_device(StreamSet(np.arange(4), [4]))
        resident = np.ones(100, dtype=bool)
        device.run_phase(resident, SimClock())
        device.load_kernel(StreamSet(np.arange(4), [4], ids=[1]))
        device.run_phase(resident, SimClock())
        assert device.access_counters[0] == 8  # both kernels counted

    def test_fault_buffer_persists(self):
        device = make_device(StreamSet([0]))
        resident = np.ones(100, dtype=bool)
        device.run_phase(resident, SimClock())
        enqueued_before = device.fault_buffer.total_enqueued
        device.load_kernel(StreamSet([50], ids=[1]))
        device.run_phase(np.zeros(100, dtype=bool), SimClock())
        assert device.fault_buffer.total_enqueued == enqueued_before + 1

    def test_kernels_get_distinct_scheduler_randomness(self):
        device = make_device(StreamSet(np.arange(64)))
        order_a = list(device.scheduler._dispatch_order)
        resident = np.ones(100, dtype=bool)
        while not device.kernel_finished():
            device.run_phase(resident, SimClock())
        device.load_kernel(StreamSet(np.arange(64)))
        order_b = list(device.scheduler._dispatch_order)
        # a fresh jitter stream per kernel: not forced to repeat kernel 1
        assert sorted(order_b) == list(range(64))
        assert order_b != order_a
