"""Integration: hostile configurations the driver must survive.

Tiny fault buffers (drops + refaults), one-block GPUs (eviction on
every allocation), huge batch sizes, degenerate stream shapes, and the
host-fault ping-pong - all must complete with consistent state.
"""

import numpy as np
import pytest

from repro.core.driver import DriverConfig, UvmDriver
from repro.core.replay import ReplayPolicyKind
from repro.experiments.runner import ExperimentSetup, simulate
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.synthetic import RandomAccess, RegularAccess
from repro.workloads.tealeaf import TealeafWorkload


class TestHostileHardware:
    def test_tiny_fault_buffer_forces_drops_but_completes(self):
        setup = ExperimentSetup().with_gpu(
            memory_bytes=32 * MiB, fault_buffer_capacity=16
        )
        result = simulate(RegularAccess(8 * MiB), setup.with_driver(prefetch_enabled=False))
        assert result.counters["faults.dropped"] > 0
        assert result.faults_serviced == 2048  # nothing lost

    def test_single_vablock_gpu_thrash(self):
        """A 2 MiB device: every new block allocation evicts."""
        space = AddressSpace()
        buf = space.malloc_managed(8 * MiB)
        driver = UvmDriver(
            space=space,
            streams=StreamSet(buf.pages()),
            gpu_config=GpuDeviceConfig(memory_bytes=2 * MiB),
            driver_config=DriverConfig(prefetch_enabled=False),
            rng=SimRng(0),
        )
        result = driver.run()
        assert result.evictions >= 3
        driver.residency.check_invariants()

    def test_once_policy_under_oversubscription(self):
        setup = ExperimentSetup().with_gpu(memory_bytes=32 * MiB)
        cfg = setup.with_driver(
            replay_policy=ReplayPolicyKind.ONCE, prefetch_enabled=False
        )
        data = int(32 * MiB * 1.2)
        result = simulate(RegularAccess(data), cfg)
        assert result.evictions > 0
        assert result.counters["gpu.accesses"] == -(-data // 4096)

    def test_batch_larger_than_buffer(self):
        setup = ExperimentSetup().with_gpu(
            memory_bytes=32 * MiB, fault_buffer_capacity=128
        )
        result = simulate(
            RegularAccess(4 * MiB), setup.with_driver(batch_size=4096)
        )
        assert result.faults_serviced > 0

    def test_minimal_phase_width(self):
        setup = ExperimentSetup().with_gpu(memory_bytes=32 * MiB, phase_width=1)
        result = simulate(RegularAccess(1 * MiB), setup)
        assert result.counters["gpu.accesses"] == 256


class TestDegenerateStreams:
    def test_single_page_workload(self, tiny_setup):
        result = simulate(RegularAccess(4096), tiny_setup)
        assert result.faults_serviced == 1

    def test_stream_revisiting_one_page(self, tiny_setup):
        space = AddressSpace()
        space.malloc_managed(2 * MiB)
        pages = np.zeros(1000, dtype=np.int64)  # same page 1000 times
        driver = UvmDriver(
            space=space,
            streams=StreamSet(pages, [pages.size]),
            gpu_config=tiny_setup.gpu,
            rng=SimRng(0),
        )
        result = driver.run()
        assert result.faults_serviced == 1
        assert result.counters["gpu.accesses"] == 1000


class TestHostPingPongStress:
    def test_tealeaf_host_check_completes_consistently(self):
        setup = ExperimentSetup().with_gpu(memory_bytes=128 * MiB)
        result = simulate(TealeafWorkload(n=512, host_check=True), setup)
        assert result.counters["host.faults"] > 0
        assert result.counters["host.pages_d2h"] > 0

    def test_host_check_raises_fault_count(self):
        setup = ExperimentSetup().with_gpu(memory_bytes=128 * MiB)
        plain = simulate(TealeafWorkload(n=512, host_check=False), setup)
        pingpong = simulate(TealeafWorkload(n=512, host_check=True), setup)
        assert pingpong.faults_read > plain.faults_read
        assert pingpong.total_time_ns > plain.total_time_ns

    def test_oversubscribed_host_check(self):
        """Host migration + eviction interleaved must stay consistent."""
        setup = ExperimentSetup().with_gpu(memory_bytes=32 * MiB)
        result = simulate(TealeafWorkload(n=1088, host_check=True), setup)
        assert result.evictions > 0
        assert result.counters["host.faults"] > 0
