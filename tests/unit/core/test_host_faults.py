"""Unit tests for the CPU-side fault path (host access between kernels)."""

import numpy as np
import pytest

from repro.core.driver import UvmDriver
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.base import HostAccess, KernelPhase
from tests.pagelists import arrays, mapped


def page_streams(pages, base_id=0):
    pages = np.asarray(list(pages), dtype=np.int64)
    return StreamSet(pages, ids=base_id + np.arange(pages.size))


def build_driver(phases, gpu_mib=16):
    space = AddressSpace()
    space.malloc_managed(4 * MiB)
    return UvmDriver(
        space=space,
        phases=phases,
        gpu_config=GpuDeviceConfig(memory_bytes=gpu_mib * MiB),
        rng=SimRng(3),
    )


class TestHostAccess:
    def test_host_touch_migrates_resident_pages_back(self):
        phases = [
            KernelPhase(streams=page_streams(range(32))),
            KernelPhase(
                streams=page_streams(range(32), base_id=100),
                host_before=HostAccess(pages=np.arange(8, dtype=np.int64)),
            ),
        ]
        driver = build_driver(phases)
        result = driver.run()
        assert result.counters["host.pages_d2h"] >= 8
        assert result.counters["host.faults"] >= 1
        # the second kernel re-faulted the migrated pages
        assert result.counters["gpu.accesses"] == 64
        assert arrays(driver.residency).resident[:8].all()  # re-migrated by kernel 2

    def test_host_touch_of_host_resident_data_is_free(self):
        phases = [
            KernelPhase(
                streams=page_streams(range(4)),
                host_before=HostAccess(pages=np.arange(100, 104, dtype=np.int64)),
            ),
        ]
        result = build_driver(phases).run()
        assert result.counters["host.faults"] == 0
        assert result.counters["host.pages_d2h"] == 0

    def test_page_tables_stay_consistent(self):
        phases = [
            KernelPhase(streams=page_streams(range(64))),
            KernelPhase(
                streams=page_streams([0], base_id=200),
                host_before=HostAccess(pages=np.arange(0, 64, 4, dtype=np.int64)),
            ),
        ]
        driver = build_driver(phases)
        driver.run()
        driver.residency.check_invariants()
        driver.gpu_table.check_mapped(driver.residency.expected_gpu_mapped())
        driver.host_table.check_mapped(driver.residency.expected_host_mapped())
        assert not (mapped(driver.gpu_table) & mapped(driver.host_table)).any()

    def test_host_fault_cost_charged(self):
        phases = [
            KernelPhase(streams=page_streams(range(32))),
            KernelPhase(
                streams=page_streams([0], base_id=300),
                host_before=HostAccess(pages=np.arange(16, dtype=np.int64)),
            ),
        ]
        result = build_driver(phases).run()
        assert result.timer.total_ns("host_fault") > 0
        assert result.dma.d2h_bytes >= 16 * 4096

    def test_backing_survives_host_migration(self):
        """CPU faults move pages, not allocations: the VABlock stays
        backed and on the eviction list."""
        phases = [
            KernelPhase(streams=page_streams(range(16))),
            KernelPhase(
                streams=page_streams([20], base_id=400),
                host_before=HostAccess(pages=np.arange(16, dtype=np.int64)),
            ),
        ]
        driver = build_driver(phases)
        driver.run()
        assert driver.residency.blocks[0].backed
        assert 0 in driver.lru


class TestPhaseValidation:
    def test_streams_and_phases_mutually_exclusive(self):
        space = AddressSpace()
        space.malloc_managed(2 * MiB)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            UvmDriver(
                space=space,
                streams=page_streams([0]),
                phases=[KernelPhase(streams=page_streams([1]))],
            )

    def test_multi_kernel_without_host_access(self):
        phases = [
            KernelPhase(streams=page_streams(range(8))),
            KernelPhase(streams=page_streams(range(8, 16), base_id=50)),
        ]
        result = build_driver(phases).run()
        assert result.counters["gpu.accesses"] == 16
        assert result.n_streams == 16
