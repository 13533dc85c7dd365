"""Integration: the three UVM access behaviours end to end."""

import numpy as np
import pytest

from repro.core.driver import DriverConfig, UvmDriver
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.base import HostAccess, KernelPhase
from tests.pagelists import arrays, mapped


def run_touch(advise=None, writes_frac=0.0, data_mib=8, gpu_mib=32, phases=None):
    space = AddressSpace()
    buf = space.malloc_managed(data_mib * MiB, name="data")
    if advise is not None:
        space.mem_advise("data", advise)
    if phases is None:
        pages = buf.pages()
        writes = np.zeros(len(pages), dtype=bool)
        writes[: int(len(pages) * writes_frac)] = True
        driver = UvmDriver(
            space=space,
            streams=StreamSet(pages, writes=writes),
            gpu_config=GpuDeviceConfig(memory_bytes=gpu_mib * MiB),
            rng=SimRng(1),
        )
    else:
        driver = UvmDriver(
            space=space,
            phases=phases(buf),
            gpu_config=GpuDeviceConfig(memory_bytes=gpu_mib * MiB),
            rng=SimRng(1),
        )
    return driver, driver.run()


class TestPinnedHost:
    def test_zero_copy_moves_no_data(self):
        driver, result = run_touch(MemAdvise.PINNED_HOST)
        assert result.dma.h2d_bytes == 0
        assert result.counters["remote.pages_mapped"] == 2048
        assert result.counters["remote.accesses"] == 2048
        assert result.evictions == 0
        driver.residency.check_invariants()

    def test_no_gpu_memory_consumed(self):
        driver, result = run_touch(MemAdvise.PINNED_HOST)
        assert driver.pma.used_bytes == 0
        assert arrays(driver.residency).resident_count.sum() == 0

    def test_remote_access_time_charged(self):
        _, result = run_touch(MemAdvise.PINNED_HOST)
        assert result.timer.total_ns("gpu.remote_access") > 0

    def test_remote_larger_than_gpu_memory(self):
        """Zero-copy sidesteps oversubscription entirely: data larger
        than GPU memory runs without a single eviction."""
        driver, result = run_touch(MemAdvise.PINNED_HOST, data_mib=48, gpu_mib=32)
        assert result.evictions == 0
        assert result.counters["remote.pages_mapped"] == 48 * 256


class TestReadMostly:
    def test_reads_duplicate_host_stays_mapped(self):
        driver, result = run_touch(MemAdvise.READ_MOSTLY, writes_frac=0.0)
        assert arrays(driver.residency).duplicated.sum() == 2048
        assert mapped(driver.host_table)[:2048].all()  # host copies valid
        assert mapped(driver.gpu_table)[:2048].all()
        driver.residency.check_invariants()

    def test_writes_collapse_duplicates(self):
        driver, result = run_touch(MemAdvise.READ_MOSTLY, writes_frac=0.25)
        upgrades = result.counters["faults.write_upgrade"]
        assert upgrades > 0  # prefetched read-only copies hit by writers
        written = int(arrays(driver.residency).writable.sum())
        assert written == 512
        assert not mapped(driver.host_table)[:512].any()  # exclusives unmapped
        driver.residency.check_invariants()

    def test_host_reads_of_duplicates_are_free(self):
        def phases(buf):
            pages = buf.pages()
            k1 = StreamSet(pages)
            k2 = StreamSet(pages, ids=10_000 + np.arange(len(pages)))
            return [
                KernelPhase(streams=k1),
                KernelPhase(
                    streams=k2, host_before=HostAccess(pages=pages, writes=False)
                ),
            ]

        driver, result = run_touch(MemAdvise.READ_MOSTLY, phases=phases)
        # host read of duplicated data: no CPU faults, no migration back
        assert result.counters["host.faults"] == 0
        assert result.counters["host.pages_d2h"] == 0
        # and the second kernel re-reads without any new GPU faults
        assert arrays(driver.residency).duplicated.sum() == 2048

    def test_host_writes_invalidate_gpu_copies(self):
        def phases(buf):
            pages = buf.pages()
            k1 = StreamSet(pages)
            k2 = StreamSet(pages, ids=10_000 + np.arange(len(pages)))
            return [
                KernelPhase(streams=k1),
                KernelPhase(
                    streams=k2,
                    host_before=HostAccess(pages=pages[:512], writes=True),
                ),
            ]

        driver, result = run_touch(MemAdvise.READ_MOSTLY, phases=phases)
        assert result.counters["dup.host_invalidations"] == 512
        assert result.dma.d2h_bytes == 0  # clean copies: no data moved
        # the invalidated pages were migrated to the GPU a second time
        migrated = (
            result.counters["pages.demand_h2d"] + result.counters["pages.prefetch_h2d"]
        )
        assert migrated >= 2048 + 512
        driver.residency.check_invariants()


class TestMixedAdvise:
    def test_ranges_with_different_advises_coexist(self):
        space = AddressSpace()
        a = space.malloc_managed(4 * MiB, name="migrate")
        b = space.malloc_managed(4 * MiB, name="pinned")
        space.mem_advise("pinned", MemAdvise.PINNED_HOST)
        driver = UvmDriver(
            space=space,
            streams=StreamSet(np.concatenate([a.pages(), b.pages()])),
            gpu_config=GpuDeviceConfig(memory_bytes=32 * MiB),
            rng=SimRng(1),
        )
        result = driver.run()
        assert result.counters["remote.pages_mapped"] == 1024
        assert arrays(driver.residency).resident[a.pages()].all()
        assert driver.residency.remote_mapped[b.pages()].all()
        driver.residency.check_invariants()
