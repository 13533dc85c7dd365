"""Unit tests for access-counter-triggered promotion of remote pages."""

import numpy as np
import pytest

from repro.core.driver import DriverConfig, UvmDriver
from repro.errors import ConfigurationError
from repro.ext.counter_migration import CounterMigrationController
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.mem.residency import BlockLeaves
from repro.sim.rng import SimRng
from repro.units import MiB
from tests.pagelists import arrays


def blocks(*remote_mapped: int) -> list[BlockLeaves]:
    """VABlocks 0.. whose remote-mapped leaves are ``remote_mapped``."""
    out = [BlockLeaves(vb) for vb in range(len(remote_mapped))]
    for block, leaves in zip(out, remote_mapped):
        block.remote_mapped = leaves
    return out


class TestController:
    def test_no_candidates_without_remote_pages(self):
        ctrl = CounterMigrationController(promote_threshold=10)
        counters = np.array([100, 100])
        assert ctrl.candidates(counters, blocks(0, 0)) == []

    def test_hot_remote_block_flagged_after_threshold(self):
        ctrl = CounterMigrationController(promote_threshold=10, cooldown=0)
        counters = np.array([0, 0])
        remote = blocks(0, (1 << 88) - 1)  # block 1 has remote pages
        assert ctrl.candidates(counters, remote) == []  # baseline set
        counters[1] = 50
        assert ctrl.candidates(counters, remote) == [1]

    def test_baseline_resets_after_flagging(self):
        ctrl = CounterMigrationController(promote_threshold=10, cooldown=0)
        counters = np.array([0])
        remote = blocks((1 << 512) - 1)
        ctrl.candidates(counters, remote)
        counters[0] = 50
        assert ctrl.candidates(counters, remote) == [0]
        counters[0] = 55  # only +5 since last flag: below threshold
        assert ctrl.candidates(counters, remote) == []

    def test_cooldown_suppresses_reflagging(self):
        ctrl = CounterMigrationController(promote_threshold=1, cooldown=2)
        counters = np.array([0])
        remote = blocks((1 << 512) - 1)
        ctrl.candidates(counters, remote)
        counters[0] = 100
        assert ctrl.candidates(counters, remote) == [0]
        counters[0] = 200
        assert ctrl.candidates(counters, remote) == []  # cooling down

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CounterMigrationController(promote_threshold=0)
        with pytest.raises(ConfigurationError):
            CounterMigrationController(cooldown=-1)


class TestEndToEnd:
    def _run(self, counter_migration: bool):
        space = AddressSpace()
        buf = space.malloc_managed(4 * MiB, name="data")
        space.mem_advise("data", MemAdvise.PINNED_HOST)
        pages = buf.pages()
        # eight streams, each re-reading the whole range eight times
        streams = StreamSet(np.tile(pages, 64), np.full(8, 8 * len(pages)))
        driver = UvmDriver(
            space=space,
            streams=streams,
            driver_config=DriverConfig(counter_migration=counter_migration),
            gpu_config=GpuDeviceConfig(
                memory_bytes=32 * MiB, track_access_counters=True
            ),
            rng=SimRng(2),
        )
        return driver, driver.run()

    def test_hot_remote_data_gets_promoted(self):
        driver, result = self._run(counter_migration=True)
        assert result.counters["counter_migration.blocks"] > 0
        assert result.counters["counter_migration.pages"] > 0
        assert arrays(driver.residency).resident_count.sum() > 0
        driver.residency.check_invariants()
        driver.gpu_table.check_mapped(
            driver.residency.expected_gpu_mapped()
        )

    def test_promotion_cuts_remote_traffic_and_time(self):
        _, promoted = self._run(counter_migration=True)
        _, pinned_only = self._run(counter_migration=False)
        assert (
            promoted.counters["remote.accesses"]
            < pinned_only.counters["remote.accesses"]
        )
        assert promoted.total_time_ns < pinned_only.total_time_ns

    def test_requires_access_counters(self):
        space = AddressSpace()
        space.malloc_managed(2 * MiB)
        with pytest.raises(ConfigurationError):
            UvmDriver(
                space=space,
                driver_config=DriverConfig(counter_migration=True),
                gpu_config=GpuDeviceConfig(memory_bytes=16 * MiB),
            )
