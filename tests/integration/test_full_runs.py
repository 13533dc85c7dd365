"""Integration: every paper workload runs to completion with invariants.

These are the suite's end-to-end checks: build each workload against a
real address space, run the full driver pipeline, and verify global
consistency afterwards - every access retired, residency/page-table
agreement, conservation of migrated pages, and counter coherence.
"""

import numpy as np
import pytest

from repro.core.driver import UvmDriver
from repro.experiments.runner import ExperimentSetup, simulate
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.registry import make_workload, workload_names
from tests.pagelists import arrays, mapped

DATA_MIB = 8  # small and fast; undersubscribed on the 64 MiB fixture GPU


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkloadCompletes:
    def _run_driver(self, name, setup):
        rng = SimRng(setup.seed)
        space = setup.make_space()
        build = make_workload(name, DATA_MIB * MiB).build(space, rng.fork("workload"))
        driver = UvmDriver(
            space=space,
            streams=build.streams if build.phases is None else None,
            phases=build.phases,
            driver_config=setup.driver,
            gpu_config=setup.gpu,
            cost=setup.cost,
            rng=rng,
        )
        result = driver.run()
        return driver, build, result

    def test_all_accesses_retired(self, name, small_setup):
        driver, build, result = self._run_driver(name, small_setup)
        assert driver.device.kernel_finished()
        assert result.counters["gpu.accesses"] == build.total_accesses

    def test_state_consistency_after_run(self, name, small_setup):
        driver, _, _ = self._run_driver(name, small_setup)
        driver.residency.check_invariants()
        driver.gpu_table.check_mapped(driver.residency.expected_gpu_mapped())
        # host and gpu tables partition the space exactly
        gpu, host = mapped(driver.gpu_table), mapped(driver.host_table)
        assert not (gpu & host).any()
        assert (gpu | host).all()

    def test_every_touched_page_was_migrated(self, name, small_setup):
        """Undersubscribed: H2D migrations are conserved - every
        migrated page is either still resident or was moved back by a
        host fault (and counted as such); no eviction churn."""
        driver, build, result = self._run_driver(name, small_setup)
        touched = np.unique(np.concatenate([k.pages for k in build.kernels]))
        state = arrays(driver.residency)
        assert state.resident[touched].all()
        assert result.evictions == 0
        migrated = (
            result.counters["pages.demand_h2d"] + result.counters["pages.prefetch_h2d"]
        )
        resident_total = state.resident_count.sum()
        host_back = result.counters["host.pages_d2h"]
        assert migrated == resident_total + host_back

    def test_counter_coherence(self, name, small_setup):
        _, _, result = self._run_driver(name, small_setup)
        c = result.counters
        assert c["faults.read"] == c["faults.serviced"] + c["faults.duplicate"]
        assert c["faults.read"] <= c["faults.enqueued"]
        assert result.total_time_ns == result.breakdown().total_ns


class TestDmaAccounting:
    def test_bytes_match_page_counters(self, small_setup):
        result = simulate(make_workload("regular", DATA_MIB * MiB), small_setup)
        pages_h2d = (
            result.counters["pages.demand_h2d"] + result.counters["pages.prefetch_h2d"]
        )
        assert result.dma.h2d_bytes == pages_h2d * 4096
        assert result.dma.d2h_bytes == result.counters["pages.writeback_d2h"] * 4096
