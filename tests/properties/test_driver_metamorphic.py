"""Metamorphic properties of whole driver runs (hypothesis-driven).

These treat the simulator as a black box and assert relations that must
hold across configuration changes:

* work conservation: every unique touched page is serviced exactly once
  in undersubscribed no-prefetch runs, for ANY batch size, replay
  policy, occupancy, or seed;
* final-state equivalence: those knobs change *when* things happen,
  never *what* is resident at the end;
* prefetching only reduces driver-observed faults, never increases
  accesses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import DriverConfig, UvmDriver
from repro.core.replay import ReplayPolicyKind
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import MiB
from tests.pagelists import arrays

N_PAGES = 1024  # 4 MiB of data on a 16 MiB device


def run_once(
    seed: int,
    batch_size: int,
    policy: ReplayPolicyKind,
    max_active: int,
    prefetch: bool,
    page_order: np.ndarray,
):
    space = AddressSpace()
    buf = space.malloc_managed(N_PAGES * 4096)
    streams = StreamSet(buf.start_page + np.asarray(page_order, dtype=np.int64))
    driver = UvmDriver(
        space=space,
        streams=streams,
        driver_config=DriverConfig(
            batch_size=batch_size, replay_policy=policy, prefetch_enabled=prefetch
        ),
        gpu_config=GpuDeviceConfig(memory_bytes=16 * MiB, max_active_streams=max_active),
        rng=SimRng(seed),
    )
    return driver, driver.run()


config_strategy = st.tuples(
    st.integers(0, 2**16),  # seed
    st.sampled_from([16, 64, 256, 1024]),  # batch size
    st.sampled_from(list(ReplayPolicyKind)),  # replay policy
    st.sampled_from([64, 512, 4096]),  # occupancy
)


@given(config_strategy)
@settings(max_examples=15, deadline=None)
def test_work_conservation_without_prefetch(cfg):
    seed, batch, policy, occupancy = cfg
    order = SimRng(seed).permutation(N_PAGES)
    driver, result = run_once(seed, batch, policy, occupancy, False, order)
    assert result.faults_serviced == N_PAGES
    assert result.counters["gpu.accesses"] == N_PAGES
    assert arrays(driver.residency).resident[:N_PAGES].all()
    driver.residency.check_invariants()


@given(config_strategy)
@settings(max_examples=10, deadline=None)
def test_final_state_independent_of_driver_knobs(cfg):
    seed, batch, policy, occupancy = cfg
    order = SimRng(seed).permutation(N_PAGES)
    driver_a, _ = run_once(seed, batch, policy, occupancy, True, order)
    driver_b, _ = run_once(seed, 256, ReplayPolicyKind.BATCH_FLUSH, 2048, True, order)
    assert np.array_equal(arrays(driver_a.residency).resident, arrays(driver_b.residency).resident)
    assert driver_a.gpu_table.mapped == driver_b.gpu_table.mapped


@given(st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_prefetch_never_increases_fault_reads(seed):
    order = SimRng(seed).permutation(N_PAGES)
    _, with_pf = run_once(seed, 256, ReplayPolicyKind.BATCH_FLUSH, 2048, True, order)
    _, without = run_once(seed, 256, ReplayPolicyKind.BATCH_FLUSH, 2048, False, order)
    assert with_pf.faults_read <= without.faults_read
    assert with_pf.counters["gpu.accesses"] == without.counters["gpu.accesses"]


@given(st.integers(0, 2**16), st.integers(1, 99))
@settings(max_examples=10, deadline=None)
def test_breakdown_always_covers_clock(seed, threshold):
    order = SimRng(seed).permutation(N_PAGES)
    space = AddressSpace()
    buf = space.malloc_managed(N_PAGES * 4096)
    streams = StreamSet(buf.start_page + np.asarray(order, dtype=np.int64))
    driver = UvmDriver(
        space=space,
        streams=streams,
        driver_config=DriverConfig(density_threshold=threshold),
        gpu_config=GpuDeviceConfig(memory_bytes=16 * MiB),
        rng=SimRng(seed),
    )
    result = driver.run()
    assert result.breakdown().total_ns == result.total_time_ns
