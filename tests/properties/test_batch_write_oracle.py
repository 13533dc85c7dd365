"""Oracle: writing a batch once equals writing it after every bin.

The fault servicer changes the stored per-VABlock leaf bitsets and page
tables bin by bin, and rewrites the page masks of the blocks a batch
touched (and flushes its timer charges and counters) once, when the
batch closes.  Nothing reads the masks in between, so a batch must end
in exactly the state that servicing its bins one batch each - decide,
write, per bin - ends in.  The random cases put more bins in a batch
than the GPU has VABlocks, so a batch evicts blocks it serviced earlier
and re-services blocks it evicted.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import DriverConfig, UvmDriver
from repro.core.preprocess import VABlockBin
from repro.core.replay import ReplayPolicyKind
from repro.gpu.device import GpuDeviceConfig
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.trace.recorder import TraceRecorder
from repro.units import MiB
from tests.pagelists import back, mapped

PPV = 512


def _leaves(draw, max_size):
    return sorted(draw(st.sets(st.integers(0, PPV - 1), max_size=max_size)))


@st.composite
def service_case(draw):
    n_device = draw(st.integers(2, 6))
    n_data = draw(st.integers(4, 12))
    prior_blocks = draw(st.permutations(range(n_data)))[: draw(st.integers(0, n_device))]
    prior = []
    for vb in prior_blocks:  # LRU order: first is least recently faulted
        resident = _leaves(draw, 64)
        dirty = [leaf for leaf in resident if draw(st.booleans())]
        prior.append((vb, resident, dirty))
    bin_blocks = sorted(draw(st.sets(st.integers(0, n_data - 1), min_size=1)))
    bins = []
    for vb in bin_blocks:
        pages = _leaves(draw, 24) or [draw(st.integers(0, PPV - 1))]
        writes = [draw(st.booleans()) for _ in pages]
        bins.append((vb, pages, writes))
    policy = draw(st.sampled_from([ReplayPolicyKind.BLOCK, ReplayPolicyKind.BATCH_FLUSH]))
    prefetch = draw(st.booleans())
    return n_device, n_data, prior, bins, policy, prefetch


def _driver(n_device, n_data, prior, policy, prefetch) -> UvmDriver:
    space = AddressSpace()
    space.malloc_managed(n_data * 2 * MiB, name="data")
    driver = UvmDriver(
        space,
        driver_config=DriverConfig(replay_policy=policy, prefetch_enabled=prefetch),
        gpu_config=GpuDeviceConfig(memory_bytes=n_device * 2 * MiB),
        rng=SimRng(7),
        recorder=TraceRecorder(),
    )
    # prior state: backed blocks with resident and dirty leaves, mapped
    # on the GPU and unmapped on the host, in LRU order
    for vb, resident, dirty in prior:
        leaves = sum(1 << leaf for leaf in resident)
        writing = sum(1 << leaf for leaf in dirty)
        driver.pma.reserve(space.vablock_size)
        back(driver.residency, vb)
        driver.lru.insert(vb)
        driver.residency.make_resident(vb, leaves, writing=writing)
        driver.gpu_table.map(vb, leaves)
        driver.host_table.unmap(vb, leaves)
    return driver


def _bins(bins, prior) -> list[VABlockBin]:
    """The bins as preprocessing leaves them: faults on pages resident
    when the batch opens are stale and dropped, and so are empty bins."""
    resident = {vb: set(leaves) for vb, leaves, _ in prior}
    out = []
    for vb, pages, writes in bins:
        kept = [(p, w) for p, w in zip(pages, writes) if p not in resident.get(vb, ())]
        if not kept:
            continue
        pages = np.array([p for p, _ in kept], dtype=np.int64) + vb * PPV
        writes = [w for _, w in kept]
        out.append(
            VABlockBin(
                vablock_id=vb,
                pages=pages,
                writes=np.array(writes, dtype=bool),
                stream_ids=np.arange(pages.size, dtype=np.int64),
                sm_ids=np.arange(pages.size, dtype=np.int64) % 4,
            )
        )
    return out


def _service(driver: UvmDriver, bins, write_per_bin: bool) -> list:
    servicer, outcomes = driver.servicer, []
    if write_per_bin:
        for vbin in bins:
            with servicer.batch([vbin]):
                outcomes.append(servicer.service_bin(vbin))
            driver._apply_action(driver.policy.after_vablock())
    else:
        with servicer.batch(bins):
            for vbin in bins:
                outcomes.append(servicer.service_bin(vbin))
                driver._apply_action(driver.policy.after_vablock())
    driver._apply_action(driver.policy.after_batch())
    return outcomes


def _state(driver: UvmDriver, outcomes) -> dict:
    state = driver.residency.page_arrays()
    for table in (driver.gpu_table, driver.host_table):
        state[f"{table.side}.mapped"] = mapped(table)
        state[f"{table.side}.stats"] = asdict(table.stats)
    trace = driver.recorder.finalize()
    state.update(
        pma=asdict(driver.pma.stats),
        pma_bytes=(driver.pma.unclaimed_bytes, driver.pma.cache_bytes, driver.pma.used_bytes),
        dma=asdict(driver.dma.stats),
        lru=driver.lru.order(),
        timer_ns=driver.timer.as_dict(),
        timer_counts=driver.timer.counts_as_dict(),
        counters=driver.counters.as_dict(),
        clock=driver.clock.now,
        outcomes=outcomes,
        trace={name: value.tolist() for name, value in vars(trace).items()},
    )
    return state


@given(service_case())
@settings(max_examples=150, deadline=None)
def test_one_write_per_batch_equals_one_write_per_bin(case):
    n_device, n_data, prior, bins, policy, prefetch = case
    got, want = [], []
    for write_per_bin, out in ((False, got), (True, want)):
        driver = _driver(n_device, n_data, prior, policy, prefetch)
        outcomes = _service(driver, _bins(bins, prior), write_per_bin)
        driver.residency.check_invariants()
        out.append(_state(driver, outcomes))
    got, want = got[0], want[0]
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], np.ndarray):
            assert np.array_equal(got[key], want[key]), key
        else:
            assert got[key] == want[key], key
