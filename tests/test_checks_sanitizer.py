"""UVMSAN: clean runs, planted bugs, zero-cost-off, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.checks import sanitizer as uvmsan
from repro.checks.sanitizer import SanitizerError, UvmSanitizer
from repro.core.driver import UvmDriver
from repro.core.eviction import LruEvictionPolicy
from repro.core.service import BatchView
from repro.experiments.runner import ExperimentSetup, simulate
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.sim.rng import SimRng
from repro.units import MiB, VABLOCK_SIZE
from repro.workloads.registry import make_workload
from tests.pagelists import back, make_resident


@pytest.fixture
def san_on():
    uvmsan.set_enabled(True)
    yield
    uvmsan.set_enabled(None)


@pytest.fixture
def san_off():
    uvmsan.set_enabled(False)
    yield
    uvmsan.set_enabled(None)


def build_driver(setup: ExperimentSetup, workload) -> UvmDriver:
    rng = SimRng(setup.seed)
    space = setup.make_space()
    build = workload.build(space, rng.fork("workload"))
    return UvmDriver(
        space=space,
        streams=build.streams if build.phases is None else None,
        phases=build.phases,
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        cost=setup.cost,
        rng=rng,
    )


# -- the switch ---------------------------------------------------------------
def test_env_var_controls_enabled(monkeypatch):
    try:
        monkeypatch.setenv(uvmsan.ENV_VAR, "1")
        uvmsan.set_enabled(None)
        assert uvmsan.enabled()
        monkeypatch.setenv(uvmsan.ENV_VAR, "0")
        uvmsan.set_enabled(None)
        assert not uvmsan.enabled()
        monkeypatch.delenv(uvmsan.ENV_VAR)
        uvmsan.set_enabled(None)
        assert not uvmsan.enabled()
    finally:
        uvmsan.set_enabled(None)  # drop the cache monkeypatch leaves behind


def test_off_means_no_hooks_anywhere(san_off, tiny_setup):
    driver = build_driver(tiny_setup, make_workload("sgemm", 8 * MiB))
    assert driver.sanitizer is None
    assert driver.servicer.sanitizer is None
    assert LruEvictionPolicy()._san_seq is None
    assert uvmsan.make_sanitizer() is None


# -- clean sanitized runs -----------------------------------------------------
def test_clean_oversubscribed_run_passes(san_on, tiny_setup):
    """A real eviction-heavy run satisfies every invariant."""
    driver = build_driver(tiny_setup, make_workload("sgemm", 32 * MiB))
    result = driver.run()
    assert result.evictions > 0, "test must exercise the eviction checks"
    assert driver.sanitizer is not None
    assert driver.sanitizer.checks_run > 0


@pytest.mark.parametrize("name", ["sgemm", "stream", "hpgmg"])
def test_sanitizer_does_not_change_results(name, tiny_setup):
    """UVMSAN observes; it must never perturb the simulation."""
    workload_bytes = 24 * MiB
    uvmsan.set_enabled(False)
    try:
        base = simulate(make_workload(name, workload_bytes), tiny_setup)
    finally:
        uvmsan.set_enabled(None)
    uvmsan.set_enabled(True)
    try:
        checked = simulate(make_workload(name, workload_bytes), tiny_setup)
    finally:
        uvmsan.set_enabled(None)
    assert checked.total_time_ns == base.total_time_ns
    assert checked.faults_serviced == base.faults_serviced
    assert checked.evictions == base.evictions
    assert dict(checked.counters) == dict(base.counters)


# -- planted bugs -------------------------------------------------------------
def _plant_residency_bug(driver: UvmDriver) -> None:
    """After the first batch is written, mark a non-resident page dirty.

    The corruption is behaviorally inert: eviction and migration always
    mask ``dirty`` with ``resident``, so an unsanitized run completes -
    exactly the silent-corruption class UVMSAN exists to catch.  (The
    sanitizer checks the state at batch boundaries, after the batch is
    written, so that is where the bug is planted.)
    """
    original = driver.servicer.write_batch
    state = {"planted": False}

    def corrupting():
        original()
        if not state["planted"]:
            block = driver.residency.blocks[0]
            non_resident = ~block.resident & (1 << driver.space.pages_per_vablock) - 1
            if non_resident:
                block.dirty |= non_resident & -non_resident  # its lowest leaf
                state["planted"] = True

    driver.servicer.write_batch = corrupting


def test_planted_residency_bug_caught(san_on, tiny_setup):
    driver = build_driver(tiny_setup, make_workload("sgemm", 8 * MiB))
    _plant_residency_bug(driver)
    with pytest.raises(SanitizerError, match="residency"):
        driver.run()


def test_planted_residency_bug_silent_without_sanitizer(san_off, tiny_setup):
    driver = build_driver(tiny_setup, make_workload("sgemm", 8 * MiB))
    _plant_residency_bug(driver)
    driver.run()  # completes: the bug is invisible without UVMSAN


def test_planted_page_table_bug_caught(san_on, tiny_setup):
    driver = build_driver(tiny_setup, make_workload("sgemm", 8 * MiB))
    original = driver.servicer.write_batch
    state = {"planted": False}

    def corrupting():
        original()
        if not state["planted"]:
            table = driver.gpu_table.mapped
            mapped = [vb for vb, leaves in enumerate(table) if leaves]
            if mapped:
                leaves = table[mapped[0]]
                table[mapped[0]] = leaves & (leaves - 1)  # leak its lowest PTE
                state["planted"] = True

    driver.servicer.write_batch = corrupting
    with pytest.raises(SanitizerError, match="page-table"):
        driver.run()


def test_batch_size_violation_caught():
    san = UvmSanitizer()
    san.check_batch([0] * 10, max_size=10)  # at the limit: fine
    with pytest.raises(SanitizerError, match="batch"):
        san.check_batch([0] * 11, max_size=10)


def test_lru_eviction_order_violation_caught(san_on):
    lru = LruEvictionPolicy()
    for vb in (1, 2, 3):
        lru.insert(vb)
    lru.touch(1)
    assert lru.evict_victim() == 2  # clean: 2 is now the oldest fault

    # Reorder the list behind the tracker's back (a touch() that forgot
    # its bookkeeping): the list head is no longer the oldest fault.
    lru._lru.move_to_end(3)
    with pytest.raises(SanitizerError, match="LRU order broken"):
        lru.evict_victim()


def test_lru_tracking_respects_exclusion(san_on):
    lru = LruEvictionPolicy()
    for vb in (1, 2, 3):
        lru.insert(vb)
    assert lru.evict_victim(exclude=(1,)) == 2


# -- direct hook units --------------------------------------------------------
def _residency_pair() -> tuple[AddressSpace, ResidencyState]:
    space = AddressSpace()
    space.malloc_managed(4 * VABLOCK_SIZE, "data")
    return space, ResidencyState(space)


def test_check_eviction_postconditions():
    san = UvmSanitizer()
    space, res = _residency_pair()
    lru = LruEvictionPolicy()
    back(res, 0)
    lru.insert(0)
    make_resident(res, np.arange(4, dtype=np.int64))
    view = BatchView(res)
    with pytest.raises(SanitizerError, match="still backed"):
        san.check_eviction(view, 0, lru)
    res.evict_vablock(0)
    with pytest.raises(SanitizerError, match="still on LRU"):
        san.check_eviction(view, 0, lru)
    lru.remove(0)
    san.check_eviction(view, 0, lru)  # clean teardown passes


def test_check_prefetch_rejects_resident_and_unbacked():
    san = UvmSanitizer()
    space, res = _residency_pair()
    ppv = space.pages_per_vablock
    view = BatchView(res)
    with pytest.raises(SanitizerError, match="without physical backing"):
        san.check_prefetch(view, 0, np.array([1], dtype=np.int64))
    back(res, 0)
    make_resident(res, np.array([1], dtype=np.int64))
    with pytest.raises(SanitizerError, match="already-resident"):
        san.check_prefetch(view, 0, np.array([1], dtype=np.int64))
    with pytest.raises(SanitizerError, match="escaped"):
        san.check_prefetch(view, 0, np.array([ppv], dtype=np.int64))
    san.check_prefetch(view, 0, np.array([2, 3], dtype=np.int64))


def test_check_prefetch_rejects_unmergeable_demand_and_prefetch():
    san = UvmSanitizer()
    _, res = _residency_pair()
    back(res, 0)
    view = BatchView(res)
    demand = np.array([4, 9], dtype=np.int64)
    san.check_prefetch(view, 0, np.array([2, 5], dtype=np.int64), demand)
    for prefetch, bad_demand in (
        (np.array([2, 9], dtype=np.int64), demand),  # overlaps demand
        (np.array([5, 2], dtype=np.int64), demand),  # descending
        (np.array([2, 5], dtype=np.int64), np.array([9, 4], dtype=np.int64)),
    ):
        with pytest.raises(SanitizerError, match="ascending and disjoint"):
            san.check_prefetch(view, 0, prefetch, bad_demand)


def test_check_state_flags_lru_membership_drift(san_on):
    san = UvmSanitizer()
    space, res = _residency_pair()
    from repro.mem.page_table import PageTable

    gpu = PageTable(space, side="gpu")
    host = PageTable(space, side="host")
    lru = LruEvictionPolicy()
    san.check_state(res, gpu, host, lru)  # empty state is consistent
    back(res, 1)  # backed but never inserted into the LRU
    with pytest.raises(SanitizerError, match="lru"):
        san.check_state(res, gpu, host, lru)
