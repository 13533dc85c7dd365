"""Ablation: the three UVM access behaviours (Section III-A).

The paper focuses on paged migration; remote mapping and read-only
duplication are the alternatives it sets aside.  This bench quantifies
when each wins on the simulated platform:

* **sparse single-touch over a large buffer** - the EMOGI-style case
  (the paper's related work [13]): zero-copy remote mapping avoids
  migrating 2 MB-granule allocations for 4 KB touches and sidesteps
  eviction entirely,
* **dense single-touch** - migration amortizes; remote mapping pays the
  interconnect per access and loses,
* **host re-reads of GPU results** - read-only duplication makes the
  host touches free where migration ping-pongs.
"""

import numpy as np

from benchmarks.conftest import run_exhibit
from repro.core.driver import UvmDriver
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.sim.rng import SimRng
from repro.trace.export import render_series
from repro.units import MiB
from repro.workloads.base import HostAccess, KernelPhase


def _run(advise, touched_pages, data_mib, gpu_mib=32, host_reads=False):
    space = AddressSpace()
    buf = space.malloc_managed(data_mib * MiB, name="data")
    if advise is not None:
        space.mem_advise("data", advise)
    touched_pages = np.asarray(touched_pages, dtype=np.int64)
    phases = [KernelPhase(streams=StreamSet(touched_pages))]
    if host_reads:
        phases.append(
            KernelPhase(
                streams=StreamSet(
                    touched_pages, ids=100_000 + np.arange(touched_pages.size)
                ),
                host_before=HostAccess(pages=buf.pages(), writes=False),
            )
        )
    driver = UvmDriver(
        space=space,
        phases=phases,
        gpu_config=GpuDeviceConfig(memory_bytes=gpu_mib * MiB),
        rng=SimRng(9),
    )
    return driver.run()


def _compare():
    rows = []
    rng = np.random.default_rng(7)

    # sparse single-touch: 1 page per VABlock of a 3x-oversized buffer
    data_mib, gpu_mib = 96, 32
    sparse = np.arange(0, data_mib * 256, 512) + rng.integers(
        0, 512, size=data_mib // 2
    )
    for label, advise in (("migrate", None), ("pinned", MemAdvise.PINNED_HOST)):
        run = _run(advise, sparse, data_mib, gpu_mib)
        rows.append(
            (
                "sparse 3x-oversized",
                label,
                run.total_time_ns / 1000.0,
                run.dma.total_bytes >> 20,
                run.evictions,
            )
        )

    # dense single-touch, in-core
    dense = np.arange(16 * 256)
    for label, advise in (("migrate", None), ("pinned", MemAdvise.PINNED_HOST)):
        run = _run(advise, dense, 16, 32)
        rows.append(
            ("dense in-core", label, run.total_time_ns / 1000.0, run.dma.total_bytes >> 20, run.evictions)
        )

    # GPU computes, host re-reads everything, GPU re-reads
    for label, advise in (("migrate", None), ("read_mostly", MemAdvise.READ_MOSTLY)):
        run = _run(advise, dense, 16, 32, host_reads=True)
        rows.append(
            (
                "host re-reads",
                label,
                run.total_time_ns / 1000.0,
                run.dma.total_bytes >> 20,
                run.counters["host.faults"],
            )
        )
    return rows


def test_ablation_memadvise(benchmark, save_render):
    rows = run_exhibit(benchmark, _compare)
    text = render_series(
        rows,
        headers=("scenario", "behaviour", "time(us)", "MiB moved", "evict/hostflt"),
        title="Ablation - UVM access behaviours (Section III-A)",
    )
    save_render("ablation_memadvise", text)

    by_key = {(r[0], r[1]): r for r in rows}
    # sparse oversized: zero-copy wins (no 2MB-granule waste, no eviction)
    assert (
        by_key[("sparse 3x-oversized", "pinned")][2]
        < by_key[("sparse 3x-oversized", "migrate")][2]
    )
    assert by_key[("sparse 3x-oversized", "pinned")][4] == 0
    # dense in-core: migration amortizes and wins
    assert by_key[("dense in-core", "migrate")][2] < by_key[("dense in-core", "pinned")][2]
    # host re-reads: duplication eliminates the CPU-fault ping-pong
    assert by_key[("host re-reads", "read_mostly")][4] == 0
    assert by_key[("host re-reads", "migrate")][4] > 0
    assert (
        by_key[("host re-reads", "read_mostly")][2]
        < by_key[("host re-reads", "migrate")][2]
    )
