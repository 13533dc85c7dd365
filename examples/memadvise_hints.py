#!/usr/bin/env python
"""UVM's three access behaviours, head to head (paper Section III-A).

The paper studies paged migration; UVM also offers remote mapping
(zero-copy) and read-only duplication via ``cudaMemAdvise`` hints.  This
example shows when each wins:

1. sparse single-touch over a buffer 3x the GPU - migration wastes 2 MB
   allocations on 4 KB touches and thrashes; zero-copy just reads,
2. dense in-core streaming - migration amortizes; zero-copy pays the
   interconnect per access,
3. a GPU-compute / host-inspect / GPU-reuse loop - duplication makes
   the host reads free instead of ping-ponging pages.

Run:  python examples/memadvise_hints.py
"""

import numpy as np

from repro.core.driver import UvmDriver
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.base import HostAccess, KernelPhase


def run(advise, pages, data_mib, gpu_mib=32, host_reads=False, label=""):
    space = AddressSpace()
    buf = space.malloc_managed(data_mib * MiB, name="data")
    if advise is not None:
        space.mem_advise("data", advise)
    # one single-page stream per touched page
    pages = np.asarray(pages, dtype=np.int64)
    phases = [KernelPhase(streams=StreamSet(pages))]
    if host_reads:
        phases.append(
            KernelPhase(
                streams=StreamSet(pages, ids=10_000 + np.arange(pages.size)),
                host_before=HostAccess(pages=buf.pages(), writes=False),
            )
        )
    driver = UvmDriver(
        space=space,
        phases=phases,
        gpu_config=GpuDeviceConfig(memory_bytes=gpu_mib * MiB),
        rng=SimRng(9),
    )
    result = driver.run()
    print(
        f"  {label:12s} {result.total_time_ns / 1000.0:10.1f} us   "
        f"moved={result.dma.total_bytes >> 20:4d} MiB  "
        f"evictions={result.evictions:4d}  host faults={result.counters['host.faults']:4d}"
    )
    return result


def main() -> None:
    rng = np.random.default_rng(7)

    print("1. sparse single-touch, buffer = 3x GPU memory")
    sparse = np.arange(0, 96 * 256, 512) + rng.integers(0, 512, size=48)
    run(None, sparse, 96, label="migrate")
    run(MemAdvise.PINNED_HOST, sparse, 96, label="pinned host")
    print("   -> zero-copy avoids 2 MB allocations per 4 KB touch entirely.\n")

    print("2. dense in-core streaming")
    dense = np.arange(16 * 256)
    run(None, dense, 16, label="migrate")
    run(MemAdvise.PINNED_HOST, dense, 16, label="pinned host")
    print("   -> migration amortizes; per-access interconnect trips do not.\n")

    print("3. GPU compute, host inspects everything, GPU re-reads")
    run(None, dense, 16, host_reads=True, label="migrate")
    run(MemAdvise.READ_MOSTLY, dense, 16, host_reads=True, label="read mostly")
    print(
        "   -> duplication keeps the host copy valid: no CPU faults, no\n"
        "      migration ping-pong, and the second kernel's data is warm."
    )


if __name__ == "__main__":
    main()
