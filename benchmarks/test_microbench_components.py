"""Microbenchmarks: wall-clock throughput of the simulator's hot paths.

These use pytest-benchmark's statistics properly (many rounds) and guard
the simulator's own performance: the density-tree computation, batch
pre-processing, residency updates, and warp-stream advancement are the
inner loops of every experiment.
"""

import numpy as np
import pytest

from repro.core.batch import FaultBatch
from repro.core.prefetch import TreePrefetcher
from repro.core.preprocess import preprocess_batch
from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from repro.gpu.soa import RUNNABLE, SoaStreams
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB


@pytest.fixture
def residency():
    space = AddressSpace()
    space.malloc_managed(64 * MiB)
    return ResidencyState(space)


def test_prefetch_compute_throughput(benchmark):
    pf = TreePrefetcher()
    rng = np.random.default_rng(0)
    resident = rng.random(512) < 0.4
    faults = np.flatnonzero(rng.random(512) < 0.05)
    faults = faults[~resident[faults]][:24]
    if faults.size == 0:
        faults = np.array([int(np.flatnonzero(~resident)[0])])
    result = benchmark(pf.compute, resident, faults)
    assert result.count >= 0


def test_preprocess_batch_throughput(benchmark, residency):
    rng = np.random.default_rng(1)
    entries = [
        FaultEntry(
            page=int(p),
            is_write=bool(p % 2),
            timestamp_ns=0,
            gpc_id=0,
            utlb_id=0,
            stream_id=int(p),
            sm_id=int(p) % 80,
        )
        for p in rng.integers(0, 16384, size=256)
    ]
    batch = FaultBatch(entries=entries)
    result = benchmark(preprocess_batch, batch, residency)
    assert result.n_read == 256


def test_make_resident_throughput(benchmark, residency):
    block = residency.blocks[5]
    block.back()
    leaves = sum(1 << leaf for leaf in range(0, 512, 3))

    def op():
        block.resident = block.writable = block.dirty = 0
        return residency.make_resident(5, leaves, writing=-1)

    assert benchmark(op) == leaves.bit_count()


def test_warp_stream_advance_throughput(benchmark):
    rng = np.random.default_rng(2)
    pages = rng.integers(0, 16384, size=100_000).astype(np.int64)
    resident = np.ones(16384, dtype=bool)
    resident[pages[-1]] = False  # one missing page, wherever it first appears
    streams = StreamSet(pages, [pages.size])
    one = np.array([0])

    def op():
        # one phase visiting the one stream: scan to the miss, raise it
        soa = SoaStreams(streams)
        soa.state[0] = RUNNABLE
        soa.sm_id[0] = 0
        tlb, buf = UTlbArray(1, 1), FaultBuffer(capacity=1)
        tlb.cover(soa.max_page)
        kernel = soa.bind(buf.ring, 1, 1, 1)
        kernel.run(np.zeros(1), one, 1, resident, None, tlb.cells, 0, 0, 0)
        return kernel.miss[0]

    missing = benchmark(op)
    assert missing == pages[-1]


def test_eviction_scan_throughput(benchmark, residency):
    every_leaf = (1 << 512) - 1
    for vb in range(32):
        residency.blocks[vb].back()
        residency.make_resident(vb, every_leaf, writing=every_leaf)

    def op():
        resident, _dirty = residency.evict_vablock(5)
        residency.blocks[5].back()
        residency.make_resident(5, every_leaf, writing=every_leaf)
        return resident.bit_count()

    assert benchmark(op) == 512
