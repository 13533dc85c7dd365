"""Unit tests for the fault servicer (alloc/evict/prefetch/migrate/map)."""

import numpy as np
import pytest

from repro.core.eviction import LruEvictionPolicy
from repro.core.pma import PhysicalMemoryAllocator
from repro.core.prefetch import TreePrefetcher
from repro.core.preprocess import VABlockBin
from repro.core.service import FaultServicer
from repro.gpu.dma import DmaEngine
from repro.mem.address_space import AddressSpace
from repro.mem.page_table import PageTable
from repro.mem.residency import ResidencyState
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.stats import CategoryTimer, CounterSet
from repro.trace.recorder import TraceRecorder
from repro.units import MiB
from tests.pagelists import arrays, mapped


def make_bin(pages, writes=None, vablock=None):
    pages = np.asarray(pages, dtype=np.int64)
    if writes is None:
        writes = np.zeros(pages.shape, dtype=bool)
    vb = int(pages[0]) // 512 if vablock is None else vablock
    return VABlockBin(
        vablock_id=vb,
        pages=pages,
        writes=np.asarray(writes, dtype=bool),
        stream_ids=np.zeros(pages.shape, dtype=np.int64),
        sm_ids=np.zeros(pages.shape, dtype=np.int64),
    )


class Harness:
    def __init__(self, gpu_mib=8, data_mib=8, prefetcher=None):
        self.space = AddressSpace()
        self.space.malloc_managed(data_mib * MiB)
        self.cost = CostModel()
        self.clock = SimClock()
        self.residency = ResidencyState(self.space)
        self.gpu_table = PageTable(self.space, "gpu")
        self.host_table = PageTable(self.space, "host")
        self.pma = PhysicalMemoryAllocator(self.cost, gpu_mib * MiB)
        self.lru = LruEvictionPolicy()
        self.dma = DmaEngine(self.cost, self.space.page_size)
        self.timer = CategoryTimer()
        self.counters = CounterSet()
        self.recorder = TraceRecorder()
        self.servicer = FaultServicer(
            residency=self.residency,
            gpu_table=self.gpu_table,
            host_table=self.host_table,
            pma=self.pma,
            lru=self.lru,
            dma=self.dma,
            cost=self.cost,
            clock=self.clock,
            timer=self.timer,
            counters=self.counters,
            recorder=self.recorder,
            prefetcher=prefetcher,
        )

    def service(self, vbin):
        """Service one bin as a batch of its own (its page masks are
        written when the batch closes)."""
        with self.servicer.batch([vbin]):
            return self.servicer.service_bin(vbin)


class TestDemandService:
    def test_pages_become_resident_and_mapped(self):
        h = Harness()
        outcome = h.service(make_bin([1, 2, 3]))
        assert outcome.n_demand == 3
        assert arrays(h.residency).resident[[1, 2, 3]].all()
        assert h.residency.read_ok[[1, 2, 3]].all()
        assert mapped(h.gpu_table)[[1, 2, 3]].all()
        assert not mapped(h.host_table)[[1, 2, 3]].any()

    def test_write_faults_mark_dirty(self):
        h = Harness()
        h.service(make_bin([1, 2], writes=[True, False]))
        dirty = arrays(h.residency).dirty
        assert dirty[1]
        assert not dirty[2]

    def test_costs_charged_to_paper_categories(self):
        h = Harness()
        h.service(make_bin([1]))
        assert h.timer.total_ns("service.pma_alloc") > 0
        assert h.timer.total_ns("service.migrate") > 0
        assert h.timer.total_ns("service.map") > 0
        assert h.clock.now == h.timer.total_ns()

    def test_lru_tracks_serviced_block(self):
        h = Harness()
        h.service(make_bin([1]))
        h.service(make_bin([600]))
        h.service(make_bin([2]))  # re-fault block 0: promote
        assert h.lru.order() == [1, 0]

    def test_second_service_skips_pma_call(self):
        h = Harness()
        h.service(make_bin([1]))
        calls = h.pma.stats.calls
        h.service(make_bin([2]))
        assert h.pma.stats.calls == calls

    def test_residency_invariants_hold(self):
        h = Harness()
        h.service(make_bin([1, 5, 200], writes=[True, True, False]))
        h.residency.check_invariants()
        h.gpu_table.check_mapped(h.residency.expected_gpu_mapped())
        h.host_table.check_mapped(h.residency.expected_host_mapped())


class TestPrefetchIntegration:
    def test_prefetched_pages_arrive_clean(self):
        h = Harness(prefetcher=TreePrefetcher())
        outcome = h.service(make_bin([0], writes=[True]))
        assert outcome.n_prefetch == 15
        after = arrays(h.residency)
        assert after.resident[:16].all()
        assert after.dirty[0]
        assert not after.dirty[1:16].any()

    def test_prefetch_counted_separately(self):
        h = Harness(prefetcher=TreePrefetcher(threshold=1))
        h.service(make_bin([0]))
        assert h.counters["pages.prefetch_h2d"] == 511
        assert h.counters["pages.demand_h2d"] == 1


class TestEvictionPath:
    def test_eviction_triggered_when_memory_full(self):
        h = Harness(gpu_mib=4, data_mib=8)  # 2-block GPU, 4-block data
        h.service(make_bin([0]))
        h.service(make_bin([512]))
        outcome = h.service(make_bin([1024]))
        assert outcome.n_evictions == 1
        assert h.counters["evictions.count"] == 1
        assert not arrays(h.residency).backed[0]  # LRU victim was block 0

    def test_eviction_writes_back_dirty_pages(self):
        h = Harness(gpu_mib=4, data_mib=8)
        h.service(make_bin([0, 1], writes=[True, False]))
        h.service(make_bin([512]))
        h.service(make_bin([1024]))
        assert h.counters["evictions.pages_dirty"] == 1
        assert h.counters["evictions.pages_dropped"] == 2
        assert h.dma.stats.d2h_bytes == 4096

    def test_evicted_pages_rehosted(self):
        h = Harness(gpu_mib=4, data_mib=8)
        h.service(make_bin([0]))
        h.service(make_bin([512]))
        h.service(make_bin([1024]))
        assert mapped(h.host_table)[0]
        assert not mapped(h.gpu_table)[0]
        assert not h.residency.read_ok[0]

    def test_faulting_block_never_evicts_itself(self):
        h = Harness(gpu_mib=2, data_mib=8)  # single-block GPU
        h.service(make_bin([0]))
        h.service(make_bin([512]))  # must evict block 0
        assert arrays(h.residency).backed[:2].tolist() == [False, True]

    def test_eviction_charged_to_service_evict(self):
        h = Harness(gpu_mib=4, data_mib=8)
        for page in (0, 512, 1024):
            h.service(make_bin([page]))
        assert h.timer.total_ns("service.evict") > 0

    def test_trace_records_eviction(self):
        h = Harness(gpu_mib=4, data_mib=8)
        for page in (0, 512, 1024):
            h.service(make_bin([page]))
        trace = h.recorder.finalize()
        assert trace.n_evictions == 1
        assert trace.evict_vablock.tolist() == [0]
