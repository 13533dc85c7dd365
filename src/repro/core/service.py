"""Fault servicing: allocation, eviction, prefetch, migration, mapping.

Section III-D: *"Fault servicing is a multi-step process that includes
allocating physical space, zeroing out GPU pages, migrating data from the
source to the destination, mapping pages and permissions, and a number of
other tasks."*  The cost sub-categories reproduced here are the paper's
Fig. 4 trio - **PMA Alloc Pages**, **Migrate Pages**, **Map Pages** -
plus the eviction path of Section V-A that hangs off allocation.

Servicing operates on one :class:`~repro.core.preprocess.VABlockBin` at a
time (the driver's per-VABlock service loop), which is what makes batch
composition matter: a bin with many pages amortizes its per-VABlock fixed
costs and coalesces its DMA, while 256 bins of one page each pay 256 of
everything (the paper's first key insight in III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.chaos.injector import ChaosAllocationFailure
from repro.core import counters as C
from repro.core.eviction import LruEvictionPolicy
from repro.core.pma import PhysicalMemoryAllocator
from repro.core.preprocess import VABlockBin
from repro.core.prefetch import TreePrefetcher
from repro.errors import SimulationError
from repro.gpu.dma import DmaEngine
from repro.mem.advise import MemAdvise
from repro.mem.page_table import PageTable
from repro.mem.residency import ResidencyState
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.stats import CategoryTimer, CounterSet
from repro.trace.recorder import TraceRecorder


@dataclass
class ServiceOutcome:
    """What servicing one VABlock bin did."""

    vablock_id: int
    n_demand: int = 0
    n_prefetch: int = 0
    n_evictions: int = 0


class FaultServicer:
    """Executes the service stage for VABlock bins."""

    def __init__(
        self,
        residency: ResidencyState,
        gpu_table: PageTable,
        host_table: PageTable,
        pma: PhysicalMemoryAllocator,
        lru: LruEvictionPolicy,
        dma: DmaEngine,
        cost: CostModel,
        clock: SimClock,
        timer: CategoryTimer,
        counters: CounterSet,
        recorder: TraceRecorder,
        prefetcher: Optional[TreePrefetcher] = None,
        thrashing=None,
        sanitizer=None,
    ) -> None:
        self.residency = residency
        self.space = residency.space
        self.gpu_table = gpu_table
        self.host_table = host_table
        self.pma = pma
        self.lru = lru
        self.dma = dma
        self.cost = cost
        self.clock = clock
        self.timer = timer
        self.counters = counters
        self.recorder = recorder
        self.prefetcher = prefetcher
        #: optional uvm_perf_thrashing-style detector; when a block is
        #: flagged, its faults are serviced as remote mappings.
        self.thrashing = thrashing
        #: UVMSAN hooks (None unless UVMREPRO_SANITIZE=1).
        self.sanitizer = sanitizer

    # -- helpers -----------------------------------------------------------------
    def _charge(self, category: str, duration_ns: int, count: int = 1) -> None:
        """Attribute driver time and advance the (serial) driver clock."""
        self.timer.charge(category, duration_ns, count=count)
        self.clock.advance(duration_ns)

    def _effective_ptes(self, leaves: np.ndarray, n: int) -> int:
        """PTE writes needed for the ``n`` set ``leaves`` of one VABlock,
        with big-page promotion.

        A fully populated 64 KB-aligned group is installed as one big
        PTE (the Power9-emulation big pages of Section IV-A); leftover
        pages get 4 KB PTEs.  Dense (prefetched) migrations therefore
        pay ~1/16th the mapping cost of scattered ones - part of why
        aggressive prefetching approaches explicit-transfer efficiency.
        """
        ppb = self.space.pages_per_big_page
        if n < ppb:
            return n  # too few pages to fill a group
        full = int(np.count_nonzero(leaves.reshape(-1, ppb).all(axis=1)))
        return n - full * (ppb - 1)

    def _leaves(self, offsets: np.ndarray) -> np.ndarray:
        """The leaf mask of one VABlock with ``offsets`` set."""
        leaves = np.zeros(self.space.pages_per_vablock, dtype=bool)
        leaves[offsets] = True
        return leaves

    # -- eviction path --------------------------------------------------------------
    def _evict_one(self, exclude_vablock: int) -> None:
        """Evict the LRU victim to free backing for ``exclude_vablock``.

        Direct costs per Section V-A2: the eviction is a device-to-host
        migration of the modified pages plus unmap/invalidate, and the
        lock dance forces the faulting path to restart (the fixed cost).
        """
        victim = self.lru.evict_victim(exclude=(exclude_vablock,))
        start, stop = self.space.page_span_of_vablock(victim)
        # the servicer's own read of the victim span, cross-checked
        # against what the teardown reports
        n_seen = np.count_nonzero(self.residency.resident[start:stop])
        n_dirty_seen = np.count_nonzero(self.residency.dirty[start:stop])
        evicted = self.residency.evict_vablock(victim)
        n_res, n_dirty = evicted.n_resident, evicted.n_dirty
        if n_res != n_seen or n_dirty != n_dirty_seen:
            raise SimulationError("eviction accounting mismatch")

        if self.thrashing is not None:
            self.thrashing.record_eviction(victim, self.clock.now)
        evict_ns = self.cost.evict_fixed_ns
        evict_ns += self.dma.d2h_pages(n_dirty) if n_dirty else 0
        evict_ns += n_res * self.cost.unmap_page_ns
        evict_ns += self.cost.tlb_invalidate_ns + self.cost.membar_ns
        self.gpu_table.unmap_span(start, evicted.resident)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        # data is host-resident again
        self.host_table.map_span(start, evicted.resident)
        evict_ns += n_res * self.cost.map_page_ns
        self._charge("service.evict", evict_ns, count=1)

        self.pma.release(self.space.vablock_size)
        self.counters.add(C.EVICTIONS)
        self.counters.add(C.EVICTION_PAGES_DROPPED, n_res)
        self.counters.add(C.EVICTION_PAGES_DIRTY, n_dirty)
        self.counters.add(C.PAGES_WRITEBACK_D2H, n_dirty)
        self.recorder.record_eviction(self.clock.now, victim, n_res, n_dirty)
        if self.sanitizer is not None:
            self.sanitizer.check_eviction(self.residency, victim, self.lru)

    def _ensure_backed(self, vablock_id: int) -> int:
        """Reserve GPU physical memory for the bin's VABlock.

        Triggered "whenever the driver attempts to allocate memory for a
        VABlock that does not have memory reserved on the GPU already,
        e.g. the first page fault" (Section V-A1).  Returns the number of
        evictions performed.
        """
        if self.residency.backed[vablock_id]:
            return 0
        evictions = 0
        vab_bytes = self.space.vablock_size
        while True:
            while not self.pma.can_reserve(vab_bytes):
                self._evict_one(exclude_vablock=vablock_id)
                evictions += 1
            try:
                reserve_ns = self.pma.reserve(vab_bytes)
                break
            except ChaosAllocationFailure as exc:
                # Injected allocation failure: the wasted proprietary-
                # driver call still costs its latency, then the driver
                # degrades gracefully - shed load by evicting (when
                # anything is evictable) and retry.  The injector's
                # max_fires budget bounds the loop.
                self._charge("service.pma_alloc", exc.cost_ns, count=1)
                self.counters.add(C.PMA_CALLS)
                if self.lru.select_victim(exclude=(vablock_id,)) is not None:
                    self._evict_one(exclude_vablock=vablock_id)
                    evictions += 1
        if reserve_ns:
            self.counters.add(C.PMA_CALLS)
        # PMA cost is "actually part of the migration process" but the
        # paper separates it (Fig. 4 caption); we do the same.
        self._charge("service.pma_alloc", reserve_ns, count=1)
        self.residency.back_vablock(vablock_id)
        self.lru.insert(vablock_id)
        return evictions

    # -- memory-advise service paths ------------------------------------------------
    def _service_remote_bin(self, vbin: VABlockBin, start: int) -> ServiceOutcome:
        """Remote mapping (Section III-A): map host memory, migrate nothing.

        No PMA allocation, no eviction pressure, no data transfer - the
        fault is serviced by installing PTEs that point at host memory;
        subsequent accesses cross the interconnect per touch.
        """
        vb = vbin.vablock_id
        outcome = ServiceOutcome(vablock_id=vb)
        n = int(vbin.pages.size)
        if n == 0:
            return outcome
        leaves = self._leaves(vbin.pages - start)
        if np.count_nonzero(leaves & self.residency.resident[start : start + leaves.size]):
            raise SimulationError("remote bin contains migrated pages")
        n_new = self.residency.map_remote(vb, leaves)
        self.gpu_table.map_span(start, leaves)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        map_ns = (
            self.cost.map_vablock_fixed_ns
            + n * (self.cost.map_page_ns + self.cost.service_per_fault_ns)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self._charge("service.map", map_ns, count=n)
        outcome.n_demand = n
        self.counters.add(C.FAULTS_SERVICED, outcome.n_demand)
        self.counters.add(C.REMOTE_PAGES_MAPPED, n_new)
        self.recorder.record_service(self.clock.now, vb, outcome.n_demand, 0)
        return outcome

    def _upgrade_permissions(self, vb: int, start: int, leaves: np.ndarray) -> int:
        """Write faults on duplicated pages: collapse the duplication.

        The host copies become stale, so their host mappings are torn
        down and the GPU PTEs upgraded to read-write; no data moves.
        """
        duplicated = self.residency.duplicated[start : start + leaves.size]
        if np.count_nonzero(np.greater(leaves, duplicated)):
            raise SimulationError("upgrade request on non-duplicated pages")
        n_pages = int(np.count_nonzero(leaves))
        n = self.residency.collapse_duplicates(vb, leaves)
        self.host_table.unmap_span(start, leaves)
        self.gpu_table.map_span(start, leaves)  # PTE permission rewrite
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        upgrade_ns = (
            n_pages * (self.cost.map_page_ns + self.cost.unmap_page_ns)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self._charge("service.map", upgrade_ns, count=n_pages)
        self.counters.add(C.FAULTS_WRITE_UPGRADE, n)
        self.counters.add(C.FAULTS_SERVICED, n)
        self.counters.add(C.DUP_COLLAPSES, n)
        return n

    def promote_remote_block(self, vablock_id: int) -> int:
        """Counter-triggered promotion: migrate a hot block's remote pages.

        The access counters showed this block's remote mappings are
        heavily re-touched; paying one bulk migration converts every
        future touch from an interconnect trip into an HBM hit.  The
        GPU PTEs are rewritten from sysmem to local (a remap, not an
        unmap), and the pages arrive writable like any migration.
        Returns the number of pages promoted.
        """
        start, stop = self.space.page_span_of_vablock(vablock_id)
        leaves = self.residency.remote_mapped[start:stop].copy()
        n = int(np.count_nonzero(leaves))
        if n == 0:
            return 0
        self._ensure_backed(vablock_id)
        self.residency.unmap_remote(vablock_id, leaves)
        n_ptes = self._effective_ptes(leaves, n)
        promote_ns = (
            n * (self.cost.stage_page_ns + self.cost.unmap_page_ns)
            + n_ptes * (self.cost.zero_page_ns + self.cost.map_page_ns)
            + self.dma.h2d_pages(n)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self.gpu_table.map_span(start, leaves)  # PTE rewrite sysmem -> local
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        self.host_table.unmap_span(start, leaves)
        self._charge("service.counter_migration", promote_ns, count=n)
        self.residency.make_resident(vablock_id, leaves)
        self.lru.touch(vablock_id)
        self.counters.add(C.COUNTER_MIGRATION_BLOCKS)
        self.counters.add(C.COUNTER_MIGRATION_PAGES, n)
        return n

    # -- main entry ---------------------------------------------------------------
    def service_bin(self, vbin: VABlockBin) -> ServiceOutcome:
        """Service all faults of one VABlock bin (plus prefetch).

        The bin is serviced on its VABlock's span: demand, prefetch and
        write intent are boolean masks over the block's leaves, and the
        residency, page-table and DMA updates take those masks or their
        page counts.
        """
        vb = vbin.vablock_id
        start, stop = self.space.page_span_of_vablock(vb)
        advise = self.space.advise_of_vablock(vb)
        if advise is MemAdvise.PINNED_HOST:
            return self._service_remote_bin(vbin, start)

        if self.thrashing is not None and advise is MemAdvise.MIGRATE:
            before = self.thrashing.pinned_blocks
            self.thrashing.on_fault(vb, self.clock.now)
            if self.thrashing.pinned_blocks > before:
                self.counters.add(C.THRASH_BLOCKS_PINNED)
            if self.thrashing.should_pin(vb):
                # thrashing remedy: stop migrating this block - service
                # its faults as remote mappings from here on
                outcome = self._service_remote_bin(vbin, start)
                self.counters.add(C.THRASH_PAGES_PINNED, outcome.n_demand)
                return outcome

        outcome = ServiceOutcome(vablock_id=vb)
        # a live view: it follows the block's residency through the
        # upgrades, the eviction of other blocks and the prefetch
        resident = self.residency.resident[start:stop]
        offsets = vbin.pages - start

        # Split permission upgrades (resident read-only duplicates hit
        # by writes) from true demand misses.
        hit = resident[offsets]
        if np.count_nonzero(hit):
            self._upgrade_permissions(vb, start, self._leaves(offsets[hit]))
            missing = ~hit
            if not np.count_nonzero(missing):
                self.lru.touch(vb)
                self.recorder.record_service(self.clock.now, vb, 0, 0)
                return outcome
            vbin = VABlockBin(
                vablock_id=vb,
                pages=vbin.pages[missing],
                writes=vbin.writes[missing],
                stream_ids=vbin.stream_ids[missing],
                sm_ids=vbin.sm_ids[missing],
            )
            offsets = offsets[missing]
        n_demand = int(offsets.size)
        demand = self._leaves(offsets)
        # write intent per leaf; a plain False when nothing writes
        writing = False
        if np.count_nonzero(vbin.writes):
            writing = self._leaves(offsets[vbin.writes])
        outcome.n_evictions = self._ensure_backed(vb)

        # -- prefetch decision (Section IV-A) ---------------------------------
        leaves, n_prefetch = demand, 0
        if self.prefetcher is not None and n_demand:
            prefetch = self.prefetcher.prefetch_leaves(resident, start, vbin)
            if prefetch.dtype != np.bool_ or prefetch.shape != demand.shape:
                # Prefetch is per-VABlock: physical backing exists only
                # for the block being serviced.
                raise SimulationError("prefetcher escaped the serviced VABlock")
            if np.count_nonzero(prefetch & resident):
                raise SimulationError("prefetcher returned resident pages")
            if np.count_nonzero(prefetch & demand):
                raise SimulationError("prefetch overlaps the demand faults")
            if self.sanitizer is not None:
                self.sanitizer.check_prefetch(
                    self.residency, vb, np.flatnonzero(prefetch) + start, vbin.pages
                )
            n_prefetch = int(np.count_nonzero(prefetch))
            if n_prefetch:
                leaves = demand | prefetch
        n_all = n_demand + n_prefetch
        if n_all == 0:
            return outcome

        # -- migrate (zero new phys, stage on host, DMA to device) -------------
        # Per-fault bookkeeping (permission checks, page-state walks) is
        # paid for demand faults only; prefetched pages ride along in the
        # same staging chunks with just their per-page costs - that gap
        # is why aggressive prefetching approaches explicit-transfer
        # efficiency (Section IV-C).
        n_ptes = self._effective_ptes(leaves, n_all)
        migrate_ns = n_all * self.cost.stage_page_ns + n_ptes * self.cost.zero_page_ns
        migrate_ns += n_demand * self.cost.service_per_fault_ns
        migrate_ns += self.dma.h2d_pages(n_all)
        if advise is MemAdvise.READ_MOSTLY:
            # read-only duplication: host mappings survive for pages that
            # were not written; only written pages become exclusive.
            unmap, n_unmap = writing, 0
            if writing is not False:
                n_unmap = int(np.count_nonzero(writing))
        else:
            unmap, n_unmap = leaves, n_all  # migration unmaps the source copy
        migrate_ns += n_unmap * self.cost.unmap_page_ns
        if n_unmap:
            self.host_table.unmap_span(start, unmap)
        self._charge("service.migrate", migrate_ns, count=n_all)

        # -- map (PTE writes, invalidate, membar) --------------------------------
        map_ns = (
            self.cost.map_vablock_fixed_ns
            + n_ptes * self.cost.map_page_ns
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self.gpu_table.map_span(start, leaves)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        self._charge("service.map", map_ns, count=n_all)

        # -- residency + LRU promotion --------------------------------------------
        if advise is MemAdvise.READ_MOSTLY:
            # written pages map exclusive+RW; everything else arrives as
            # a read-only duplicate whose host copy stays valid
            self.residency.make_resident(
                vb,
                leaves,
                writing=writing,
                writable=writing,
                duplicated=True if writing is False else ~writing,
            )
        else:
            self.residency.make_resident(vb, leaves, writing=writing)
        self.lru.touch(vb)

        outcome.n_demand = n_demand
        outcome.n_prefetch = n_prefetch
        self.counters.add(C.FAULTS_SERVICED, outcome.n_demand)
        self.counters.add(C.PAGES_DEMAND_H2D, outcome.n_demand)
        self.counters.add(C.PAGES_PREFETCH_H2D, outcome.n_prefetch)
        self.counters.add(C.PAGES_ZEROED, n_all)
        self.recorder.record_service(
            self.clock.now, vb, outcome.n_demand, outcome.n_prefetch
        )
        return outcome
