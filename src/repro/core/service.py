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

    def _effective_ptes(self, pages: np.ndarray) -> int:
        """PTE writes needed for ascending, unique ``pages`` with big-page
        promotion.

        A fully populated 64 KB-aligned group is installed as one big
        PTE (the Power9-emulation big pages of Section IV-A); leftover
        pages get 4 KB PTEs.  Dense (prefetched) migrations therefore
        pay ~1/16th the mapping cost of scattered ones - part of why
        aggressive prefetching approaches explicit-transfer efficiency.
        """
        ppb = self.space.pages_per_big_page
        n = int(pages.size)
        if n < ppb:
            return n  # too few pages to fill a group
        # In an ascending unique list a group is full exactly when a
        # group-aligned page is followed ppb - 1 places later by the
        # group's last page.
        heads = pages[: n - ppb + 1]
        full = int(
            np.count_nonzero((heads % ppb == 0) & (pages[ppb - 1 :] - heads == ppb - 1))
        )
        return n - full * (ppb - 1)

    # -- eviction path --------------------------------------------------------------
    def _evict_one(self, exclude_vablock: int) -> None:
        """Evict the LRU victim to free backing for ``exclude_vablock``.

        Direct costs per Section V-A2: the eviction is a device-to-host
        migration of the modified pages plus unmap/invalidate, and the
        lock dance forces the faulting path to restart (the fixed cost).
        """
        victim = self.lru.evict_victim(exclude=(exclude_vablock,))
        start, stop = self.space.page_span_of_vablock(victim)
        res_mask = self.residency.resident[start:stop]
        resident_pages = np.flatnonzero(res_mask).astype(np.int64) + start
        dirty_pages = (
            np.flatnonzero(res_mask & self.residency.dirty[start:stop]).astype(np.int64)
            + start
        )
        n_res, n_dirty = self.residency.evict_vablock(victim)
        if n_res != resident_pages.size or n_dirty != dirty_pages.size:
            raise SimulationError("eviction accounting mismatch")

        if self.thrashing is not None:
            self.thrashing.record_eviction(victim, self.clock.now)
        evict_ns = self.cost.evict_fixed_ns
        evict_ns += self.dma.d2h_pages(dirty_pages) if n_dirty else 0
        evict_ns += n_res * self.cost.unmap_page_ns
        evict_ns += self.cost.tlb_invalidate_ns + self.cost.membar_ns
        self.gpu_table.unmap_pages(resident_pages)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        # data is host-resident again
        self.host_table.map_pages(resident_pages)
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
    def _service_remote_bin(self, vbin: VABlockBin) -> ServiceOutcome:
        """Remote mapping (Section III-A): map host memory, migrate nothing.

        No PMA allocation, no eviction pressure, no data transfer - the
        fault is serviced by installing PTEs that point at host memory;
        subsequent accesses cross the interconnect per touch.
        """
        vb = vbin.vablock_id
        outcome = ServiceOutcome(vablock_id=vb)
        pages = vbin.pages
        if pages.size == 0:
            return outcome
        if self.residency.resident[pages].any():
            raise SimulationError("remote bin contains migrated pages")
        n_new = self.residency.map_remote(pages)
        self.gpu_table.map_pages(pages)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        map_ns = (
            self.cost.map_vablock_fixed_ns
            + int(pages.size) * (self.cost.map_page_ns + self.cost.service_per_fault_ns)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self._charge("service.map", map_ns, count=int(pages.size))
        outcome.n_demand = int(pages.size)
        self.counters.add(C.FAULTS_SERVICED, outcome.n_demand)
        self.counters.add(C.REMOTE_PAGES_MAPPED, n_new)
        self.recorder.record_service(self.clock.now, vb, outcome.n_demand, 0)
        return outcome

    def _upgrade_permissions(self, vb: int, pages: np.ndarray) -> int:
        """Write faults on duplicated pages: collapse the duplication.

        The host copies become stale, so their host mappings are torn
        down and the GPU PTEs upgraded to read-write; no data moves.
        """
        if not self.residency.duplicated[pages].all():
            raise SimulationError("upgrade request on non-duplicated pages")
        n = self.residency.collapse_duplicates(pages)
        self.host_table.unmap_pages(pages)
        self.gpu_table.map_pages(pages)  # PTE permission rewrite
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        upgrade_ns = (
            pages.size * (self.cost.map_page_ns + self.cost.unmap_page_ns)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self._charge("service.map", upgrade_ns, count=int(pages.size))
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
        pages = (
            np.flatnonzero(self.residency.remote_mapped[start:stop]).astype(np.int64)
            + start
        )
        if pages.size == 0:
            return 0
        self._ensure_backed(vablock_id)
        self.residency.unmap_remote(pages)
        n = int(pages.size)
        n_ptes = self._effective_ptes(pages)
        promote_ns = (
            n * (self.cost.stage_page_ns + self.cost.unmap_page_ns)
            + n_ptes * (self.cost.zero_page_ns + self.cost.map_page_ns)
            + self.dma.h2d_pages(pages)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self.gpu_table.map_pages(pages)  # PTE rewrite sysmem -> local
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        self.host_table.unmap_pages(pages)
        self._charge("service.counter_migration", promote_ns, count=n)
        self.residency.make_resident(pages)
        self.lru.touch(vablock_id)
        self.counters.add(C.COUNTER_MIGRATION_BLOCKS)
        self.counters.add(C.COUNTER_MIGRATION_PAGES, n)
        return n

    # -- main entry ---------------------------------------------------------------
    def service_bin(self, vbin: VABlockBin) -> ServiceOutcome:
        """Service all faults of one VABlock bin (plus prefetch)."""
        vb = vbin.vablock_id
        advise = self.space.advise_of_vablock(vb)
        if advise is MemAdvise.PINNED_HOST:
            return self._service_remote_bin(vbin)

        if self.thrashing is not None and advise is MemAdvise.MIGRATE:
            before = self.thrashing.pinned_blocks
            self.thrashing.on_fault(vb, self.clock.now)
            if self.thrashing.pinned_blocks > before:
                self.counters.add(C.THRASH_BLOCKS_PINNED)
            if self.thrashing.should_pin(vb):
                # thrashing remedy: stop migrating this block - service
                # its faults as remote mappings from here on
                outcome = self._service_remote_bin(vbin)
                self.counters.add(C.THRASH_PAGES_PINNED, outcome.n_demand)
                return outcome

        outcome = ServiceOutcome(vablock_id=vb)

        # Split permission upgrades (resident read-only duplicates hit
        # by writes) from true demand misses.
        resident_mask = self.residency.resident[vbin.pages]
        if resident_mask.any():
            self._upgrade_permissions(vb, vbin.pages[resident_mask])
            missing = ~resident_mask
            if not missing.any():
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
        demand_pages = vbin.pages
        outcome.n_evictions = self._ensure_backed(vb)

        start, stop = self.space.page_span_of_vablock(vb)

        # -- prefetch decision (Section IV-A) ---------------------------------
        prefetch_pages = np.empty(0, dtype=np.int64)
        if self.prefetcher is not None and demand_pages.size:
            prefetch_pages = np.asarray(
                self.prefetcher.prefetch_pages(self.residency, vbin), dtype=np.int64
            )
            if prefetch_pages.size:
                if self.residency.resident[prefetch_pages].any():
                    raise SimulationError("prefetcher returned resident pages")
                if prefetch_pages.min() < start or prefetch_pages.max() >= stop:
                    # Prefetch is per-VABlock: physical backing exists
                    # only for the block being serviced.
                    raise SimulationError("prefetcher escaped the serviced VABlock")
            if self.sanitizer is not None:
                self.sanitizer.check_prefetch(
                    self.residency, vb, prefetch_pages, demand_pages
                )

        # Demand pages are ascending and unique (a bin) and prefetch
        # pages ascending and disjoint from them (the prefetcher
        # contract), so their union is a sorted concatenation.
        if prefetch_pages.size:
            all_pages = np.concatenate((demand_pages, prefetch_pages))
            all_pages.sort()
            # write intent aligned with the union page list
            writing = np.zeros(all_pages.size, dtype=bool)
            writing[np.searchsorted(all_pages, demand_pages)] = vbin.writes
        else:
            all_pages, writing = demand_pages, vbin.writes
        n_all = int(all_pages.size)
        if n_all == 0:
            return outcome

        # -- migrate (zero new phys, stage on host, DMA to device) -------------
        # Per-fault bookkeeping (permission checks, page-state walks) is
        # paid for demand faults only; prefetched pages ride along in the
        # same staging chunks with just their per-page costs - that gap
        # is why aggressive prefetching approaches explicit-transfer
        # efficiency (Section IV-C).
        n_ptes = self._effective_ptes(all_pages)
        migrate_ns = n_all * self.cost.stage_page_ns + n_ptes * self.cost.zero_page_ns
        migrate_ns += int(demand_pages.size) * self.cost.service_per_fault_ns
        migrate_ns += self.dma.h2d_pages(all_pages)
        if advise is MemAdvise.READ_MOSTLY:
            # read-only duplication: host mappings survive for pages that
            # were not written; only written pages become exclusive.
            unmap_pages = all_pages[writing]
        else:
            unmap_pages = all_pages  # migration unmaps the source copy
        migrate_ns += int(unmap_pages.size) * self.cost.unmap_page_ns
        self.host_table.unmap_pages(unmap_pages)
        self._charge("service.migrate", migrate_ns, count=n_all)

        # -- map (PTE writes, invalidate, membar) --------------------------------
        map_ns = (
            self.cost.map_vablock_fixed_ns
            + n_ptes * self.cost.map_page_ns
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self.gpu_table.map_pages(all_pages)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        self._charge("service.map", map_ns, count=n_all)

        # -- residency + LRU promotion --------------------------------------------
        if advise is MemAdvise.READ_MOSTLY:
            # written pages map exclusive+RW; everything else arrives as
            # a read-only duplicate whose host copy stays valid
            self.residency.make_resident(
                all_pages, writing=writing, writable=writing, duplicated=~writing
            )
        else:
            self.residency.make_resident(all_pages, writing=writing)
        self.lru.touch(vb)

        outcome.n_demand = int(demand_pages.size)
        outcome.n_prefetch = int(prefetch_pages.size)
        self.counters.add(C.FAULTS_SERVICED, outcome.n_demand)
        self.counters.add(C.PAGES_DEMAND_H2D, outcome.n_demand)
        self.counters.add(C.PAGES_PREFETCH_H2D, outcome.n_prefetch)
        self.counters.add(C.PAGES_ZEROED, n_all)
        self.recorder.record_service(
            self.clock.now, vb, outcome.n_demand, outcome.n_prefetch
        )
        return outcome
