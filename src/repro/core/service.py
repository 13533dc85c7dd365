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

**Decide per bin, write per batch.**  Every decision is made per bin, in
bin order: the LRU victim, PMA reserve and release, the prefetch walk,
each charge and the clock it advances, the chaos draws and the
thrashing-detector and trace-recorder calls.  The decisions change the
stored state in place: the VABlocks' leaf bitsets
(:class:`~repro.mem.residency.BlockLeaves`) and both page tables.  A
:class:`BatchView` (:meth:`FaultServicer.batch`) records which blocks
the batch touched and holds its timer charges and counter additions;
when the batch closes, the page masks the GPU scans are rewritten for
those blocks and the charges reach the timer and the counters.  Nothing
reads the masks while the batch is open; the next reader (the arrival
phase, the sanitizer's state check, the next batch's preprocess) runs
after the write.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
from repro.mem.leafbits import mask_of
from repro.mem.page_table import PageTable
from repro.mem.residency import BlockLeaves, ResidencyState
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


class BatchView:
    """One batch's touched VABlocks and pending charges.

    ``blocks`` maps every VABlock the batch touches to its stored
    :class:`~repro.mem.residency.BlockLeaves` (the bins' blocks when the
    batch opens, each eviction victim when chosen), and ``ns``,
    ``counts`` and ``counters`` hold the timer charges and counter
    additions made so far.  :meth:`write` rewrites the touched blocks'
    page masks and moves the charges into the timer and counters when
    the batch closes.
    """

    def __init__(self, residency: ResidencyState) -> None:
        self.residency = residency
        self.space = residency.space
        self.blocks: dict[int, BlockLeaves] = {}
        self.ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def add(self, vablocks: Iterable[int]) -> None:
        """Record ``vablocks`` as touched by the batch."""
        stored = self.residency.blocks
        for vb in vablocks:
            self.blocks[vb] = stored[vb]

    def block(self, vablock_id: int) -> BlockLeaves:
        """The stored state of one VABlock, recorded as touched."""
        block = self.blocks.get(vablock_id)
        if block is None:
            block = self.blocks[vablock_id] = self.residency.blocks[vablock_id]
        return block

    def write(self, timer: CategoryTimer, counters: CounterSet) -> None:
        """Rewrite the touched blocks' page masks and flush the charges
        into the timer and the counters."""
        self.residency.sync_masks(self.blocks.values())
        for category, ns in self.ns.items():
            timer.charge(category, ns, count=self.counts[category])
        for name, value in self.counters.items():
            counters.add(name, value)


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
        ppv, ppb = self.space.pages_per_vablock, self.space.pages_per_big_page
        self._ppv = ppv
        self._ppb = ppb
        #: shifts that fold each run of ``ppb`` set leaves onto its first
        #: leaf, and the first leaf of every big page (for PTE counts).
        self._fold_shifts = [1 << i for i in range(ppb.bit_length() - 1)]
        self._big_page_starts = sum(1 << leaf for leaf in range(0, ppv, ppb))
        #: the open batch's view; None between batches.
        self._view: Optional[BatchView] = None

    # -- batches -----------------------------------------------------------------
    @contextmanager
    def batch(
        self, bins: Sequence[VABlockBin] = (), blocks: Iterable[int] = ()
    ) -> Iterator[BatchView]:
        """Open a batch over the VABlocks of ``bins`` (and ``blocks``):
        :meth:`service_bin` changes their stored state, and the batch is
        written (:meth:`write_batch`) when the block of the ``with``
        statement ends.

        A batch that raises leaves its blocks and the page tables as its
        transitions left them, and its masks, timer charges and counters
        unwritten; the exception ends the run.
        """
        if self._view is not None:
            raise SimulationError("a service batch is already open")
        view = BatchView(self.residency)
        view.add([vbin.vablock_id for vbin in bins] + list(blocks))
        self._view = view
        try:
            yield view
            self.write_batch()
        finally:
            self._view = None

    def write_batch(self) -> None:
        """Write the open batch: the touched blocks' page masks, the
        timer and the counters."""
        self._view.write(self.timer, self.counters)

    # -- helpers -----------------------------------------------------------------
    def _charge(self, category: str, duration_ns: int, count: int = 1) -> None:
        """Attribute driver time and advance the (serial) driver clock;
        the timer receives the batch's charges when it is written."""
        duration_ns = round(duration_ns)
        self.clock.advance(duration_ns)
        view = self._view
        view.ns[category] += duration_ns
        view.counts[category] += count

    def _effective_ptes(self, leaves: int, n: int) -> int:
        """PTE writes needed for the ``n`` set ``leaves`` of one VABlock,
        with big-page promotion.

        A fully populated 64 KB-aligned group is installed as one big
        PTE (the Power9-emulation big pages of Section IV-A); leftover
        pages get 4 KB PTEs.  Dense (prefetched) migrations therefore
        pay ~1/16th the mapping cost of scattered ones - part of why
        aggressive prefetching approaches explicit-transfer efficiency.
        """
        ppb = self._ppb
        if n < ppb:
            return n  # too few pages to fill a group
        full = leaves
        for shift in self._fold_shifts:
            full &= full >> shift
        return n - (full & self._big_page_starts).bit_count() * (ppb - 1)

    @staticmethod
    def _leaf_bits(vbin: VABlockBin, start: int) -> tuple[int, int]:
        """The bin's demand faults and write intent as leaf bitsets of
        its VABlock, whose first page is ``start``."""
        demand = writing = 0
        for page, write in zip(vbin.pages.tolist(), vbin.writes.tolist()):
            leaf = 1 << (page - start)
            demand |= leaf
            if write:
                writing |= leaf
        return demand, writing

    # -- eviction path --------------------------------------------------------------
    def _evict_one(self, exclude_vablock: int) -> None:
        """Evict the LRU victim to free backing for ``exclude_vablock``.

        Direct costs per Section V-A2: the eviction is a device-to-host
        migration of the modified pages plus unmap/invalidate, and the
        lock dance forces the faulting path to restart (the fixed cost).
        """
        view = self._view
        victim = self.lru.evict_victim(exclude=(exclude_vablock,))
        resident, dirty = view.block(victim).evict()
        n_res, n_dirty = resident.bit_count(), dirty.bit_count()

        if self.thrashing is not None:
            self.thrashing.record_eviction(victim, self.clock.now)
        evict_ns = self.cost.evict_fixed_ns
        evict_ns += self.dma.d2h_pages(n_dirty) if n_dirty else 0
        evict_ns += n_res * self.cost.unmap_page_ns
        evict_ns += self.cost.tlb_invalidate_ns + self.cost.membar_ns
        self.gpu_table.unmap(victim, resident)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        # data is host-resident again
        self.host_table.map(victim, resident)
        evict_ns += n_res * self.cost.map_page_ns
        self._charge("service.evict", evict_ns, count=1)

        self.pma.release(self.space.vablock_size)
        counters = view.counters
        counters[C.EVICTIONS] += 1
        counters[C.EVICTION_PAGES_DROPPED] += n_res
        counters[C.EVICTION_PAGES_DIRTY] += n_dirty
        counters[C.PAGES_WRITEBACK_D2H] += n_dirty
        self.recorder.record_eviction(self.clock.now, victim, n_res, n_dirty)
        if self.sanitizer is not None:
            self.sanitizer.check_eviction(view, victim, self.lru)

    def _ensure_backed(self, block: BlockLeaves) -> int:
        """Reserve GPU physical memory for the bin's VABlock.

        Triggered "whenever the driver attempts to allocate memory for a
        VABlock that does not have memory reserved on the GPU already,
        e.g. the first page fault" (Section V-A1).  Returns the number of
        evictions performed.
        """
        if block.backed:
            return 0
        vablock_id = block.vablock_id
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
                self._view.counters[C.PMA_CALLS] += 1
                if self.lru.select_victim(exclude=(vablock_id,)) is not None:
                    self._evict_one(exclude_vablock=vablock_id)
                    evictions += 1
        if reserve_ns:
            self._view.counters[C.PMA_CALLS] += 1
        # PMA cost is "actually part of the migration process" but the
        # paper separates it (Fig. 4 caption); we do the same.
        self._charge("service.pma_alloc", reserve_ns, count=1)
        block.back()
        self.lru.insert(vablock_id)
        return evictions

    # -- memory-advise service paths ------------------------------------------------
    def _service_remote_bin(self, vbin: VABlockBin, block: BlockLeaves) -> ServiceOutcome:
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
        leaves = self._leaf_bits(vbin, vb * self._ppv)[0]
        view = self._view
        n_new = block.map_remote(leaves)
        self.gpu_table.map(vb, leaves)
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
        view.counters[C.FAULTS_SERVICED] += n
        view.counters[C.REMOTE_PAGES_MAPPED] += n_new
        self.recorder.record_service(self.clock.now, vb, n, 0)
        return outcome

    def _upgrade_permissions(self, block: BlockLeaves, leaves: int) -> int:
        """Write faults on duplicated pages: collapse the duplication.

        The host copies become stale, so their host mappings are torn
        down and the GPU PTEs upgraded to read-write; no data moves.
        """
        if leaves & ~block.duplicated:
            raise SimulationError("upgrade request on non-duplicated pages")
        vb = block.vablock_id
        view = self._view
        n_pages = leaves.bit_count()
        n = block.collapse_duplicates(leaves)
        self.host_table.unmap(vb, leaves)
        self.gpu_table.map(vb, leaves)  # PTE permission rewrite
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        upgrade_ns = (
            n_pages * (self.cost.map_page_ns + self.cost.unmap_page_ns)
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self._charge("service.map", upgrade_ns, count=n_pages)
        view.counters[C.FAULTS_WRITE_UPGRADE] += n
        view.counters[C.FAULTS_SERVICED] += n
        view.counters[C.DUP_COLLAPSES] += n
        return n

    def promote_remote_block(self, vablock_id: int) -> int:
        """Counter-triggered promotion: migrate a hot block's remote pages.

        The access counters showed this block's remote mappings are
        heavily re-touched; paying one bulk migration converts every
        future touch from an interconnect trip into an HBM hit.  The
        GPU PTEs are rewritten from sysmem to local (a remap, not an
        unmap), and the pages arrive writable like any migration.  The
        promotion is a batch of its own.  Returns the number of pages
        promoted.
        """
        with self.batch(blocks=(vablock_id,)) as view:
            block = view.block(vablock_id)
            leaves = block.remote_mapped
            n = leaves.bit_count()
            if n == 0:
                return 0
            self._ensure_backed(block)
            block.unmap_remote(leaves)
            n_ptes = self._effective_ptes(leaves, n)
            promote_ns = (
                n * (self.cost.stage_page_ns + self.cost.unmap_page_ns)
                + n_ptes * (self.cost.zero_page_ns + self.cost.map_page_ns)
                + self.dma.h2d_pages(n)
                + self.cost.tlb_invalidate_ns
                + self.cost.membar_ns
            )
            self.gpu_table.map(vablock_id, leaves)  # PTE rewrite sysmem -> local
            self.gpu_table.invalidate_tlb()
            self.gpu_table.membar()
            self.host_table.unmap(vablock_id, leaves)
            self._charge("service.counter_migration", promote_ns, count=n)
            block.make_resident(leaves)
            self.lru.touch(vablock_id)
            view.counters[C.COUNTER_MIGRATION_BLOCKS] += 1
            view.counters[C.COUNTER_MIGRATION_PAGES] += n
            return n

    # -- main entry ---------------------------------------------------------------
    def service_bin(self, vbin: VABlockBin) -> ServiceOutcome:
        """Service all faults of one VABlock bin (plus prefetch).

        The bin is serviced on its VABlock's state in the open batch's
        view: demand, prefetch and write intent are leaf bitsets, and
        the residency, page-table and DMA updates take those bitsets or
        their page counts.
        """
        view = self._view
        if view is None:
            raise SimulationError("service_bin outside a batch (see FaultServicer.batch)")
        vb = vbin.vablock_id
        advise = self.space.advise_of_vablock(vb)  # range-checks vb
        start = vb * self._ppv
        block = view.block(vb)
        if advise is MemAdvise.PINNED_HOST:
            return self._service_remote_bin(vbin, block)

        if self.thrashing is not None and advise is MemAdvise.MIGRATE:
            before = self.thrashing.pinned_blocks
            self.thrashing.on_fault(vb, self.clock.now)
            if self.thrashing.pinned_blocks > before:
                view.counters[C.THRASH_BLOCKS_PINNED] += 1
            if self.thrashing.should_pin(vb):
                # thrashing remedy: stop migrating this block - service
                # its faults as remote mappings from here on
                outcome = self._service_remote_bin(vbin, block)
                view.counters[C.THRASH_PAGES_PINNED] += outcome.n_demand
                return outcome

        outcome = ServiceOutcome(vablock_id=vb)
        demand, writing = self._leaf_bits(vbin, start)

        # Split permission upgrades (resident read-only duplicates hit
        # by writes) from true demand misses.
        hit = demand & block.resident
        if hit:
            self._upgrade_permissions(block, hit)
            demand &= ~hit
            writing &= ~hit
            if not demand:
                self.lru.touch(vb)
                self.recorder.record_service(self.clock.now, vb, 0, 0)
                return outcome
            missing = np.array(
                [not hit >> leaf & 1 for leaf in (vbin.pages - start).tolist()]
            )
            vbin = VABlockBin(
                vablock_id=vb,
                pages=vbin.pages[missing],
                writes=vbin.writes[missing],
                stream_ids=vbin.stream_ids[missing],
                sm_ids=vbin.sm_ids[missing],
            )
        n_demand = demand.bit_count()
        outcome.n_evictions = self._ensure_backed(block)

        # -- prefetch decision (Section IV-A) ---------------------------------
        leaves, n_prefetch = demand, 0
        if self.prefetcher is not None and n_demand:
            resident = block.resident
            prefetch = self.prefetcher.prefetch_bits(resident, demand, vbin, start)
            if prefetch < 0 or prefetch >> self._ppv:
                # Prefetch is per-VABlock: physical backing exists only
                # for the block being serviced.
                raise SimulationError("prefetcher escaped the serviced VABlock")
            if prefetch & resident:
                raise SimulationError("prefetcher returned resident pages")
            if prefetch & demand:
                raise SimulationError("prefetch overlaps the demand faults")
            if self.sanitizer is not None:
                pages = np.flatnonzero(mask_of(prefetch, self._ppv)) + start
                self.sanitizer.check_prefetch(view, vb, pages, vbin.pages)
            n_prefetch = prefetch.bit_count()
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
            unmap, n_unmap = writing, writing.bit_count()
        else:
            unmap, n_unmap = leaves, n_all  # migration unmaps the source copy
        migrate_ns += n_unmap * self.cost.unmap_page_ns
        if n_unmap:
            self.host_table.unmap(vb, unmap)
        self._charge("service.migrate", migrate_ns, count=n_all)

        # -- map (PTE writes, invalidate, membar) --------------------------------
        map_ns = (
            self.cost.map_vablock_fixed_ns
            + n_ptes * self.cost.map_page_ns
            + self.cost.tlb_invalidate_ns
            + self.cost.membar_ns
        )
        self.gpu_table.map(vb, leaves)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        self._charge("service.map", map_ns, count=n_all)

        # -- residency + LRU promotion --------------------------------------------
        if advise is MemAdvise.READ_MOSTLY:
            # written pages map exclusive+RW; everything else arrives as
            # a read-only duplicate whose host copy stays valid
            block.make_resident(leaves, writing, writable=writing, duplicated=~writing)
        else:
            block.make_resident(leaves, writing)
        self.lru.touch(vb)

        outcome.n_demand = n_demand
        outcome.n_prefetch = n_prefetch
        counters = view.counters
        counters[C.FAULTS_SERVICED] += n_demand
        counters[C.PAGES_DEMAND_H2D] += n_demand
        counters[C.PAGES_PREFETCH_H2D] += n_prefetch
        counters[C.PAGES_ZEROED] += n_all
        self.recorder.record_service(self.clock.now, vb, n_demand, n_prefetch)
        return outcome
