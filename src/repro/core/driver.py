"""The top-level UVM driver loop and run orchestration.

:class:`UvmDriver` wires the whole Fig. 2 architecture together and runs
a kernel to completion:

1. the GPU advances warp streams and deposits far-faults in the hardware
   fault buffer (:meth:`~repro.gpu.device.GpuDevice.run_phase`),
2. the driver wakes, drains batches (:mod:`~repro.core.batch`), filters
   and bins them (:mod:`~repro.core.preprocess`), and services each
   VABlock bin (:mod:`~repro.core.service`) - evicting, prefetching,
   migrating, and mapping as required, on the stored per-VABlock state;
   the page masks the GPU scans are rewritten once the batch's last bin
   is serviced,
3. the configured replay policy (:mod:`~repro.core.replay`) decides when
   to flush the buffer and when to notify the GPU to replay, waking
   stalled warps (which may re-fault, producing duplicates).

Every nanosecond of driver work is attributed to the paper's categories
(``preprocess`` / ``service.*`` / ``replay_policy``) via
:class:`~repro.sim.stats.CategoryTimer`, reproducing the measurement
infrastructure behind Figs. 3-5 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.chaos.injector import make_injector
from repro.chaos.plan import MODEL_BUFFER_OVERFLOW
from repro.checks.sanitizer import make_sanitizer
from repro.core import counters as C
from repro.core.batch import assemble_batch
from repro.core.eviction import LruEvictionPolicy
from repro.core.pma import PhysicalMemoryAllocator
from repro.core.prefetch import TreePrefetcher
from repro.core.preprocess import preprocess_batch
from repro.core.replay import ReplayAction, ReplayPolicy, ReplayPolicyKind, make_replay_policy
from repro.core.service import FaultServicer
from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.dma import DmaEngine, DmaStats
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import bits_of_pages, unpack_rows
from repro.mem.page_table import PageTable
from repro.mem.residency import ResidencyState
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.rng import SimRng
from repro.sim.stats import (
    PAPER_CATEGORIES,
    SERVICE_SUBCATEGORIES,
    CategoryTimer,
    CounterSet,
    TimeBreakdown,
)
from repro.trace.recorder import FinalizedTrace, NullRecorder, TraceRecorder
from repro.units import DEFAULT_BATCH_SIZE, DEFAULT_DENSITY_THRESHOLD


@dataclass(frozen=True)
class DriverConfig:
    """UVM driver tunables (module parameters of the real driver)."""

    batch_size: int = DEFAULT_BATCH_SIZE
    replay_policy: ReplayPolicyKind = ReplayPolicyKind.BATCH_FLUSH
    prefetch_enabled: bool = True
    density_threshold: int = DEFAULT_DENSITY_THRESHOLD
    #: which predictor drives prefetching: "tree" is the stock density
    #: prefetcher; "origin" is the Section VI-B what-if that exploits
    #: fault-origin information the real driver lacks.
    prefetcher_kind: str = "tree"
    #: Section VI-B "adaptive prefetching": auto-tune the density
    #: threshold from the observed eviction/fault load.
    adaptive_prefetch: bool = False
    #: "lru" is the stock fault-driven LRU; "access_counter" is the
    #: Section VI-B what-if using Volta-style access counters (requires
    #: GpuDeviceConfig.track_access_counters).
    eviction_policy: str = "lru"
    #: batch assembly fetch policy (Section III-C): poll per-entry ready
    #: flags (default) or close the batch at the first unready entry.
    batch_stop_at_not_ready: bool = False
    #: uvm_perf_thrashing analogue: detect evict/re-fault cycles and pin
    #: thrashing VABlocks with remote mappings instead of migrating.
    thrashing_mitigation: bool = False
    #: evictions of one block before pinning is considered.
    thrashing_evict_threshold: int = 3
    #: Volta access-counter notifications: promote remote-mapped blocks
    #: that the GPU keeps re-touching to local memory (requires
    #: GpuDeviceConfig.track_access_counters).
    counter_migration: bool = False
    #: safety valve for runaway simulations.
    max_phases: int = 2_000_000

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if not 1 <= self.density_threshold <= 100:
            raise ConfigurationError("density_threshold must be in 1..100")
        if self.prefetcher_kind not in ("tree", "origin"):
            raise ConfigurationError(
                f"unknown prefetcher_kind {self.prefetcher_kind!r}"
            )
        if self.eviction_policy not in ("lru", "access_counter"):
            raise ConfigurationError(
                f"unknown eviction_policy {self.eviction_policy!r}"
            )

    def with_overrides(self, **kwargs) -> "DriverConfig":
        return replace(self, **kwargs)


@dataclass
class RunResult:
    """Everything a completed kernel run produced."""

    total_time_ns: int
    timer: CategoryTimer
    counters: CounterSet
    trace: FinalizedTrace
    dma: DmaStats
    driver_config: DriverConfig
    gpu_config: GpuDeviceConfig
    n_streams: int
    data_bytes: int
    gpu_phases: int

    @property
    def total_time_us(self) -> float:
        return self.total_time_ns / 1000.0

    def breakdown(self) -> TimeBreakdown:
        """Paper Fig. 3 trio: preprocess / service / replay policy."""
        return self.timer.breakdown(PAPER_CATEGORIES)

    def service_breakdown(self) -> TimeBreakdown:
        """Paper Fig. 4 trio: PMA alloc / migrate / map (+ evict)."""
        return self.timer.breakdown(SERVICE_SUBCATEGORIES + ("service.evict",))

    @property
    def faults_read(self) -> int:
        """Driver-observed faults (Table I's 'total faults')."""
        return self.counters[C.FAULTS_READ]

    @property
    def faults_serviced(self) -> int:
        return self.counters[C.FAULTS_SERVICED]

    @property
    def evictions(self) -> int:
        return self.counters[C.EVICTIONS]

    @property
    def pages_evicted(self) -> int:
        return self.counters[C.EVICTION_PAGES_DROPPED]


class UvmDriver:
    """One simulated application run: GPU + driver + policies."""

    def __init__(
        self,
        space: AddressSpace,
        streams: StreamSet | None = None,
        driver_config: DriverConfig | None = None,
        gpu_config: GpuDeviceConfig | None = None,
        cost: CostModel | None = None,
        rng: SimRng | None = None,
        recorder: TraceRecorder | None = None,
        phases: list | None = None,
    ) -> None:
        from repro.workloads.base import KernelPhase

        if phases is None:
            phases = [KernelPhase(streams=StreamSet([]) if streams is None else streams)]
        elif streams is not None:
            raise ConfigurationError("pass either streams or phases, not both")
        self._phases = phases
        streams = phases[0].streams
        self.space = space
        self.driver_config = driver_config or DriverConfig()
        self.gpu_config = gpu_config or GpuDeviceConfig()
        self.cost = cost or CostModel()
        self.rng = rng or SimRng()
        self.recorder = recorder if recorder is not None else NullRecorder()

        if self.space.vablock_size > self.gpu_config.memory_bytes:
            raise ConfigurationError(
                "GPU memory smaller than one VABlock: nothing can ever fit"
            )

        self.clock = SimClock()
        self.timer = CategoryTimer()
        self.counters = CounterSet()
        #: UVMSAN invariant hooks; None unless UVMREPRO_SANITIZE=1.
        self.sanitizer = make_sanitizer()
        #: chaos fault injector; None unless a model-family plan is
        #: armed (same zero-cost sentinel pattern as UVMSAN).  Draws
        #: from a dedicated "chaos" RNG fork so injection never
        #: perturbs workload/scheduler randomness.
        self.chaos = make_injector(self.rng)
        self.residency = ResidencyState(space)
        self.gpu_table = PageTable(space, side="gpu")
        self.host_table = PageTable(space, side="host")
        self.pma = PhysicalMemoryAllocator(
            self.cost, self.gpu_config.memory_bytes, chaos=self.chaos
        )
        self.dma = DmaEngine(self.cost, space.page_size, chaos=self.chaos)
        self.device = GpuDevice(
            self.gpu_config,
            streams,
            rng=self.rng,
            total_vablocks=space.total_vablocks,
        )
        self.device.set_vablock_geometry(space.pages_per_vablock)
        self.lru = self._make_eviction_policy()
        self.policy: ReplayPolicy = make_replay_policy(self.driver_config.replay_policy)
        prefetcher = self._make_prefetcher()
        self._thrashing = None
        if self.driver_config.thrashing_mitigation:
            from repro.ext.thrashing import ThrashingDetector

            self._thrashing = ThrashingDetector(
                evict_threshold=self.driver_config.thrashing_evict_threshold
            )
        self._counter_migration = None
        if self.driver_config.counter_migration:
            if self.device.access_counters is None:
                raise ConfigurationError(
                    "counter_migration requires "
                    "GpuDeviceConfig.track_access_counters=True"
                )
            from repro.ext.counter_migration import CounterMigrationController

            self._counter_migration = CounterMigrationController()
        self._adaptive = None
        if self.driver_config.adaptive_prefetch:
            if prefetcher is None or not isinstance(prefetcher, TreePrefetcher):
                raise ConfigurationError(
                    "adaptive_prefetch requires the tree prefetcher to be enabled"
                )
            from repro.ext.adaptive_prefetch import AdaptiveThresholdController

            self._adaptive = AdaptiveThresholdController(
                initial_threshold=self.driver_config.density_threshold,
                managed_fraction=(
                    space.total_bytes_requested / self.gpu_config.memory_bytes
                ),
            )
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
            thrashing=self._thrashing,
            sanitizer=self.sanitizer,
        )
        self._n_streams = sum(len(p.streams) for p in self._phases)
        self._compute_parallelism = max(1, self.gpu_config.n_sms * 8)
        # snapshot which advise behaviours are in play so the hot phase
        # loop only pays for permission/remote checks when needed
        from repro.mem.advise import MemAdvise

        advises = {space.advise_of_range(r.index) for r in space.ranges}
        self._has_remote = (
            MemAdvise.PINNED_HOST in advises or self._thrashing is not None
        )
        self._permission_aware = MemAdvise.READ_MOSTLY in advises
        self._finished = False
        # Resumable run-loop state.  All loop progress lives on the
        # instance (not in locals) so a pickled driver restores mid-run
        # and run() continues exactly where the checkpoint was taken.
        self._init_charged = False
        self._phase_i = 0
        self._phase_started = False
        self._gpu_phases_total = 0
        self._kernel_phases = 0
        self._kernel_stagnant = 0
        self._kernel_last_progress = (-1, -1)

    def _make_eviction_policy(self):
        if self.driver_config.eviction_policy == "access_counter":
            if self.device.access_counters is None:
                raise ConfigurationError(
                    "eviction_policy='access_counter' requires "
                    "GpuDeviceConfig.track_access_counters=True"
                )
            from repro.ext.access_counter_eviction import AccessCounterEviction

            return AccessCounterEviction(self.device.access_counters)
        return LruEvictionPolicy()

    def _make_prefetcher(self):
        if not self.driver_config.prefetch_enabled:
            return None
        if self.driver_config.prefetcher_kind == "origin":
            from repro.ext.origin_prefetch import OriginStreamPrefetcher

            return OriginStreamPrefetcher(
                pages_per_big_page=self.space.pages_per_big_page,
                pages_per_vablock=self.space.pages_per_vablock,
            )
        return TreePrefetcher(
            threshold=self.driver_config.density_threshold,
            pages_per_vablock=self.space.pages_per_vablock,
            pages_per_big_page=self.space.pages_per_big_page,
        )

    # -- policy action handling -------------------------------------------------
    def _apply_action(self, action: ReplayAction) -> None:
        if action.flush_buffer:
            flushed = self.device.fault_buffer.flush()
            flush_ns = self.cost.flush_fixed_ns + flushed * self.cost.flush_per_entry_ns
            self.timer.charge("replay_policy.flush", flush_ns, count=1)
            self.clock.advance(flush_ns)
            self.counters.add(C.BUFFER_FLUSHES)
            self.counters.add(C.FLUSHED_ENTRIES, flushed)
        if action.issue_replay:
            self.timer.charge("replay_policy.replay", self.cost.replay_issue_ns, count=1)
            # in-fabric latency before SMs observe the replay: wall time,
            # accounted under the same category so breakdowns cover the
            # clock exactly
            self.timer.charge("replay_policy.delivery", self.cost.replay_delivery_ns)
            self.clock.advance(self.cost.replay_issue_ns + self.cost.replay_delivery_ns)
            self.device.deliver_replay()
            self.counters.add(C.REPLAYS_ISSUED)
            self.recorder.record_replay(self.clock.now)

    # -- GPU-side bookkeeping ---------------------------------------------------
    def _run_device_phase(self, max_streams: int | None = None):
        """One GPU phase against the current access masks."""
        return self.device.run_phase(
            self.residency.read_ok,
            self.clock,
            max_streams=max_streams,
            write_ok=self.residency.write_ok if self._permission_aware else None,
            remote=self.residency.remote_mapped if self._has_remote else None,
        )

    def _absorb_phase(self, result) -> None:
        """Fold one GPU phase's results into counters and compute time."""
        self.counters.add(C.GPU_PHASES)
        self.counters.add(C.GPU_ACCESSES, result.accesses_retired)
        self.counters.add(C.FAULTS_ENQUEUED, result.faults_enqueued)
        self.counters.add(C.FAULTS_COALESCED, result.faults_coalesced)
        self.counters.add(C.FAULTS_DROPPED, result.faults_dropped)
        if result.remote_accesses:
            self.counters.add(C.REMOTE_ACCESSES, result.remote_accesses)
            remote_ns = round(
                result.remote_accesses
                * self.cost.remote_touch_bytes
                * 1e9
                / self.cost.remote_access_bytes_per_s
            )
            if remote_ns:
                self.timer.charge("gpu.remote_access", remote_ns)
                self.clock.advance(remote_ns)
        if result.accesses_retired:
            compute_ns = (
                result.accesses_retired * self.cost.access_ns
            ) // self._compute_parallelism
            if result.flops_retired:
                compute_ns += round(
                    result.flops_retired * 1e9 / self.gpu_config.compute_flops_per_s
                )
            if compute_ns:
                self.timer.charge("gpu.compute", compute_ns)
                self.clock.advance(compute_ns)

    def _gpu_arrivals(self, service_ns: int) -> None:
        """Faults that arrived while the driver spent ``service_ns``.

        The SMs never pause for the driver: while a batch is serviced,
        other warps keep running and stalling, refilling the fault
        buffer.  The arrival count scales with the time the driver just
        spent, which is what couples slow (scattered) servicing to large
        flush backlogs and duplicate faults.
        """
        n = int(self.gpu_config.service_arrival_per_us * service_ns / 1000)
        if n <= 0:
            return
        result = self._run_device_phase(max_streams=n)
        self._absorb_phase(result)

    # -- driver service pass --------------------------------------------------------
    def _driver_pass(self) -> int:
        """Process the fault buffer until empty; returns batches handled."""
        cfg = self.driver_config
        self.timer.charge("preprocess.wakeup", self.cost.driver_wakeup_ns)
        self.clock.advance(self.cost.driver_wakeup_ns)
        batches = 0
        while len(self.device.fault_buffer):
            batch = assemble_batch(
                self.device.fault_buffer,
                self.clock.now,
                cfg.batch_size,
                stop_at_not_ready=cfg.batch_stop_at_not_ready,
            )
            if not len(batch):
                break
            batches += 1
            if self.sanitizer is not None:
                self.sanitizer.check_batch(batch, cfg.batch_size)
            pre = preprocess_batch(batch, self.residency)
            pre_ns = (
                self.cost.batch_fetch_fixed_ns
                + len(batch) * self.cost.fault_read_ns
                + batch.polls * self.cost.fault_poll_ns
                + self.cost.sort_fixed_ns
                + len(batch) * self.cost.sort_per_fault_ns
                + len(batch) * self.cost.preprocess_per_fault_ns
            )
            self.timer.charge("preprocess.batch", pre_ns, count=len(batch))
            self.clock.advance(pre_ns)
            self.counters.add(C.FAULTS_READ, pre.n_read)
            self.counters.add(C.FAULTS_DUPLICATE, pre.n_duplicate)
            self.counters.add(C.FAULT_POLLS, batch.polls)
            self.counters.add(C.BATCHES)
            self.counters.add(C.VABLOCK_BINS, len(pre.bins))
            if self.recorder.enabled:
                ppv = self.space.pages_per_vablock
                for page, stream_id, dup in zip(
                    batch.page.tolist(),
                    batch.stream_id.tolist(),
                    pre.entry_duplicate.tolist(),
                ):
                    self.recorder.record_fault(
                        self.clock.now, page, page // ppv, stream_id, dup
                    )
                self.recorder.record_batch(self.clock.now, pre.n_read, pre.n_duplicate)

            service_start = self.clock.now
            # bins change the stored blocks; their page masks are written
            # when the batch closes, before anything reads them again
            with self.servicer.batch(pre.bins):
                for vbin in pre.bins:
                    self.servicer.service_bin(vbin)
                    self._apply_action(self.policy.after_vablock())
            self._gpu_arrivals(self.clock.now - service_start)
            self._apply_action(self.policy.after_batch())
            if self.sanitizer is not None:
                self.sanitizer.check_state(
                    self.residency, self.gpu_table, self.host_table, self.lru
                )
        if batches:
            self._apply_action(self.policy.after_buffer_drained())
            if self._counter_migration is not None:
                hot = self._counter_migration.candidates(
                    self.device.access_counters, self.residency.blocks
                )
                for vb in hot:
                    if self.servicer.promote_remote_block(vb):
                        self._counter_migration.note_promotion(vb)
            if self._adaptive is not None:
                self.servicer.prefetcher.threshold = self._adaptive.observe(
                    self.counters,
                    used_fraction=self.pma.used_bytes / self.pma.capacity_bytes,
                )
        return batches

    # -- CPU-side fault path ---------------------------------------------------------
    def _host_access(self, host) -> None:
        """Service host touches of managed data between kernels.

        Each touched page that is GPU-resident takes a CPU page fault;
        the driver migrates it back at 64 KB-region granularity, unmaps
        it from the GPU, and remaps it on the host - the kernel-boundary
        ping-pong that keeps iterative solvers faulting every iteration.
        """
        pages = np.unique(np.asarray(host.pages, dtype=np.int64))
        if pages.size == 0:
            return
        self.space.validate_pages(pages)
        ppv = self.space.pages_per_vablock
        touched = bits_of_pages(pages, ppv)
        blocks = [self.residency.blocks[vb] for vb in touched]
        if getattr(host, "writes", False):
            # host writes to read-duplicated pages invalidate the (clean)
            # GPU copies without moving any data
            n_dropped = 0
            for block, leaves in zip(blocks, touched.values()):
                dropped = block.drop_duplicates(leaves)
                if dropped:
                    n_dropped += self.gpu_table.unmap(block.vablock_id, dropped)
            if n_dropped:
                self.gpu_table.invalidate_tlb()
                inv_ns = (
                    n_dropped * self.cost.unmap_page_ns + self.cost.tlb_invalidate_ns
                )
                self.timer.charge("host_fault", inv_ns, count=n_dropped)
                self.clock.advance(inv_ns)
                self.counters.add(C.DUP_INVALIDATIONS, n_dropped)
        moved = [
            block.migrate_to_host(leaves)[0] for block, leaves in zip(blocks, touched.values())
        ]
        self.residency.sync_masks(blocks)
        n_moved = sum(leaves.bit_count() for leaves in moved)
        if not n_moved:
            return
        for vb, leaves in zip(touched, moved):
            if leaves:
                self.gpu_table.unmap(vb, leaves)
                self.host_table.map(vb, leaves)
        self.gpu_table.invalidate_tlb()
        self.gpu_table.membar()
        # the 64 KB regions the moved pages fall in
        ppb = self.space.pages_per_big_page
        groups = int(unpack_rows([moved], ppv).reshape(-1, ppb).any(axis=1).sum())
        host_ns = groups * self.cost.host_fault_group_ns
        host_ns += self.dma.d2h_pages(n_moved)
        host_ns += n_moved * (self.cost.unmap_page_ns + self.cost.map_page_ns)
        host_ns += self.cost.tlb_invalidate_ns + self.cost.membar_ns
        self.timer.charge("host_fault", host_ns, count=groups)
        self.clock.advance(host_ns)
        self.counters.add(C.HOST_FAULTS, groups)
        self.counters.add(C.PAGES_HOST_D2H, n_moved)

    # -- main loop ---------------------------------------------------------------------
    def run(self, checkpointer=None) -> RunResult:
        """Run all kernel phases to completion; returns the result.

        ``checkpointer`` (a
        :class:`~repro.sim.engine.SimulationCheckpointer`) enables
        periodic whole-driver snapshots at phase boundaries; a driver
        restored from such a snapshot calls ``run()`` again and
        continues mid-kernel, producing a result bit-identical to an
        uninterrupted run (snapshotting only reads state).
        """
        if self._finished:
            raise SimulationError("UvmDriver.run() may only be called once")

        if not self._init_charged:
            # First-touch session overhead (the 400-600 us floor, Section III-C).
            self.timer.charge("init", self.cost.session_base_ns)
            self.clock.advance(self.cost.session_base_ns)
            self._init_charged = True

        while self._phase_i < len(self._phases):
            phase = self._phases[self._phase_i]
            if not self._phase_started:
                if phase.host_before is not None:
                    self._host_access(phase.host_before)
                if self._phase_i > 0:
                    self.device.load_kernel(phase.streams)
                self._kernel_phases = 0
                self._kernel_stagnant = 0
                self._kernel_last_progress = (-1, -1)
                self._phase_started = True
            self._run_kernel(checkpointer)
            # accumulated only at kernel completion, so a mid-kernel
            # checkpoint never double-counts on resume
            self._gpu_phases_total += self._kernel_phases
            self._phase_i += 1
            self._phase_started = False

        self._finished = True
        if self.sanitizer is not None:
            self.sanitizer.check_state(
                self.residency, self.gpu_table, self.host_table, self.lru
            )
        if self.chaos is not None:
            for point, count in sorted(self.chaos.fired.items()):
                self.counters.add(f"chaos.{point}", count)

        return RunResult(
            total_time_ns=self.clock.now,
            timer=self.timer,
            counters=self.counters,
            trace=self.recorder.finalize(),
            dma=self.dma.stats,
            driver_config=self.driver_config,
            gpu_config=self.gpu_config,
            n_streams=self._n_streams,
            data_bytes=self.space.total_bytes_requested,
            gpu_phases=self._gpu_phases_total,
        )

    def _run_kernel(self, checkpointer=None) -> None:
        """Drive the currently loaded kernel to completion."""
        while self._kernel_phases < self.driver_config.max_phases:
            self._kernel_phases += 1
            result = self._run_device_phase()
            self._absorb_phase(result)

            if self.device.kernel_finished():
                break

            if (
                self.chaos is not None
                and len(self.device.fault_buffer)
                and self.chaos.fire(MODEL_BUFFER_OVERFLOW) is not None
            ):
                # Injected fault-buffer overflow: pending entries are
                # flushed (dropped) and a replay storms the SMs - the
                # stalled warps wake, re-walk, and re-raise their
                # faults.  Costs flush + replay + duplicate faults,
                # never correctness (the drop/re-raise path is the
                # hardware's own overflow behaviour).
                self._apply_action(
                    ReplayAction(flush_buffer=True, issue_replay=True)
                )

            if len(self.device.fault_buffer):
                self._driver_pass()
            elif self.device.has_stalled_streams():
                # Stalled warps with an empty buffer: every entry was
                # dropped/flushed without a replay reaching them.  Real
                # hardware re-walks after replays; nudge with one.
                self._apply_action(ReplayAction(issue_replay=True))

            progress = (
                self.counters[C.GPU_ACCESSES],
                self.counters[C.FAULTS_SERVICED],
            )
            if progress == self._kernel_last_progress:
                self._kernel_stagnant += 1
                if self._kernel_stagnant > 1000:
                    raise DeadlockError(
                        f"no progress for {self._kernel_stagnant} phases: "
                        f"{self.device.scheduler!r}, buffer={len(self.device.fault_buffer)}"
                    )
            else:
                self._kernel_stagnant = 0
                self._kernel_last_progress = progress

            if checkpointer is not None:
                # phase boundary: all driver state is consistent here
                checkpointer.maybe_save(self)
        else:
            raise SimulationError(
                f"kernel did not finish within {self.driver_config.max_phases} phases"
            )
