"""The GPU device: execution phases that produce the fault workload.

:class:`GpuDevice` ties the per-component models together: the block
scheduler (:mod:`repro.gpu.soa`) dispatches a kernel's warp streams, and
each phase advances them against the current residency state, sending
every miss through the per-GPC uTLB filter (:mod:`repro.gpu.tlb`) and,
if not coalesced, into the hardware fault buffer
(:mod:`repro.gpu.fault_buffer`) - all of it, after the phase's jitter
draws, in one C call (:mod:`repro.gpu.ckernel`).  The driver (in
:mod:`repro.core.driver`) then consumes that buffer - the exact
producer/consumer split of Fig. 2.

A *GPU phase* is one pass in which every runnable stream advances to its
next far-fault (or completion).  Between phases the driver services
faults and issues replays; replays clear the uTLB pending filters and
wake stalled streams, possibly re-raising unsatisfied faults as
duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.ckernel import PhaseKernel
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.soa import SoaBlockScheduler, span_indices
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import GiB, MiB


@dataclass(frozen=True)
class GpuDeviceConfig:
    """Hardware parameters of the simulated GPU.

    Defaults model a scaled-down Titan V: the geometry ratios (SM count,
    GPC count, fault-buffer depth) match the paper's platform while the
    default memory capacity is reduced so experiments finish in CI time;
    pass ``memory_bytes=12 * GiB`` for the full card.
    """

    memory_bytes: int = 256 * MiB
    n_sms: int = 80
    n_gpcs: int = 6
    max_active_streams: int = 2048
    fault_buffer_capacity: int = 4096  # lint: allow(units-magic-literal) entry count, not bytes
    fault_ready_delay_ns: int = 1_500
    scheduler_jitter: float = 0.08
    track_access_counters: bool = False
    #: Aggregate compute throughput used to convert workload FLOPs into
    #: simulated time (Fig. 10's compute-rate denominator).  Scaled down
    #: from the Titan V's ~14 TFLOP/s in proportion to the scaled memory
    #: capacity so the paging/compute balance at the oversubscription
    #: cliff matches the paper's regime.
    compute_flops_per_s: float = 5.0e11
    #: Streams advanced per GPU phase.  Faults on real hardware arrive
    #: spread over time while the driver is servicing; bounding how many
    #: warps reach their next miss between driver passes models that
    #: temporal spread (and thereby the realistic refault/duplicate rate
    #: under the flushing replay policy).
    phase_width: int = 512
    #: Fault arrivals per microsecond of driver service time: while the
    #: driver works, SMs keep running and stalling.  Couples the fault
    #: backlog (and hence flush sizes, duplicates, and replay overhead)
    #: to how slow servicing is - the mechanism that makes random access
    #: pay a visibly larger replay-policy cost in Fig. 3.
    service_arrival_per_us: float = 0.6
    #: Local jitter of the within-phase advancement order (fraction of
    #: the runnable set): warps interleave nondeterministically but the
    #: dispatch wavefront is roughly preserved.
    phase_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        if self.n_sms < self.n_gpcs:
            raise ConfigurationError("need at least one SM per GPC")
        if self.phase_width <= 0:
            raise ConfigurationError("phase_width must be positive")


@dataclass
class GpuPhaseResult:
    """What one GPU phase produced."""

    faults_enqueued: int = 0
    faults_coalesced: int = 0
    faults_dropped: int = 0
    accesses_retired: int = 0
    streams_completed: int = 0
    flops_retired: float = 0.0
    #: retired accesses that hit remote (zero-copy) mappings and
    #: therefore crossed the interconnect instead of HBM.
    remote_accesses: int = 0


class GpuDevice:
    """Simulated GPU: schedules streams and raises far-faults."""

    def __init__(
        self,
        config: GpuDeviceConfig,
        streams: StreamSet,
        rng: SimRng,
        total_vablocks: int = 0,
    ) -> None:
        self.config = config
        self.rng = rng.fork("gpu")
        self.scheduler = SoaBlockScheduler(
            streams,
            rng=self.rng.fork("scheduler"),
            max_active=config.max_active_streams,
            n_sms=config.n_sms,
            jitter=config.scheduler_jitter,
        )
        self.utlb = UTlbArray(
            n_gpcs=config.n_gpcs,
            sms_per_gpc=max(1, config.n_sms // config.n_gpcs),
        )
        self.fault_buffer = FaultBuffer(
            capacity=config.fault_buffer_capacity,
            ready_delay_ns=config.fault_ready_delay_ns,
        )
        #: Volta-style access counters per VABlock (Section VI-B), only
        #: populated when enabled; read by the access-counter-eviction
        #: extension.
        self.access_counters = (
            np.zeros(total_vablocks, dtype=np.int64)
            if config.track_access_counters and total_vablocks
            else None
        )
        self._pages_per_vablock: int | None = None
        self._kernel_counter = 1
        self._phase_sigma = max(4.0, config.phase_jitter * config.max_active_streams)
        #: the phase kernel bound to the running kernel's streams (set on
        #: the first phase of each launch, never pickled)
        self._kernel: PhaseKernel | None = None

    def set_vablock_geometry(self, pages_per_vablock: int) -> None:
        """Provide geometry for access-counter aggregation."""
        self._pages_per_vablock = pages_per_vablock

    # -- execution -----------------------------------------------------------
    def run_phase(
        self,
        read_ok: np.ndarray,
        clock: SimClock,
        max_streams: int | None = None,
        write_ok: np.ndarray | None = None,
        remote: np.ndarray | None = None,
    ) -> GpuPhaseResult:
        """Advance runnable streams to their next miss or completion.

        Streams are visited in dispatch order with local jitter: the
        block scheduler's wavefront is roughly preserved while faults
        from concurrent warps still interleave nondeterministically.
        ``max_streams`` overrides ``phase_width`` (used for arrivals that
        trickle in while the driver is servicing).  ``write_ok`` enables
        permission-aware access checks (read-mostly duplication);
        ``remote`` marks zero-copy pages so their traffic can be charged
        to the interconnect.

        After the jitter draws (one normal per runnable stream), the
        phase is one C call (:class:`~repro.gpu.ckernel.PhaseKernel`):
        it picks the runnable streams and the visited ones among them,
        advances each over the residency masks, which nothing mutates
        mid-phase, marks it DONE or STALLED, and then raises the misses
        through the uTLB filters into the fault buffer in visit order,
        since coalescing and buffer-capacity drops are stateful and
        depend on that order.
        """
        sched = self.scheduler
        sched.refill()
        active, n = sched.runnable()
        budget = self.config.phase_width if max_streams is None else max_streams
        if n == 0 or budget <= 0:
            return GpuPhaseResult()
        soa = sched.soa
        if soa.max_page >= read_ok.size:
            raise SimulationError(
                f"stream page {soa.max_page} lies outside the {read_ok.size}-page access masks"
            )
        kernel = self._kernel or self._bind()
        z = self.rng.jitter_noise(n, self._phase_sigma)
        buf = self.fault_buffer
        (k, retired, n_done, n_stalled, n_push, n_coalesced, n_dropped), flops = kernel.run(
            z, active, min(budget, n), read_ok, write_ok, self.utlb.cells,
            buf.head, len(buf), clock.now,
        )
        sched.note_marked(n_done, n_stalled)
        if n_push:
            self.utlb.note_raised(kernel.set_cells[:n_push].copy())
        buf.note_pushed(n_push, n_dropped)
        result = GpuPhaseResult(
            faults_enqueued=n_push,
            faults_coalesced=n_coalesced,
            faults_dropped=n_dropped,
            accesses_retired=retired,
            streams_completed=n_done,
            flops_retired=flops,
        )
        if retired and (self.access_counters is not None or remote is not None):
            touched = soa.pages_flat[span_indices(kernel.pos0[:k], kernel.pos1[:k])]
            if self.access_counters is not None:
                if self._pages_per_vablock is None:
                    raise ConfigurationError(
                        "access counters enabled but VABlock geometry not set"
                    )
                np.add.at(self.access_counters, touched // self._pages_per_vablock, 1)
            if remote is not None:
                result.remote_accesses = int(remote[touched].sum())
        sched.refill()
        return result

    def _bind(self):
        """Bind the phase kernel to the running kernel's streams."""
        soa = self.scheduler.soa
        self.utlb.cover(soa.max_page)
        self._kernel = soa.bind(
            self.fault_buffer.ring,
            self.utlb.n_gpcs,
            self.utlb.sms_per_gpc,
            min(soa.n, self.config.max_active_streams),
        )
        return self._kernel

    def __getstate__(self) -> dict:
        # the bound kernel holds raw addresses: the copy binds afresh
        state = self.__dict__.copy()
        state["_kernel"] = None
        return state

    def load_kernel(self, streams: StreamSet) -> None:
        """Launch a new kernel: fresh scheduler, persistent device state.

        The fault buffer, uTLB filters, and access counters live across
        kernel launches (they are hardware); only the grid changes.  The
        previous kernel must have completed.
        """
        if not self.scheduler.all_done():
            raise ConfigurationError("loading a kernel while one is still running")
        self.scheduler = SoaBlockScheduler(
            streams,
            rng=self.rng.fork(f"scheduler-k{self._kernel_counter}"),
            max_active=self.config.max_active_streams,
            n_sms=self.config.n_sms,
            jitter=self.config.scheduler_jitter,
        )
        self._kernel = None
        self._kernel_counter += 1

    def deliver_replay(self) -> int:
        """A replay notification arrives: clear uTLB filters, wake warps."""
        self.utlb.on_replay()
        return self.scheduler.wake_all_stalled()

    def kernel_finished(self) -> bool:
        return self.scheduler.all_done()

    def has_stalled_streams(self) -> bool:
        return self.scheduler.has_stalled()
