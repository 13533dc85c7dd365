"""Struct-of-arrays (SoA) phase engine: how the GPU advances its warps.

A kernel's warp streams live in flat numpy arrays - the build's
:class:`~repro.gpu.warp.StreamSet` page and write arrays, read in place,
with per-stream cursors into them - and a whole phase's wavefront
advances in one call instead of a Python call per stream.

The batching is exact, not statistical:

* within one phase the selected streams are independent (advancing one
  stream reads only the shared residency masks, which the phase does not
  mutate), so advancing them and then emitting faults sequentially in
  the jittered visit order gives the fault sequence a stream-at-a-time
  loop gives,
* the scheduler consumes one ``jitter_order`` draw at construction and
  nothing else, dispatches in that order, and assigns round-robin SM
  ids,
* uTLB coalescing and fault-buffer capacity drops follow the per-entry
  raise / push / forget loop exactly.

The whole phase after its normal draws - the visit order, the stream
scan, the DONE/STALLED marking, the FLOP total, the uTLB raise and the
fault-buffer ring write - runs as one C call
(:class:`repro.gpu.ckernel.PhaseKernel`) on this module's arrays;
:class:`SoaBlockScheduler` keeps the dispatch and the runnable set.
``tests/properties/test_reference_oracles.py`` pins the kernel against
a loop form of a whole phase, and the golden-counter matrix
(``tests/golden.py``) pins whole runs bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.gpu import ckernel
from repro.gpu.warp import StreamSet
from repro.sim.rng import SimRng

# int8 stream state codes
PENDING = 0  # not yet scheduled onto an SM
RUNNABLE = 1  # scheduled, can advance
STALLED = 2  # waiting on a far-fault replay
DONE = 3  # all accesses retired


class SoaStreams:
    """The run-time state of a kernel's streams, as flat arrays.

    The accesses are the :class:`~repro.gpu.warp.StreamSet`'s own
    stores, adopted without a copy: ``pages_flat`` / ``writes_flat`` are
    its int32 page ids and store flags, and ``start``/``end`` delimit
    each stream's span.  What is added per stream is ``pos``, the
    absolute cursor of its next access, and the scheduler state.  A
    stream without stores has an all-False span, which makes the
    permission check ``where(writes, write_ok, read_ok)`` degenerate to
    ``read_ok``.  ``max_page`` (``-1`` for no accesses) is what an
    access mask and the uTLB cells must cover.
    """

    def __init__(self, streams: StreamSet) -> None:
        self.streams = streams
        n = self.n = len(streams)
        self.total = streams.total
        self.start = streams.start
        self.end = streams.end
        self.stream_ids = np.ascontiguousarray(streams.ids)
        self.flops = np.ascontiguousarray(streams.flops)
        self.pos = streams.start.copy()
        self.state = np.full(n, PENDING, dtype=np.int8)
        self.sm_id = np.full(n, -1, dtype=np.int64)
        self.max_page = int(streams.pages.max()) if self.total else -1

    @property
    def pages_flat(self) -> np.ndarray:
        """Every stream's page ids, concatenated (int32)."""
        return self.streams.pages

    @property
    def writes_flat(self) -> np.ndarray:
        """Every stream's writes mask, concatenated."""
        return self.streams.writes

    def bind(
        self, ring: tuple[np.ndarray, ...], n_gpcs: int, sms_per_gpc: int, n_work: int
    ) -> ckernel.PhaseKernel:
        """The phase kernel bound to these streams and a fault buffer's
        ``ring``, for at most ``n_work`` runnable streams a phase."""
        return ckernel.PhaseKernel(
            pages=self.pages_flat,
            writes=self.writes_flat,
            end=self.end,
            pos=self.pos,
            state=self.state,
            sm=self.sm_id,
            flops=self.flops,
            ids=self.stream_ids,
            ring=ring,
            n_gpcs=n_gpcs,
            sms_per_gpc=sms_per_gpc,
            n_work=n_work,
        )


def span_indices(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` for each (start, stop) pair.

    Used to gather every retired access's flat index in one shot (for
    access counters and remote-traffic accounting) without a Python loop
    over streams.
    """
    lens = stops - starts
    nz = lens > 0
    if not nz.any():
        return np.empty(0, dtype=np.int64)
    s = starts[nz]
    ls = lens[nz]
    cs = np.cumsum(ls)
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), cs[:-1]))
    return np.arange(cs[-1], dtype=np.int64) + np.repeat(s - offsets, ls)


class SoaBlockScheduler:
    """Dispatches a kernel's streams onto SMs with bounded occupancy.

    Section IV-B (Fig. 7, "regular" pattern): *"the GPU scheduler will
    prefer lower-numbered blocks during access, but there is no fixed
    ordering due to the nondeterminism of the GPU parallelism."*  Streams
    therefore dispatch in an order that is mostly ascending with seeded
    local jitter, at most ``max_active`` are resident on SMs at once
    (occupancy limit), SM ids are assigned round-robin, and retired
    streams are backfilled.

    The runnable set is kept incrementally: the phase kernel marks
    completions and stalls in ``soa.state`` and the device reports their
    counts (:meth:`note_marked`), the active array is compacted only
    when something finished, and the kernel picks the runnable streams
    out of it (:meth:`runnable`).
    """

    def __init__(
        self,
        streams: StreamSet,
        rng: SimRng,
        max_active: int = 2048,
        n_sms: int = 80,
        jitter: float = 0.08,
    ) -> None:
        if max_active <= 0:
            raise SimulationError(f"max_active must be positive, got {max_active}")
        if n_sms <= 0:
            raise SimulationError(f"n_sms must be positive, got {n_sms}")
        self.soa = SoaStreams(streams)
        self.max_active = max_active
        self.n_sms = n_sms
        # the reorder window is physical (bounded by how many blocks are
        # in flight), so it scales with occupancy rather than grid size
        self._dispatch_order = rng.jitter_order(
            self.soa.n, window=max(8.0, jitter * 4 * max_active)
        )
        self._next_dispatch = 0
        self._active = np.empty(0, dtype=np.int64)
        self._dispatch_counter = 0
        self._n_done_active = 0  # DONE entries awaiting compaction
        self._n_stalled = 0
        self._n_done_total = 0

    # -- dispatch -----------------------------------------------------------
    def refill(self) -> int:
        """Dispatch pending streams up to the occupancy limit."""
        soa = self.soa
        if self._n_done_active:
            self._active = self._active[soa.state[self._active] != DONE]
            self._n_done_active = 0
        dispatched = 0
        need = self.max_active - self._active.size
        order = self._dispatch_order
        while need > 0 and self._next_dispatch < order.size:
            cand = order[self._next_dispatch : self._next_dispatch + need]
            self._next_dispatch += cand.size
            pending = cand[soa.state[cand] == PENDING]
            if pending.size:
                soa.state[pending] = RUNNABLE
                soa.sm_id[pending] = (
                    self._dispatch_counter + np.arange(pending.size)
                ) % self.n_sms
                self._dispatch_counter += int(pending.size)
                self._active = np.concatenate((self._active, pending))
                dispatched += int(pending.size)
                need -= int(pending.size)
        return dispatched

    # -- device feedback ----------------------------------------------------
    def note_marked(self, n_done: int, n_stalled: int) -> None:
        """Count streams a phase marked DONE and STALLED in ``soa.state``."""
        self._n_done_active += n_done
        self._n_done_total += n_done
        self._n_stalled += n_stalled

    # -- queries ------------------------------------------------------------
    def runnable(self) -> tuple[np.ndarray, int]:
        """The active streams in dispatch order, and how many of them are
        RUNNABLE; after :meth:`refill` the others are all STALLED."""
        return self._active, self._active.size - self._n_stalled

    def has_stalled(self) -> bool:
        return self._n_stalled > 0

    def all_done(self) -> bool:
        return (
            self._next_dispatch >= self._dispatch_order.size
            and self._n_done_total == self.soa.n
        )

    def wake_all_stalled(self) -> int:
        """Deliver a replay notification: every stalled warp retries.

        Replays are broadcast - "the replay will cause all faulting warps
        to resume, even if the faults are not satisfied" (Section III-E);
        a retried access whose page is still missing faults again (the
        paper's duplicate-fault mechanism).  Returns the number woken.
        """
        if self._n_stalled == 0:
            return 0
        soa = self.soa
        act = self._active
        ids = act[soa.state[act] == STALLED]
        soa.state[ids] = RUNNABLE
        self._n_stalled = 0
        return int(ids.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = self._active.size - self._n_done_active
        return (
            f"SoaBlockScheduler(done={self._n_done_total}/{self.soa.n}, active={active})"
        )
