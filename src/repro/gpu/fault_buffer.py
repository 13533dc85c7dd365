"""The hardware fault buffer and fault-pointer queue.

Section III-C, following NVIDIA's open-gpu documentation: *"the driver
uses a circular device-side queue to store a fault pointer when a fault
occurs.  The host can read these pointers, which subsequently point to
locations in the global GPU fault buffer that contain the full fault
information."*  Entries may not be immediately ready due to asynchrony,
forcing the driver to poll the "ready" field.

The simulator models:

* bounded capacity - when the buffer fills, further faulting warps simply
  remain stalled and re-fault after the next replay (hardware drops are
  counted, never lost: the warp still holds its access),
* per-entry ready times - an entry enqueued at time *t* becomes readable
  at *t + ready_delay*, producing the polling cost the paper attributes
  to pre-processing,
* flushes - the batch-flush replay policy empties the buffer remotely,
* duplicate entries - distinct uTLBs (or replays with outstanding
  faults) may enqueue the same page repeatedly; the buffer faithfully
  stores duplicates because deduplication is the *driver's* job.

The storage is literally the circular buffer the docs describe: parallel
field arrays indexed by a head/size ring.  The GPU phase kernel
(:mod:`repro.gpu.ckernel`) writes a phase's records straight into those
arrays (:attr:`FaultBuffer.ring`) and the buffer takes them in
(:meth:`FaultBuffer.note_pushed`); the driver drains whole batches as
field arrays (:meth:`FaultBuffer.drain_arrays`) so pre-processing never
materializes per-entry objects.  :class:`FaultEntry` is the per-entry
view of one record (:attr:`repro.core.batch.FaultBatch.entries`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultEntry:
    """One fault record as the hardware reports it.

    Note what is *absent*: no SM id, no thread id, no PC - the driver
    "lacks sufficient information for correlating faults with their
    generating GPU core/thread" (Section IV-A).  The GPC and uTLB ids are
    present (Section VI-B says tracing the originating GPC/uTLB is
    possible); the stream id is simulator-internal ground truth used only
    by the what-if origin-prefetcher extension and by trace analysis,
    never by the stock driver policies.
    """

    page: int
    is_write: bool
    timestamp_ns: int
    gpc_id: int
    utlb_id: int
    stream_id: int  # ground truth, hidden from stock driver policies
    sm_id: int = -1  # what-if origin info (Section VI-B), ditto


class FaultBuffer:
    """Circular fault buffer + pointer queue with ready-flag semantics."""

    def __init__(self, capacity: int, ready_delay_ns: int = 1_500) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"fault buffer capacity must be > 0, got {capacity}")
        if ready_delay_ns < 0:
            raise ConfigurationError("ready_delay_ns must be >= 0")
        self.capacity = capacity
        self.ready_delay_ns = ready_delay_ns
        self._page = np.zeros(capacity, dtype=np.int64)
        self._write = np.zeros(capacity, dtype=bool)
        self._ts = np.zeros(capacity, dtype=np.int64)
        self._gpc = np.zeros(capacity, dtype=np.int64)
        self._utlb = np.zeros(capacity, dtype=np.int64)
        self._stream = np.zeros(capacity, dtype=np.int64)
        self._sm = np.zeros(capacity, dtype=np.int64)
        self._head = 0
        self._size = 0
        # lifetime statistics
        self.total_enqueued = 0
        self.total_dropped = 0
        self.total_flushed = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return self._size

    @property
    def free_slots(self) -> int:
        return self.capacity - self._size

    # -- producer side -------------------------------------------------------
    @property
    def head(self) -> int:
        """Ring slot of the oldest record."""
        return self._head

    @property
    def ring(self) -> tuple[np.ndarray, ...]:
        """The field arrays (page, write, timestamp, GPC, uTLB, stream,
        SM), one slot per entry: the GPU phase kernel writes a phase's
        records into them at the ring's tail, in visit order."""
        return (self._page, self._write, self._ts, self._gpc, self._utlb, self._stream, self._sm)

    def note_pushed(self, n_pushed: int, n_dropped: int) -> None:
        """Take in the ``n_pushed`` records just written at the tail, and
        count ``n_dropped`` pushes refused for want of room.

        A dropped fault is not lost work: the stalled warp re-raises it
        after the next replay, exactly as real hardware behaves under
        fault-buffer pressure.
        """
        self._size += n_pushed
        self.total_enqueued += n_pushed
        self.total_dropped += n_dropped
        if self._size > self.high_watermark:
            self.high_watermark = self._size

    # -- consumer side -------------------------------------------------------
    def _ring_indices(self, n: int) -> np.ndarray:
        idx = self._head + np.arange(n, dtype=np.int64)
        if self._head + n > self.capacity:
            idx[idx >= self.capacity] -= self.capacity
        return idx

    def drain_arrays(
        self,
        now_ns: int,
        max_entries: int,
        stop_at_not_ready: bool = False,
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]]:
        """Pop up to ``max_entries`` as parallel field arrays.

        Returns ``(pages, writes, timestamps, gpcs, utlbs, streams, sms,
        polls)`` or ``None`` when the buffer is empty.  The driver pops
        the head entry while its ready flag is clear, one poll per
        ``ready_delay_ns`` (at least one) until the entry is ready; every
        popped unready entry contributes its poll count.  With
        ``stop_at_not_ready`` the batch still takes the first entry
        (polling for it if needed - forward progress) but closes before
        any subsequent unready entry.  ``tests/faultbuffer.py`` states
        that rule per entry (``pop_ready``), and the property tests check
        this batch form against a loop of it at a fixed ``now_ns``.
        """
        n = min(self._size, max_entries)
        if n <= 0:
            return None
        idx = self._ring_indices(n)
        ts = self._ts[idx]
        ready_at = ts + self.ready_delay_ns
        if stop_at_not_ready and n > 1:
            unready_rest = ready_at[1:] > now_ns
            if unready_rest.any():
                n = int(unready_rest.argmax()) + 1
                idx = idx[:n]
                ts = ts[:n]
                ready_at = ready_at[:n]
        delta = ready_at - now_ns
        unready = delta > 0
        if unready.any():
            per_entry = np.maximum(1, -(-delta // max(self.ready_delay_ns, 1)))
            polls = int(per_entry[unready].sum())
        else:
            polls = 0
        out = (
            self._page[idx],
            self._write[idx],
            ts,
            self._gpc[idx],
            self._utlb[idx],
            self._stream[idx],
            self._sm[idx],
            polls,
        )
        self._head = (self._head + n) % self.capacity
        self._size -= n
        return out

    def flush(self) -> int:
        """Empty the buffer remotely (batch-flush policy); returns count."""
        n = self._size
        self._head = (self._head + n) % self.capacity
        self._size = 0
        self.total_flushed += n
        return n
