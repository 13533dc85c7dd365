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
field arrays indexed by a head/size ring.  The GPU pushes a phase's
records as field arrays (:meth:`FaultBuffer.push_arrays`, the batch form
of :meth:`FaultBuffer.push_fields`); the driver drains whole batches as
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
    def push_fields(
        self,
        page: int,
        is_write: bool,
        timestamp_ns: int,
        gpc_id: int,
        utlb_id: int,
        stream_id: int,
        sm_id: int = -1,
    ) -> bool:
        """Enqueue one fault record; returns False (drop) when full.

        A dropped fault is not lost work: the stalled warp re-raises it
        after the next replay, exactly as real hardware behaves under
        fault-buffer pressure.
        """
        if self._size >= self.capacity:
            self.total_dropped += 1
            return False
        i = self._head + self._size
        if i >= self.capacity:
            i -= self.capacity
        self._page[i] = page
        self._write[i] = is_write
        self._ts[i] = timestamp_ns
        self._gpc[i] = gpc_id
        self._utlb[i] = utlb_id
        self._stream[i] = stream_id
        self._sm[i] = sm_id
        self._size += 1
        self.total_enqueued += 1
        if self._size > self.high_watermark:
            self.high_watermark = self._size
        return True

    def push_arrays(
        self,
        pages: np.ndarray,
        writes: np.ndarray,
        timestamp_ns: int,
        gpcs: np.ndarray,
        utlbs: np.ndarray,
        streams: np.ndarray,
        sms: np.ndarray,
    ) -> int:
        """Enqueue a batch of fault records sharing one timestamp.

        The caller guarantees the batch fits (``len(pages) <=``
        :attr:`free_slots`) - capacity drops are resolved *before* the
        write by :meth:`~repro.gpu.tlb.UTlbArray.raise_batch` and
        reported through :meth:`count_dropped`.  Semantically identical
        to a :meth:`push_fields` loop, minus the per-entry Python calls.
        """
        n = int(pages.size)
        if n == 0:
            return 0
        if n > self.free_slots:
            raise ConfigurationError(
                f"batch of {n} fault records exceeds {self.free_slots} free slots"
            )
        tail = self._head + self._size
        if tail >= self.capacity:
            tail -= self.capacity
        idx = tail + np.arange(n, dtype=np.int64)
        if tail + n > self.capacity:
            idx[idx >= self.capacity] -= self.capacity
        self._page[idx] = pages
        self._write[idx] = writes
        self._ts[idx] = timestamp_ns
        self._gpc[idx] = gpcs
        self._utlb[idx] = utlbs
        self._stream[idx] = streams
        self._sm[idx] = sms
        self._size += n
        self.total_enqueued += n
        if self._size > self.high_watermark:
            self.high_watermark = self._size
        return n

    def count_dropped(self, n: int) -> None:
        """Account capacity drops resolved outside :meth:`push_fields`."""
        self.total_dropped += int(n)

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
