"""Per-entry access to a :class:`~repro.gpu.fault_buffer.FaultBuffer`.

The buffer's own interface is the batch form the GPU and the driver use:
the GPU phase kernel writes a phase's records into the ring's field
arrays, and they come out as field arrays through ``drain_arrays``.
Tests state set-ups and expectations one entry at a time; these helpers
do that on the same ring.  :func:`push_fields` is the per-entry push the
kernel's ring write is checked against, and :func:`pop_ready` the
per-entry statement of the driver's poll rule, the oracle that
``drain_arrays`` is checked against.
"""

from __future__ import annotations

from typing import Optional

from repro.gpu.fault_buffer import FaultBuffer, FaultEntry


def push_fields(
    buf: FaultBuffer,
    page: int,
    is_write: bool,
    timestamp_ns: int,
    gpc_id: int,
    utlb_id: int,
    stream_id: int,
    sm_id: int = -1,
) -> bool:
    """Enqueue one fault record at the ring's tail; returns False (a
    counted drop) when the buffer is full."""
    if len(buf) >= buf.capacity:
        buf.note_pushed(0, 1)
        return False
    i = (buf.head + len(buf)) % buf.capacity
    for field, value in zip(
        buf.ring, (page, is_write, timestamp_ns, gpc_id, utlb_id, stream_id, sm_id)
    ):
        field[i] = value
    buf.note_pushed(1, 0)
    return True


def try_push(buf: FaultBuffer, entry: FaultEntry) -> bool:
    """Enqueue ``entry``; returns False (drop) when the buffer is full."""
    return push_fields(
        buf,
        entry.page,
        entry.is_write,
        entry.timestamp_ns,
        entry.gpc_id,
        entry.utlb_id,
        entry.stream_id,
        entry.sm_id,
    )


def entry_at(buf: FaultBuffer, i: int) -> FaultEntry:
    """The record in ring slot ``i``."""
    return FaultEntry(
        page=int(buf._page[i]),
        is_write=bool(buf._write[i]),
        timestamp_ns=int(buf._ts[i]),
        gpc_id=int(buf._gpc[i]),
        utlb_id=int(buf._utlb[i]),
        stream_id=int(buf._stream[i]),
        sm_id=int(buf._sm[i]),
    )


def pop_ready(buf: FaultBuffer, now_ns: int) -> tuple[Optional[FaultEntry], int]:
    """Pop the head entry, polling until its ready flag is set.

    Returns ``(entry, polls)`` where ``polls`` is the number of poll
    iterations the driver spins before the entry is readable (0 when it
    already is): ``ceil((ready_at - now) / ready_delay_ns)``, at least
    one.  Returns ``(None, 0)`` on an empty buffer.
    """
    if not len(buf):
        return None, 0
    entry = entry_at(buf, buf._head)
    ready_at = entry.timestamp_ns + buf.ready_delay_ns
    polls = 0
    if now_ns < ready_at:
        delta = ready_at - now_ns
        polls = max(1, -(-delta // max(buf.ready_delay_ns, 1)))
    buf._head = (buf._head + 1) % buf.capacity
    buf._size -= 1
    return entry, polls


def snapshot_pages(buf: FaultBuffer) -> list[int]:
    """Pages of all queued entries, in order."""
    return buf._page[buf._ring_indices(len(buf))].tolist()
