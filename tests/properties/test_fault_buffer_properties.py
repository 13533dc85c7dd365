"""Property-based tests for the fault buffer: FIFO, capacity, accounting,
the array push against the per-entry push it batches, and the array
drain against the per-entry poll-and-pop loop (``tests/faultbuffer.py``)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from tests.faultbuffer import entry_at, pop_ready, snapshot_pages, try_push


def entry(page):
    return FaultEntry(
        page=page, is_write=False, timestamp_ns=0, gpc_id=0, utlb_id=0, stream_id=0
    )


ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1000)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("flush"), st.none()),
    ),
    min_size=1,
    max_size=150,
)

capacities = st.integers(min_value=1, max_value=32)


@given(ops, capacities)
@settings(max_examples=200, deadline=None)
def test_accounting_identity(sequence, capacity):
    """enqueued == popped + flushed + still-queued, drops separate."""
    buf = FaultBuffer(capacity=capacity, ready_delay_ns=0)
    popped = 0
    for op, page in sequence:
        if op == "push":
            try_push(buf, entry(page))
        elif op == "pop":
            e, _ = pop_ready(buf, 10**9)
            popped += e is not None
        else:
            buf.flush()
    assert buf.total_enqueued == popped + buf.total_flushed + len(buf)
    assert len(buf) <= capacity
    assert buf.high_watermark <= capacity


@given(ops, capacities)
@settings(max_examples=150, deadline=None)
def test_fifo_order_preserved(sequence, capacity):
    buf = FaultBuffer(capacity=capacity, ready_delay_ns=0)
    model: list[int] = []
    for op, page in sequence:
        if op == "push":
            if try_push(buf, entry(page)):
                model.append(page)
        elif op == "pop":
            e, _ = pop_ready(buf, 10**9)
            if model:
                assert e.page == model.pop(0)
            else:
                assert e is None
        else:
            buf.flush()
            model.clear()
    assert snapshot_pages(buf) == model


# -- array push against the per-entry push -----------------------------------

FIELDS = ("_page", "_write", "_ts", "_gpc", "_utlb", "_stream", "_sm")


def ring_at(capacity: int, head: int, size: int) -> FaultBuffer:
    """A buffer whose ring starts at ``head`` and holds ``size`` records."""
    buf = FaultBuffer(capacity=capacity, ready_delay_ns=100)
    for page in range(head):
        buf.push_fields(page, False, 0, 0, 0, 0)
    buf.flush()
    for page in range(size):
        buf.push_fields(1000 + page, page % 2 == 0, 5, 1, 1, page, page)
    assert (buf._head, len(buf)) == (head, size)
    return buf


@st.composite
def ring_and_batch(draw):
    capacity = draw(st.integers(min_value=1, max_value=32))
    head = draw(st.integers(min_value=0, max_value=capacity - 1))
    size = draw(st.integers(min_value=0, max_value=capacity))
    free = capacity - size
    # a batch that exactly fills the buffer is drawn as often as any other
    n = draw(st.one_of(st.just(free), st.integers(min_value=0, max_value=free)))
    field = st.integers(0, 10**6)
    # (page, is_write, gpc, utlb, stream, sm) per record
    row = st.tuples(field, st.booleans(), field, field, field, field)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return capacity, head, size, rows, draw(st.integers(0, 10**9))


def _same_ring(a: FaultBuffer, b: FaultBuffer) -> None:
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a._head, len(a), a.free_slots) == (b._head, len(b), b.free_slots)
    for counter in ("total_enqueued", "total_dropped", "total_flushed", "high_watermark"):
        assert getattr(a, counter) == getattr(b, counter), counter


def counting_rows(n: int) -> list[tuple]:
    return [(i, i % 2 == 0, i, i, i, i) for i in range(n)]


@given(ring_and_batch())
@example((8, 6, 1, counting_rows(7), 0))  # wraps past the end and fills the ring
@example((8, 5, 0, counting_rows(3), 0))  # ends exactly at the last slot
@settings(max_examples=300, deadline=None)
def test_push_arrays_matches_push_fields_loop(case):
    capacity, head, size, rows, now = case
    batched, looped = ring_at(capacity, head, size), ring_at(capacity, head, size)
    pages, writes, gpcs, utlbs, streams, sms = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    n = batched.push_arrays(pages, writes.astype(bool), now, gpcs, utlbs, streams, sms)
    assert n == len(rows)
    for page, write, gpc, utlb, stream, sm in rows:
        assert looped.push_fields(page, write, now, gpc, utlb, stream, sm)
    _same_ring(batched, looped)
    got = batched.drain_arrays(now, capacity)
    want = looped.drain_arrays(now, capacity)
    if want is None:
        assert got is None
        return
    for a, b in zip(got[:-1], want[:-1]):
        assert np.array_equal(a, b)
    assert got[-1] == want[-1]  # polls
    _same_ring(batched, looped)


@given(
    capacity=st.integers(min_value=1, max_value=32),
    head=st.integers(min_value=0, max_value=31),
    size=st.integers(min_value=0, max_value=32),
    extra=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_push_arrays_rejects_a_batch_past_free_slots(capacity, head, size, extra):
    head, size = head % capacity, min(size, capacity)
    buf, untouched = ring_at(capacity, head, size), ring_at(capacity, head, size)
    n = buf.free_slots + extra
    ids = np.arange(n, dtype=np.int64)
    with pytest.raises(ConfigurationError, match="free slots"):
        buf.push_arrays(ids, np.zeros(n, dtype=bool), 0, ids, ids, ids, ids)
    _same_ring(buf, untouched)


# -- array drain against the per-entry poll-and-pop loop ----------------------


@st.composite
def queued_batch(draw):
    capacity = draw(st.integers(min_value=1, max_value=32))
    head = draw(st.integers(min_value=0, max_value=capacity - 1))
    delay = draw(st.sampled_from([0, 1, 100, 1500]))
    stamps = draw(st.lists(st.integers(0, 5000), max_size=capacity))
    now = draw(st.integers(0, 7000))
    max_entries = draw(st.integers(min_value=1, max_value=40))
    return capacity, head, delay, stamps, now, max_entries, draw(st.booleans())


def _queued(capacity, head, delay, stamps) -> FaultBuffer:
    buf = FaultBuffer(capacity=capacity, ready_delay_ns=delay)
    for page in range(head):
        buf.push_fields(page, False, 0, 0, 0, 0)
    buf.flush()
    for i, stamp in enumerate(stamps):
        buf.push_fields(100 + i, i % 3 == 0, stamp, i % 4, i % 5, i, i % 7)
    return buf


def pop_loop(buf: FaultBuffer, now: int, max_entries: int, stop_at_not_ready: bool):
    """The per-entry batch: pop while entries remain and the batch has
    room; with ``stop_at_not_ready``, close before any unready entry
    after the first."""
    entries, polls = [], 0
    while len(buf) and len(entries) < max_entries:
        head = entry_at(buf, buf._head)
        if stop_at_not_ready and entries and head.timestamp_ns + buf.ready_delay_ns > now:
            break
        entry, n = pop_ready(buf, now)
        entries.append(entry)
        polls += n
    return entries, polls


@given(queued_batch())
@settings(max_examples=300, deadline=None)
def test_drain_arrays_matches_pop_ready_loop(case):
    capacity, head, delay, stamps, now, max_entries, stop = case
    drained, looped = _queued(capacity, head, delay, stamps), _queued(capacity, head, delay, stamps)
    out = drained.drain_arrays(now, max_entries, stop_at_not_ready=stop)
    entries, polls = pop_loop(looped, now, max_entries, stop)
    if not entries:
        assert out is None
        return
    *fields, got_polls = out
    names = ("page", "is_write", "timestamp_ns", "gpc_id", "utlb_id", "stream_id", "sm_id")
    for name, values in zip(names, fields):
        assert values.tolist() == [getattr(e, name) for e in entries], name
    assert got_polls == polls
    assert (drained._head, len(drained)) == (looped._head, len(looped))
