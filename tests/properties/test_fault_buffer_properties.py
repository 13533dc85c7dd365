"""Property-based tests for the fault buffer: FIFO, capacity, accounting,
and the array drain against the per-entry poll-and-pop loop
(``tests/faultbuffer.py``).  The GPU phase kernel's ring write is
checked against the per-entry push in
``tests/properties/test_reference_oracles.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from tests.faultbuffer import entry_at, pop_ready, push_fields, snapshot_pages, try_push


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
        push_fields(buf, page, False, 0, 0, 0, 0)
    buf.flush()
    for i, stamp in enumerate(stamps):
        push_fields(buf, 100 + i, i % 3 == 0, stamp, i % 4, i % 5, i, i % 7)
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
