"""Unit tests for the hardware fault buffer."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from tests.faultbuffer import pop_ready, snapshot_pages, try_push


def entry(page: int, t: int = 0, stream: int = 0) -> FaultEntry:
    return FaultEntry(
        page=page, is_write=False, timestamp_ns=t, gpc_id=0, utlb_id=0, stream_id=stream
    )


class TestCapacity:
    def test_push_until_full(self):
        buf = FaultBuffer(capacity=2)
        assert try_push(buf, entry(1))
        assert try_push(buf, entry(2))
        assert not try_push(buf, entry(3))
        assert buf.total_dropped == 1
        assert len(buf) == 2

    def test_high_watermark(self):
        buf = FaultBuffer(capacity=4)
        for p in range(3):
            try_push(buf, entry(p))
        pop_ready(buf, 10**9)
        assert buf.high_watermark == 3

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultBuffer(capacity=0)


class TestReadySemantics:
    def test_fifo_order(self):
        buf = FaultBuffer(capacity=8, ready_delay_ns=0)
        for p in (5, 3, 9):
            try_push(buf, entry(p))
        pages = [pop_ready(buf, 0)[0].page for _ in range(3)]
        assert pages == [5, 3, 9]

    def test_entry_not_ready_requires_polls(self):
        buf = FaultBuffer(capacity=8, ready_delay_ns=1000)
        try_push(buf, entry(1, t=100))
        popped, polls = pop_ready(buf, now_ns=100)  # ready at 1100
        assert popped.page == 1
        assert polls >= 1

    def test_ready_entry_needs_no_polls(self):
        buf = FaultBuffer(capacity=8, ready_delay_ns=1000)
        try_push(buf, entry(1, t=0))
        _, polls = pop_ready(buf, now_ns=5000)
        assert polls == 0

    def test_pop_empty(self):
        buf = FaultBuffer(capacity=8)
        assert pop_ready(buf, 0) == (None, 0)


class TestFlush:
    def test_flush_empties_and_counts(self):
        buf = FaultBuffer(capacity=8)
        for p in range(5):
            try_push(buf, entry(p))
        assert buf.flush() == 5
        assert len(buf) == 0
        assert buf.total_flushed == 5

    def test_push_after_flush(self):
        buf = FaultBuffer(capacity=2)
        try_push(buf, entry(1))
        try_push(buf, entry(2))
        buf.flush()
        assert try_push(buf, entry(3))

    def test_snapshot_pages(self):
        buf = FaultBuffer(capacity=8)
        try_push(buf, entry(7))
        try_push(buf, entry(7))  # duplicates are stored faithfully
        assert snapshot_pages(buf) == [7, 7]


class TestEntryShape:
    def test_entries_carry_no_thread_id(self):
        """Fault-source erasure: the entry has GPC/uTLB but the stock
        fields expose no thread identity (Section IV-A)."""
        e = entry(1)
        public = {f for f in e.__dataclass_fields__}
        assert "thread_id" not in public
        assert "pc" not in public
        assert {"gpc_id", "utlb_id"} <= public
