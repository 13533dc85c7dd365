"""Unit tests for batch assembly and pre-processing."""

import numpy as np
import pytest

from repro.core.batch import assemble_batch
from repro.core.preprocess import preprocess_batch
from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.faultbuffer import pop_ready, try_push
from tests.pagelists import back, make_resident


def entry(page, write=False, t=0, stream=0, sm=0):
    return FaultEntry(
        page=page,
        is_write=write,
        timestamp_ns=t,
        gpc_id=0,
        utlb_id=0,
        stream_id=stream,
        sm_id=sm,
    )


@pytest.fixture
def residency():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)  # 2 VABlocks
    return ResidencyState(space)


class TestAssembleBatch:
    def test_drains_up_to_batch_size(self):
        buf = FaultBuffer(capacity=100, ready_delay_ns=0)
        for p in range(10):
            try_push(buf, entry(p))
        batch = assemble_batch(buf, now_ns=10**6, batch_size=4)
        assert len(batch) == 4
        assert len(buf) == 6

    def test_stops_at_empty_queue(self):
        buf = FaultBuffer(capacity=100, ready_delay_ns=0)
        try_push(buf, entry(1))
        batch = assemble_batch(buf, now_ns=10**6, batch_size=256)
        assert len(batch) == 1

    def test_accumulates_polls(self):
        bufs = [FaultBuffer(capacity=100, ready_delay_ns=1000) for _ in range(2)]
        for buf in bufs:
            for p in range(3):
                try_push(buf, entry(p, t=p * 400))
        batch = assemble_batch(bufs[0], now_ns=0, batch_size=3)
        assert batch.polls >= 3
        # the per-entry poll rule, entry by entry
        assert batch.polls == sum(pop_ready(bufs[1], 0)[1] for _ in range(3))

    def test_pages_accessor(self):
        buf = FaultBuffer(capacity=100, ready_delay_ns=0)
        try_push(buf, entry(9))
        batch = assemble_batch(buf, 10**6, 10)
        assert batch.pages == [9]

    def test_stop_at_not_ready_closes_batch_early(self):
        buf = FaultBuffer(capacity=100, ready_delay_ns=1000)
        try_push(buf, entry(1, t=0))  # ready at 1000
        try_push(buf, entry(2, t=0))  # ready at 1000
        try_push(buf, entry(3, t=5000))  # ready at 6000
        batch = assemble_batch(buf, now_ns=2000, batch_size=10, stop_at_not_ready=True)
        assert batch.pages == [1, 2]
        assert batch.polls == 0
        assert len(buf) == 1  # unready entry left queued

    def test_stop_policy_still_makes_progress_when_nothing_ready(self):
        """An all-unready queue must not produce an empty batch forever:
        the first entry is polled for."""
        buf = FaultBuffer(capacity=100, ready_delay_ns=1000)
        try_push(buf, entry(1, t=5000))
        batch = assemble_batch(buf, now_ns=0, batch_size=10, stop_at_not_ready=True)
        assert batch.pages == [1]
        assert batch.polls >= 1


class TestPreprocess:
    def _batch(self, entries):
        from repro.core.batch import FaultBatch

        return FaultBatch(entries=entries)

    def test_bins_by_vablock_sorted(self, residency):
        batch = self._batch([entry(600), entry(5), entry(700), entry(1)])
        pre = preprocess_batch(batch, residency)
        assert [b.vablock_id for b in pre.bins] == [0, 1]
        assert pre.bins[0].pages.tolist() == [1, 5]
        assert pre.bins[1].pages.tolist() == [600, 700]

    def test_stale_duplicates_filtered(self, residency):
        back(residency, 0)
        make_resident(residency, np.array([5]))
        batch = self._batch([entry(5), entry(6)])
        pre = preprocess_batch(batch, residency)
        assert pre.n_duplicate == 1
        assert pre.n_unique == 1
        assert pre.bins[0].pages.tolist() == [6]

    def test_intra_batch_duplicates_collapse(self, residency):
        batch = self._batch([entry(7, stream=1), entry(7, stream=2)])
        pre = preprocess_batch(batch, residency)
        assert pre.n_duplicate == 1
        assert pre.bins[0].pages.tolist() == [7]
        # first occurrence's origin is kept
        assert pre.bins[0].stream_ids.tolist() == [1]

    def test_write_intent_ored_across_duplicates(self, residency):
        batch = self._batch([entry(7, write=False), entry(7, write=True)])
        pre = preprocess_batch(batch, residency)
        assert pre.bins[0].writes.tolist() == [True]

    def test_entry_duplicate_mask_alignment(self, residency):
        back(residency, 0)
        make_resident(residency, np.array([1]))
        batch = self._batch([entry(1), entry(2), entry(2), entry(3)])
        pre = preprocess_batch(batch, residency)
        assert pre.entry_duplicate.tolist() == [True, False, True, False]

    def test_empty_batch(self, residency):
        pre = preprocess_batch(self._batch([]), residency)
        assert pre.n_read == 0
        assert pre.bins == []

    def test_all_stale_batch(self, residency):
        back(residency, 0)
        make_resident(residency, np.array([1, 2]))
        pre = preprocess_batch(self._batch([entry(1), entry(2)]), residency)
        assert pre.n_duplicate == 2
        assert pre.bins == []

    def test_sm_ids_preserved(self, residency):
        batch = self._batch([entry(4, sm=13)])
        pre = preprocess_batch(batch, residency)
        assert pre.bins[0].sm_ids.tolist() == [13]
