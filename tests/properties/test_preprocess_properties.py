"""Property-based tests for batch pre-processing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import FaultBatch
from repro.core.preprocess import preprocess_batch
from repro.gpu.fault_buffer import FaultEntry
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import back, make_resident

N_PAGES = 2048  # 4 VABlocks


def fresh_residency(resident_pages):
    space = AddressSpace()
    space.malloc_managed(N_PAGES * 4096)
    state = ResidencyState(space)
    resident_pages = np.asarray(sorted(resident_pages), dtype=np.int64)
    if resident_pages.size:
        back(state, *np.unique(resident_pages // 512).tolist())
        make_resident(state, resident_pages)
    return state


entries_strategy = st.lists(
    st.tuples(
        st.integers(0, N_PAGES - 1),  # page
        st.booleans(),  # write
        st.integers(0, 79),  # sm
    ),
    min_size=1,
    max_size=256,
)

resident_strategy = st.sets(st.integers(0, N_PAGES - 1), max_size=64)


def make_batch(raw):
    return FaultBatch(
        entries=[
            FaultEntry(
                page=p,
                is_write=w,
                timestamp_ns=0,
                gpc_id=0,
                utlb_id=0,
                stream_id=i,
                sm_id=sm,
            )
            for i, (p, w, sm) in enumerate(raw)
        ]
    )


@given(entries_strategy, resident_strategy)
@settings(max_examples=150, deadline=None)
def test_partition_identity(raw, resident):
    """read = unique-serviced + duplicates, always."""
    state = fresh_residency(resident)
    pre = preprocess_batch(make_batch(raw), state)
    assert pre.n_read == len(raw)
    assert pre.n_unique + pre.n_duplicate == pre.n_read
    assert int(pre.entry_duplicate.sum()) == pre.n_duplicate


@given(entries_strategy, resident_strategy)
@settings(max_examples=150, deadline=None)
def test_bins_cover_exactly_nonresident_unique_pages(raw, resident):
    state = fresh_residency(resident)
    pre = preprocess_batch(make_batch(raw), state)
    binned = np.concatenate([b.pages for b in pre.bins]) if pre.bins else np.empty(0)
    expected = {p for p, _, _ in raw} - set(resident)
    assert set(binned.tolist()) == expected
    assert len(set(binned.tolist())) == binned.size  # no duplicates


@given(entries_strategy, resident_strategy)
@settings(max_examples=100, deadline=None)
def test_bins_sorted_and_homogeneous(raw, resident):
    state = fresh_residency(resident)
    pre = preprocess_batch(make_batch(raw), state)
    vb_order = [b.vablock_id for b in pre.bins]
    assert vb_order == sorted(vb_order)
    for b in pre.bins:
        assert (b.pages // 512 == b.vablock_id).all()
        assert (np.diff(b.pages) > 0).all()
        assert b.writes.shape == b.pages.shape
        assert b.sm_ids.shape == b.pages.shape


@given(entries_strategy)
@settings(max_examples=100, deadline=None)
def test_write_intent_is_or_of_duplicates(raw):
    state = fresh_residency(set())
    pre = preprocess_batch(make_batch(raw), state)
    intent = {}
    for p, w, _ in raw:
        intent[p] = intent.get(p, False) or w
    for b in pre.bins:
        for page, write in zip(b.pages, b.writes):
            assert bool(write) == intent[int(page)]
