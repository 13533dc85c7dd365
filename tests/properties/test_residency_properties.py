"""Property-based tests for residency state under random op sequences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import mask_of
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import arrays, back, make_resident

N_VABLOCKS = 4
N_PAGES = N_VABLOCKS * 512


def fresh_state() -> ResidencyState:
    space = AddressSpace()
    space.malloc_managed(N_VABLOCKS * 2 * MiB)
    return ResidencyState(space)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("resident"),
            st.lists(
                st.integers(0, N_PAGES - 1), min_size=1, max_size=64, unique=True
            ),
            st.booleans(),
        ),
        st.tuples(st.just("evict"), st.integers(0, N_VABLOCKS - 1)),
    ),
    min_size=1,
    max_size=60,
)


@given(ops)
@settings(max_examples=120, deadline=None)
def test_invariants_hold_under_any_op_sequence(sequence):
    state = fresh_state()
    for op in sequence:
        if op[0] == "resident":
            _, pages, write = op
            pages = np.array(pages, dtype=np.int64)
            for vb in np.unique(pages // 512).tolist():
                if not state.blocks[vb].backed:
                    back(state, vb)
            make_resident(state, pages, writing=write)
        else:
            _, vb = op
            if state.blocks[vb].backed:
                state.evict_vablock(vb)
    state.check_invariants()


@given(ops)
@settings(max_examples=80, deadline=None)
def test_resident_count_equals_bitmap_popcount(sequence):
    state = fresh_state()
    for op in sequence:
        if op[0] == "resident":
            _, pages, write = op
            pages = np.array(pages, dtype=np.int64)
            for vb in np.unique(pages // 512).tolist():
                if not state.blocks[vb].backed:
                    back(state, vb)
            make_resident(state, pages, writing=write)
        elif state.blocks[op[1]].backed:
            state.evict_vablock(op[1])
    after = arrays(state)
    assert int(after.resident_count.sum()) == int(after.resident.sum())
    assert np.array_equal(after.resident_count, after.resident.reshape(-1, 512).sum(axis=1))


@given(
    st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=128, unique=True),
    st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=128, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_make_resident_is_idempotent_and_additive(first, second):
    state = fresh_state()
    back(state, *range(N_VABLOCKS))
    a = np.array(first, dtype=np.int64)
    b = np.array(second, dtype=np.int64)
    n1 = make_resident(state, a)
    n2 = make_resident(state, b)
    assert n1 == len(first)
    assert n2 == np.setdiff1d(b, a).size
    union = np.union1d(a, b)
    assert arrays(state).resident_count.sum() == union.size


@given(st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=128, unique=True))
@settings(max_examples=80, deadline=None)
def test_evict_drops_exactly_block_pages(pages):
    state = fresh_state()
    back(state, *range(N_VABLOCKS))
    pages = np.array(pages, dtype=np.int64)
    make_resident(state, pages, writing=True)
    in_block0 = int((pages < 512).sum())
    resident, dirty = state.evict_vablock(0)
    assert resident.bit_count() == in_block0
    assert dirty.bit_count() == in_block0  # all written
    assert np.array_equal(np.flatnonzero(mask_of(resident, 512)), np.sort(pages[pages < 512]))
    assert dirty == resident
    assert arrays(state).resident_count.sum() == pages.size - in_block0
    assert not state.read_ok[:512].any()
