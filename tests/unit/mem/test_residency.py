"""Unit tests for page residency bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import make_resident


@pytest.fixture
def state():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)  # 2 VABlocks, 1024 pages
    return ResidencyState(space)


class TestBacking:
    def test_back_vablock(self, state):
        state.back_vablock(0)
        assert state.backed[0]
        assert not state.backed[1]

    def test_double_back_rejected(self, state):
        state.back_vablock(0)
        with pytest.raises(SimulationError):
            state.back_vablock(0)

    def test_backed_vablocks_listing(self, state):
        state.back_vablock(1)
        assert state.backed_vablocks().tolist() == [1]


class TestMakeResident:
    def test_requires_backing(self, state):
        with pytest.raises(SimulationError):
            make_resident(state, np.array([0]))

    def test_marks_pages_and_counts(self, state):
        state.back_vablock(0)
        new = make_resident(state, np.array([0, 1, 5]))
        assert new == 3
        assert state.resident[[0, 1, 5]].all()
        assert state.resident_count[0] == 3

    def test_re_residency_counts_zero_new(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([3]))
        assert make_resident(state, np.array([3])) == 0
        assert state.resident_count[0] == 1

    def test_scalar_write_flag(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([1, 2]), writing=True)
        assert state.dirty[[1, 2]].all()

    def test_vector_write_flag(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([1, 2]), writing=np.array([True, False]))
        assert state.dirty[1] and not state.dirty[2]

    def test_empty_is_noop(self, state):
        assert make_resident(state, np.empty(0, dtype=np.int64)) == 0

    def test_mark_dirty_requires_residency(self, state):
        with pytest.raises(SimulationError):
            state.mark_dirty(np.array([0]))


class TestEviction:
    def test_evict_returns_resident_and_dirty(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([0, 1, 2]), writing=np.array([True, False, True]))
        evicted = state.evict_vablock(0)
        assert (evicted.n_resident, evicted.n_dirty) == (3, 2)
        assert np.flatnonzero(evicted.resident).tolist() == [0, 1, 2]
        assert np.flatnonzero(evicted.dirty).tolist() == [0, 2]

    def test_evict_clears_state(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([0, 1]), writing=True)
        state.evict_vablock(0)
        assert not state.resident[:512].any()
        assert not state.dirty[:512].any()
        assert not state.backed[0]
        assert state.resident_count[0] == 0
        assert state.evict_count[0] == 1

    def test_evict_unbacked_rejected(self, state):
        with pytest.raises(SimulationError):
            state.evict_vablock(0)

    def test_re_fault_after_evict(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([7]))
        state.evict_vablock(0)
        state.back_vablock(0)
        assert make_resident(state, np.array([7])) == 1

    def test_unpickled_state_takes_its_own_leaves(self, state):
        """A checkpoint restores arrays whose bool dtype is a fresh object:
        masks read from them are still leaf masks."""
        state.back_vablock(0)
        make_resident(state, np.array([3, 4]))
        restored = pickle.loads(pickle.dumps(state))
        evicted = restored.evict_vablock(0)
        restored.back_vablock(0)
        assert restored.make_resident(0, evicted.resident) == 2


class TestInvariants:
    def test_check_invariants_passes_on_consistent_state(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([1, 2, 3]), writing=True)
        state.check_invariants()

    def test_detects_count_desync(self, state):
        state.back_vablock(0)
        make_resident(state, np.array([1]))
        state.resident_count[0] = 5
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_detects_dirty_nonresident(self, state):
        state.dirty[9] = True
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_vablock_leaf_mask_is_view(self, state):
        state.back_vablock(1)
        make_resident(state, np.array([512]))
        mask = state.vablock_leaf_mask(1)
        assert mask[0]
        assert mask.sum() == 1
