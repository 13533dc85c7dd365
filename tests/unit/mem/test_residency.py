"""Unit tests for page residency bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import arrays, back, make_resident


@pytest.fixture
def state():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)  # 2 VABlocks, 1024 pages
    return ResidencyState(space)


class TestBacking:
    def test_back_vablock(self, state):
        back(state, 0)
        assert arrays(state).backed.tolist() == [True, False]

    def test_double_back_rejected(self, state):
        back(state, 0)
        with pytest.raises(SimulationError):
            back(state, 0)

    def test_backed_vablocks_listing(self, state):
        back(state, 1)
        assert state.backed_vablocks() == [1]


class TestMakeResident:
    def test_requires_backing(self, state):
        with pytest.raises(SimulationError):
            make_resident(state, np.array([0]))

    def test_marks_pages_and_counts(self, state):
        back(state, 0)
        new = make_resident(state, np.array([0, 1, 5]))
        assert new == 3
        assert arrays(state).resident[[0, 1, 5]].all()
        assert arrays(state).resident_count[0] == 3

    def test_re_residency_counts_zero_new(self, state):
        back(state, 0)
        make_resident(state, np.array([3]))
        assert make_resident(state, np.array([3])) == 0
        assert arrays(state).resident_count[0] == 1

    def test_scalar_write_flag(self, state):
        back(state, 0)
        make_resident(state, np.array([1, 2]), writing=True)
        assert arrays(state).dirty[[1, 2]].all()

    def test_vector_write_flag(self, state):
        back(state, 0)
        make_resident(state, np.array([1, 2]), writing=np.array([True, False]))
        dirty = arrays(state).dirty
        assert dirty[1] and not dirty[2]

    def test_empty_is_noop(self, state):
        assert make_resident(state, np.empty(0, dtype=np.int64)) == 0

    def test_mark_dirty_requires_residency(self, state):
        """Only leaves made resident go dirty: write intent outside the
        migrated leaves is ignored."""
        back(state, 0)
        assert state.make_resident(0, 0b01, writing=0b11) == 1
        assert state.blocks[0].dirty == 0b01
        state.check_invariants()


class TestEviction:
    def test_evict_returns_resident_and_dirty(self, state):
        back(state, 0)
        make_resident(state, np.array([0, 1, 2]), writing=np.array([True, False, True]))
        assert state.evict_vablock(0) == (0b111, 0b101)

    def test_evict_clears_state(self, state):
        back(state, 0)
        make_resident(state, np.array([0, 1]), writing=True)
        state.evict_vablock(0)
        after = arrays(state)
        assert not after.resident[:512].any()
        assert not after.dirty[:512].any()
        assert not after.read_ok[:512].any()
        assert not after.backed[0]
        assert after.resident_count[0] == 0
        assert after.evict_count[0] == 1

    def test_evict_unbacked_rejected(self, state):
        with pytest.raises(SimulationError):
            state.evict_vablock(0)

    def test_re_fault_after_evict(self, state):
        back(state, 0)
        make_resident(state, np.array([7]))
        state.evict_vablock(0)
        back(state, 0)
        assert make_resident(state, np.array([7])) == 1

    def test_unpickled_state_takes_its_own_leaves(self, state):
        """A checkpoint restores the blocks and the masks: the restored
        state evicts and re-migrates its own leaves and keeps its masks
        in step."""
        back(state, 0)
        make_resident(state, np.array([3, 4]))
        restored = pickle.loads(pickle.dumps(state))
        resident, _ = restored.evict_vablock(0)
        back(restored, 0)
        assert restored.make_resident(0, resident) == 2
        assert np.flatnonzero(restored.read_ok).tolist() == [3, 4]
        restored.check_invariants()


class TestInvariants:
    def test_check_invariants_passes_on_consistent_state(self, state):
        back(state, 0)
        make_resident(state, np.array([1, 2, 3]), writing=True)
        state.check_invariants()

    def test_detects_mask_desync(self, state):
        back(state, 0)
        make_resident(state, np.array([1]))
        state.read_ok[5] = True
        with pytest.raises(SimulationError, match="read_ok mask out of sync"):
            state.check_invariants()

    def test_detects_dirty_nonresident(self, state):
        state.blocks[0].dirty = 1 << 9
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_detects_leaves_outside_the_block(self, state):
        back(state, 0)
        state.blocks[0].resident = 1 << 512
        with pytest.raises(SimulationError, match="leaves outside VABlock 0"):
            state.check_invariants()

    def test_blocks_are_the_stored_state(self, state):
        """A transition on a stored block is the state change; the page
        masks follow when the touched blocks are synced."""
        back(state, 1)
        state.blocks[1].make_resident(1)
        assert arrays(state).resident_count.tolist() == [0, 1]
        assert not state.read_ok[512]
        state.sync_masks([state.blocks[1]])
        assert np.flatnonzero(state.read_ok).tolist() == [512]
