"""Unit tests for page-granular host migration in ResidencyState."""

import numpy as np
import pytest

from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import make_resident


@pytest.fixture
def state():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)
    s = ResidencyState(space)
    s.back_vablock(0)
    return s


class TestMigrateToHost:
    def test_moves_only_resident_pages(self, state):
        make_resident(state, np.array([1, 2, 3]))
        moved, dirty = state.migrate_to_host(np.array([2, 3, 4, 5]))
        assert moved == 2
        assert dirty == 0
        assert state.resident[1]
        assert not state.resident[[2, 3]].any()

    def test_reports_dirty_pages(self, state):
        make_resident(state, np.array([1, 2]), writing=np.array([True, False]))
        moved, dirty = state.migrate_to_host(np.array([1, 2]))
        assert (moved, dirty) == (2, 1)
        assert not state.dirty[[1, 2]].any()

    def test_backing_preserved(self, state):
        make_resident(state, np.array([0]))
        state.migrate_to_host(np.array([0]))
        assert state.backed[0]
        assert state.resident_count[0] == 0

    def test_counts_stay_consistent(self, state):
        make_resident(state, np.arange(10))
        state.migrate_to_host(np.arange(4))
        state.check_invariants()
        assert state.resident_count[0] == 6

    def test_empty_and_all_host_cases(self, state):
        assert state.migrate_to_host(np.empty(0, dtype=np.int64)) == (0, 0)
        assert state.migrate_to_host(np.array([9])) == (0, 0)

    def test_round_trip(self, state):
        make_resident(state, np.array([7]))
        state.migrate_to_host(np.array([7]))
        assert make_resident(state, np.array([7])) == 1
        state.check_invariants()
