"""Unit tests for page-granular host migration (``BlockLeaves.migrate_to_host``)."""

import numpy as np
import pytest

from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import arrays, back, make_resident, migrate_to_host


@pytest.fixture
def state():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)
    s = ResidencyState(space)
    back(s, 0)
    return s


class TestMigrateToHost:
    def test_moves_only_resident_pages(self, state):
        make_resident(state, np.array([1, 2, 3]))
        moved, dirty = migrate_to_host(state, np.array([2, 3, 4, 5]))
        assert moved == 2
        assert dirty == 0
        assert arrays(state).resident[1]
        assert not arrays(state).resident[[2, 3]].any()
        assert not state.read_ok[[2, 3]].any()

    def test_reports_dirty_pages(self, state):
        make_resident(state, np.array([1, 2]), writing=np.array([True, False]))
        moved, dirty = migrate_to_host(state, np.array([1, 2]))
        assert (moved, dirty) == (2, 1)
        assert not arrays(state).dirty[[1, 2]].any()

    def test_backing_preserved(self, state):
        make_resident(state, np.array([0]))
        migrate_to_host(state, np.array([0]))
        assert arrays(state).backed[0]
        assert arrays(state).resident_count[0] == 0

    def test_counts_stay_consistent(self, state):
        make_resident(state, np.arange(10))
        migrate_to_host(state, np.arange(4))
        state.check_invariants()
        assert arrays(state).resident_count[0] == 6

    def test_empty_and_all_host_cases(self, state):
        assert migrate_to_host(state, np.empty(0, dtype=np.int64)) == (0, 0)
        assert migrate_to_host(state, np.array([9])) == (0, 0)

    def test_round_trip(self, state):
        make_resident(state, np.array([7]))
        migrate_to_host(state, np.array([7]))
        assert make_resident(state, np.array([7])) == 1
        state.check_invariants()
