"""Unit tests for permission/duplication/remote state in ResidencyState."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import (
    arrays,
    back,
    collapse_duplicates,
    drop_duplicates,
    make_resident,
    map_remote,
    migrate_to_host,
)


@pytest.fixture
def state():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)
    s = ResidencyState(space)
    back(s, 0, 1)
    return s


class TestPermissions:
    def test_default_migration_maps_writable(self, state):
        make_resident(state, np.array([1]))
        assert arrays(state).writable[1]
        assert state.write_ok[1]
        state.check_invariants()

    def test_read_only_mapping(self, state):
        make_resident(state, np.array([1]), writable=False)
        assert state.read_ok[1]
        assert not state.write_ok[1]
        state.check_invariants()

    def test_writing_through_read_only_rejected(self, state):
        with pytest.raises(SimulationError):
            make_resident(state, np.array([1]), writing=True, writable=False)


class TestDuplication:
    def test_duplicate_is_read_only(self, state):
        make_resident(state, np.array([2]), writable=False, duplicated=True)
        assert arrays(state).duplicated[2]
        assert state.read_ok[2]
        assert not state.write_ok[2]
        state.check_invariants()

    def test_duplicated_and_writable_rejected(self, state):
        with pytest.raises(SimulationError):
            make_resident(state, np.array([2]), writable=True, duplicated=True)

    def test_collapse_upgrades_and_dirties(self, state):
        make_resident(state, np.array([2, 3]), writable=False, duplicated=True)
        n = collapse_duplicates(state, np.array([2]))
        assert n == 1
        after = arrays(state)
        assert after.writable[2] and after.dirty[2] and not after.duplicated[2]
        assert after.duplicated[3]  # untouched
        state.check_invariants()

    def test_collapse_ignores_non_duplicated(self, state):
        make_resident(state, np.array([5]))
        assert collapse_duplicates(state, np.array([5, 9])) == 0

    def test_host_invalidation_drops_clean_copies(self, state):
        make_resident(state, np.array([2, 3]), writable=False, duplicated=True)
        n = drop_duplicates(state, np.array([2, 3, 4]))
        assert n == 2
        assert not arrays(state).resident[[2, 3]].any()
        assert arrays(state).resident_count[0] == 0
        state.check_invariants()

    def test_migrate_to_host_skips_duplicates(self, state):
        make_resident(state, np.array([2]), writable=False, duplicated=True)
        make_resident(state, np.array([3]))
        moved, dirty = migrate_to_host(state, np.array([2, 3]))
        assert moved == 1  # only the exclusive page
        assert arrays(state).resident[2] and arrays(state).duplicated[2]
        state.check_invariants()

    def test_eviction_clears_duplication_flags(self, state):
        make_resident(state, np.array([2]), writable=False, duplicated=True)
        state.evict_vablock(0)
        assert not arrays(state).duplicated[2]
        state.check_invariants()


class TestRemoteMapping:
    def test_remote_map_enables_access_without_residency(self, state):
        assert map_remote(state, np.array([7, 8])) == 2
        assert state.read_ok[[7, 8]].all()
        assert state.write_ok[[7, 8]].all()
        assert not arrays(state).resident[[7, 8]].any()
        assert arrays(state).resident_count.sum() == 0
        state.check_invariants()

    def test_remote_map_idempotent(self, state):
        map_remote(state, np.array([7]))
        assert map_remote(state, np.array([7])) == 0

    def test_remote_and_resident_exclusive(self, state):
        make_resident(state, np.array([7]))
        with pytest.raises(SimulationError):
            map_remote(state, np.array([7]))

    def test_migrating_remote_pages_rejected(self, state):
        map_remote(state, np.array([7]))
        with pytest.raises(SimulationError):
            make_resident(state, np.array([7]))

    def test_migrate_to_host_ignores_remote(self, state):
        map_remote(state, np.array([7]))
        assert migrate_to_host(state, np.array([7])) == (0, 0)
        assert state.remote_mapped[7]
