"""Unit tests for page-table bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.errors import AddressError, SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.page_table import MappingStats, PageTable
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import back, make_resident, map_pages, mapped, unmap_pages


@pytest.fixture
def space():
    s = AddressSpace()
    s.malloc_managed(2 * MiB)
    return s


@pytest.fixture
def table(space):
    return PageTable(space, side="gpu")


class TestMapping:
    def test_map_counts_new(self, table):
        assert map_pages(table, np.array([0, 1, 2])) == 3
        assert mapped(table).sum() == 3

    def test_remap_counts_pte_writes_but_not_new(self, table):
        map_pages(table, np.array([0]))
        assert map_pages(table, np.array([0, 1])) == 1
        assert table.stats.pages_mapped == 3  # PTE writes

    def test_unmap(self, table):
        map_pages(table, np.array([0, 1]))
        assert unmap_pages(table, np.array([0])) == 1
        assert mapped(table).sum() == 1

    def test_unmap_unmapped_rejected(self, table):
        with pytest.raises(SimulationError):
            unmap_pages(table, np.array([0]))

    def test_out_of_space_rejected(self, table):
        with pytest.raises(IndexError):
            table.map(1, 1)  # the space has one VABlock

    def test_empty_ops_are_noops(self, table):
        assert table.map(0, 0) == 0
        assert table.unmap(0, 0) == 0
        assert table.stats == MappingStats()

    def test_negative_page_rejected(self, table):
        with pytest.raises(AddressError):
            table.map(0, -1)
        assert table.stats == MappingStats()


class TestSpans:
    """One VABlock's page span as a leaf bitset (bit i is page start + i)."""

    def test_map_span_counts_new_and_pte_writes(self, table):
        assert table.map(0, 0b011) == 2
        assert table.map(0, 0b110) == 1
        assert table.stats.pages_mapped == 4
        assert np.flatnonzero(mapped(table)).tolist() == [0, 1, 2]

    def test_unmap_span(self, table):
        table.map(0, 0b111000)
        assert table.unmap(0, 0b101000) == 2
        assert np.flatnonzero(mapped(table)).tolist() == [4]
        assert table.stats.pages_unmapped == 2

    def test_unmap_span_of_unmapped_rejected(self, table):
        table.map(0, 1 << 3)
        with pytest.raises(SimulationError):
            table.unmap(0, 0b11000)
        assert table.mapped == [1 << 3]  # nothing changed

    def test_span_outside_table_rejected(self, table):
        with pytest.raises(AddressError):
            table.map(0, 1 << 512)  # the 513th leaf of a 512-page block
        assert table.mapped == [0]

    def test_unpickled_mask_is_a_leaf_mask(self, table):
        table.map(0, 0b11)
        restored = pickle.loads(pickle.dumps(table))
        assert restored.unmap(0, 0b11) == 2
        assert restored.mapped == [0]
        assert restored.stats == MappingStats(pages_mapped=2, pages_unmapped=2)


class TestBarriers:
    def test_invalidate_bumps_epoch(self, table):
        table.invalidate_tlb()
        table.invalidate_tlb()
        assert table.stats.tlb_invalidates == 2

    def test_membar_counted(self, table):
        table.membar()
        assert table.stats.membars == 1


class TestConsistency:
    def test_residency_check_passes(self, table, space):
        residency = ResidencyState(space)
        back(residency, 0)
        make_resident(residency, np.array([3, 4]))
        map_pages(table, np.array([3, 4]))
        table.check_mapped(residency.expected_gpu_mapped())

    def test_residency_check_detects_divergence(self, table, space):
        map_pages(table, np.array([3]))
        with pytest.raises(SimulationError, match="out of sync on 1 pages.*\\[3\\]"):
            table.check_mapped(ResidencyState(space).expected_gpu_mapped())

    def test_host_side_cannot_use_gpu_check(self, space):
        """The host table starts with every page mapped: it passes the
        host expectation of a fresh state and fails the GPU one."""
        host, residency = PageTable(space, side="host"), ResidencyState(space)
        host.check_mapped(residency.expected_host_mapped())
        with pytest.raises(SimulationError, match="out of sync on 512 pages"):
            host.check_mapped(residency.expected_gpu_mapped())

    def test_unknown_side_rejected(self, space):
        with pytest.raises(SimulationError):
            PageTable(space, side="fpga")
