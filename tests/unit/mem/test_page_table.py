"""Unit tests for page-table bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.errors import AddressError, SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.page_table import PageTable
from repro.units import MiB


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
        assert table.map_pages(np.array([0, 1, 2])) == 3
        assert table.mapped_count() == 3

    def test_remap_counts_pte_writes_but_not_new(self, table):
        table.map_pages(np.array([0]))
        assert table.map_pages(np.array([0, 1])) == 1
        assert table.stats.pages_mapped == 3  # PTE writes

    def test_unmap(self, table):
        table.map_pages(np.array([0, 1]))
        assert table.unmap_pages(np.array([0])) == 1
        assert table.mapped_count() == 1

    def test_unmap_unmapped_rejected(self, table):
        with pytest.raises(SimulationError):
            table.unmap_pages(np.array([0]))

    def test_out_of_space_rejected(self, table):
        with pytest.raises(Exception):
            table.map_pages(np.array([10_000]))

    def test_empty_ops_are_noops(self, table):
        assert table.map_pages(np.empty(0, dtype=np.int64)) == 0
        assert table.unmap_pages(np.empty(0, dtype=np.int64)) == 0

    def test_negative_page_rejected(self, table):
        with pytest.raises(AddressError):
            table.map_pages(np.array([-1, 3]))


def leaves_of(*offsets, n=512):
    leaves = np.zeros(n, dtype=bool)
    leaves[list(offsets)] = True
    return leaves


class TestSpans:
    def test_map_span_counts_new_and_pte_writes(self, table):
        assert table.map_span(0, leaves_of(0, 1)) == 2
        assert table.map_span(0, leaves_of(1, 2)) == 1
        assert table.stats.pages_mapped == 4
        assert np.flatnonzero(table.mapped).tolist() == [0, 1, 2]

    def test_unmap_span(self, table):
        table.map_span(0, leaves_of(3, 4, 5))
        assert table.unmap_span(0, leaves_of(3, 5)) == 2
        assert np.flatnonzero(table.mapped).tolist() == [4]
        assert table.stats.pages_unmapped == 2

    def test_unmap_span_of_unmapped_rejected(self, table):
        table.map_span(0, leaves_of(3))
        with pytest.raises(SimulationError):
            table.unmap_span(0, leaves_of(3, 4))

    def test_span_outside_table_rejected(self, table):
        with pytest.raises(AddressError):
            table.map_span(512, leaves_of(0))
        with pytest.raises(AddressError):
            table.map_span(0, np.ones(4, dtype=np.int64))

    def test_unpickled_mask_is_a_leaf_mask(self, table):
        # unpickling builds a new bool dtype object; compare by value
        leaves = pickle.loads(pickle.dumps(leaves_of(0, 1)))
        assert table.map_span(0, leaves) == 2
        assert table.unmap_span(0, leaves) == 2


class TestBarriers:
    def test_invalidate_bumps_epoch(self, table):
        e1 = table.invalidate_tlb()
        e2 = table.invalidate_tlb()
        assert e2 == e1 + 1
        assert table.stats.tlb_invalidates == 2

    def test_membar_counted(self, table):
        table.membar()
        assert table.stats.membars == 1


class TestConsistency:
    def test_residency_check_passes(self, table, space):
        resident = np.zeros(space.total_pages, dtype=bool)
        resident[[3, 4]] = True
        table.map_pages(np.array([3, 4]))
        table.check_against_residency(resident)

    def test_residency_check_detects_divergence(self, table, space):
        resident = np.zeros(space.total_pages, dtype=bool)
        table.map_pages(np.array([3]))
        with pytest.raises(SimulationError):
            table.check_against_residency(resident)

    def test_host_side_cannot_use_gpu_check(self, space):
        host = PageTable(space, side="host")
        with pytest.raises(SimulationError):
            host.check_against_residency(np.zeros(space.total_pages, dtype=bool))

    def test_unknown_side_rejected(self, space):
        with pytest.raises(SimulationError):
            PageTable(space, side="fpga")
