"""Unit tests for the DMA engine."""

import pytest

from repro.gpu.dma import DmaEngine
from repro.sim.costmodel import CostModel
from repro.units import PAGE_SIZE


@pytest.fixture
def dma():
    return DmaEngine(CostModel(), PAGE_SIZE)


class TestTransfers:
    def test_h2d_accounts_bytes(self, dma):
        dma.h2d_pages(10)
        assert dma.stats.h2d_bytes == 10 * PAGE_SIZE
        assert dma.stats.h2d_transfers == 1

    def test_staging_chunks_split_large_copies(self, dma):
        # 1024 pages = 4 MiB -> two 2 MiB staging chunks
        dma.h2d_pages(1024)
        assert dma.stats.h2d_transfers == 2

    def test_scattered_pages_share_one_staging_transfer(self, dma):
        """The driver stages scattered sources: no per-run setup blowup
        within a single service (Section III-D coalescing) - a transfer
        is priced by its page count alone, however the pages lie."""
        cost_scattered = dma.h2d_pages(256)  # e.g. every other page of a block
        assert dma.stats.h2d_transfers == 1
        cost_dense = dma.h2d_pages(256)
        assert cost_scattered == cost_dense  # same bytes, same chunks

    def test_d2h_accounts_bytes(self, dma):
        dma.d2h_pages(2)
        assert dma.stats.d2h_bytes == 2 * PAGE_SIZE
        assert dma.stats.total_bytes == 2 * PAGE_SIZE

    def test_empty_transfer_is_free(self, dma):
        assert dma.h2d_pages(0) == 0
        assert dma.stats.h2d_transfers == 0

    def test_cost_includes_setup_and_wire(self, dma):
        cost = CostModel()
        t = dma.h2d_pages(4)
        assert t == cost.dma_setup_ns + cost.transfer_ns(4 * PAGE_SIZE)

    def test_d2h_takes_a_page_count(self, dma):
        t = dma.d2h_pages(8)
        assert dma.stats.d2h_bytes == 8 * PAGE_SIZE
        assert dma.stats.d2h_transfers == 1
        assert t == CostModel().dma_transfer_ns(8 * PAGE_SIZE, transfers=1)
        assert dma.d2h_pages(0) == 0
        assert dma.stats.d2h_transfers == 1
