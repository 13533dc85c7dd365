"""Integration: every golden-matrix cell repeats its pinned results.

The matrix and its regeneration command live in :mod:`tests.golden`;
the pinned records in ``tests/fixtures/golden_counters.json``.  A cell
fails when any simulated bit moves: ``total_time_ns``, the GPU phase
count, the fault and eviction counts, or the digest over every counter,
timer charge, timer operation count and DMA total.
"""

import pytest

from tests import golden

CELLS = golden.cells()
PINNED = golden.load()


def test_fixture_covers_exactly_the_matrix():
    assert sorted(PINNED) == sorted(CELLS)


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_cell_matches_golden(cell_id):
    assert golden.summarize(CELLS[cell_id]()) == PINNED[cell_id]
