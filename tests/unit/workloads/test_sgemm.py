"""Unit tests for the tiled SGEMM workload."""

import hashlib
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.workloads.sgemm import SgemmWorkload


@pytest.fixture
def build():
    space = AddressSpace()
    wl = SgemmWorkload(n=512, tile=128)
    return wl, space, wl.build(space, SimRng(2))


class TestStructure:
    def test_three_ranges(self, build):
        _, _, b = build
        assert set(b.ranges) == {"A", "B", "C"}

    def test_one_stream_per_grid_block(self, build):
        wl, _, b = build
        grid = wl.n // wl.tile
        assert len(b.streams) == grid * grid

    def test_streams_touch_all_three_matrices(self, build):
        wl, space, b = build
        a, bm, c = b.ranges["A"], b.ranges["B"], b.ranges["C"]
        pages = b.streams.pages[b.streams.span(0)]
        assert ((pages >= a.start_page) & (pages < a.end_page)).any()
        assert ((pages >= bm.start_page) & (pages < bm.end_page)).any()
        assert ((pages >= c.start_page) & (pages < c.end_page)).any()

    def test_only_c_pages_written(self, build):
        _, _, b = build
        c_range = b.ranges["C"]
        written = b.streams.pages[b.streams.writes]
        assert (written >= c_range.start_page).all()
        assert (written < c_range.end_page_aligned).all()

    def test_full_coverage_of_c(self, build):
        """Every page of C is written by some block."""
        _, _, b = build
        c = b.ranges["C"]
        covered = np.unique(b.streams.pages[b.streams.writes])
        expected = np.arange(c.start_page, c.start_page + c.npages)
        assert np.array_equal(np.intersect1d(covered, expected), expected)

    def test_reuse_exists(self, build):
        """A row-bands are shared across a grid row: the driver-invisible
        reuse the paper highlights."""
        wl, _, b = build
        grid = wl.n // wl.tile
        s = b.streams
        a_pages = [
            set(s.pages[s.start[i] : (s.start[i] + s.end[i]) // 2].tolist())
            for i in range(grid)
        ]
        shared = set.intersection(*a_pages)
        assert shared, "grid-row blocks must share A band pages"

    def test_wide_tile_rows_touch_every_page(self):
        """A 4096-float tile row spans four 4 KiB pages; every one of
        them is touched, not only the first and last."""
        wl = SgemmWorkload(n=4096, tile=4096)
        b = wl.build(AddressSpace(), SimRng(0))
        pages = b.streams.pages
        for name in ("A", "B", "C"):
            rng = b.ranges[name]
            expected = np.arange(rng.start_page, rng.start_page + rng.npages)
            assert np.array_equal(np.intersect1d(pages, expected), expected), name

    def test_flops(self):
        wl = SgemmWorkload(n=256, tile=128)
        assert wl.flops == 2 * 256**3

    def test_flops_attributed_to_streams(self, build):
        wl, _, b = build
        s = b.streams
        total = sum(s.flops * (s.end - s.start))
        assert total == pytest.approx(wl.flops, rel=0.01)

    def test_required_bytes(self):
        assert SgemmWorkload(n=512).required_bytes() == 3 * 512 * 512 * 4


def build_digest(n: int, tile: int) -> str:
    """sha256 over every stream's id, pages, write mask and per-access FLOPs."""
    built = SgemmWorkload(n=n, tile=tile).build(AddressSpace(), SimRng(0))
    s = built.streams
    digest = hashlib.sha256()
    for i in range(len(s)):
        digest.update(struct.pack("<q", s.ids[i]))
        digest.update(np.ascontiguousarray(s.pages[s.span(i)], dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(s.writes[s.span(i)], dtype=bool).tobytes())
        digest.update(struct.pack("<d", s.flops[i]))
    return digest.hexdigest()


#: digests of the streams the per-call ``_band_pages`` build produced,
#: recorded before the build was restructured to compute each band once.
GOLDEN_BUILD_DIGESTS = {
    (512, 128): "620c348538094b2d714a3f1f83ed3ebd41df6f3e5d19e3027f223eaa994c6bc3",
    # 16 MiB: the serve-mix size
    (1152, 128): "ba8e08c5617d1e336bd472e619d094e9e45c9e93dd5b23c08d0d1f29e8a00445",
    # 96 MiB: the perf-smoke size
    (2816, 128): "9d5608a371e98ee551e9be7cd995e72226ad49b712638b16a17233bfe278c3ac",
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_BUILD_DIGESTS))
def test_build_matches_golden_digest(shape):
    assert build_digest(*shape) == GOLDEN_BUILD_DIGESTS[shape]


class TestValidation:
    def test_tile_must_divide_n(self):
        with pytest.raises(ConfigurationError):
            SgemmWorkload(n=100, tile=64)

    def test_positive_params(self):
        with pytest.raises(ConfigurationError):
            SgemmWorkload(n=0)
