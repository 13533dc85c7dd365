"""Tiled SGEMM (cuBLAS-style) page-access workload.

``C = A @ B`` with three managed ranges of ``n*n`` float32 each
(Table II: "problem size is n for matrices A, B, C where size = n^2").
The access pattern is a classic tiled GEMM: thread block (bi, bj) walks
the K dimension in ``tile`` steps, touching an A row-band tile and a
B column-band tile per step and writing its C tile at the end.

The properties the paper leans on are reproduced:

* *heavy data reuse* invisible to the driver (Section IV-B: the pattern
  "does not show the heavy data reuse taking place on the GPU") - A
  row-bands are shared by every block in a grid row and B column-bands
  by every grid column, so resident data is re-touched without faulting,
* under oversubscription the LRU never sees those re-touches, evicting
  hot bands that immediately re-fault (Fig. 8's evict-then-refault), and
  the eviction count scales as Table II shows,
* FLOP count ``2*n^3`` backs the Fig. 10 compute-rate axis.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.warp import WarpStream
from repro.mem.address_space import AddressSpace
from repro.mem.address_space import ManagedRange
from repro.sim.rng import SimRng
from repro.workloads.base import Workload, WorkloadBuild

_F32 = 4  # bytes per element


class SgemmWorkload(Workload):
    """Tiled dense matrix multiply over managed A, B, C."""

    name = "sgemm"

    def __init__(self, n: int = 2048, tile: int = 128) -> None:
        if n <= 0 or tile <= 0:
            raise ConfigurationError("n and tile must be positive")
        if n % tile:
            raise ConfigurationError(f"tile {tile} must divide n {n}")
        self.n = n
        self.tile = tile

    def required_bytes(self) -> int:
        return 3 * self.n * self.n * _F32

    @property
    def flops(self) -> int:
        """FLOPs of the multiply (Fig. 10's compute-rate numerator)."""
        return 2 * self.n**3

    def _band_pages(
        self,
        rng_range: ManagedRange,
        row_band: int,
        col_band: int,
        page_size: int,
    ) -> np.ndarray:
        """Pages touched, row by row, by tile ``(row_band, col_band)``.

        Each tile row is one contiguous segment of ``tile`` elements.
        Sampling it every ``page_size`` bytes plus its last element
        names every page from the segment's first to its last, however
        many that is; consecutive repeats collapse to one touch.
        """
        tile = self.tile
        step = max(page_size // _F32, 1)
        offsets = np.append(np.arange(0, tile - 1, step), tile - 1)
        rows = np.arange(row_band * tile, (row_band + 1) * tile, dtype=np.int64)
        elems = (rows[:, None] * self.n + (col_band * tile + offsets)).ravel()
        return self.pages_of_elements(rng_range, elems, _F32, page_size)

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        n, tile = self.n, self.tile
        nbytes = n * n * _F32
        a = space.malloc_managed(nbytes, name="A")
        b = space.malloc_managed(nbytes, name="B")
        c = space.malloc_managed(nbytes, name="C")
        page_size = space.page_size

        grid = n // tile

        def bands(matrix: ManagedRange) -> list[list[np.ndarray]]:
            return [
                [self._band_pages(matrix, r, k, page_size) for k in range(grid)]
                for r in range(grid)
            ]

        # Every block of a grid row re-reads the same A bands and every
        # block of a grid column the same B bands, so each distinct band
        # is computed once and shared.
        a_bands, b_bands, c_bands = bands(a), bands(b), bands(c)
        block_flops = 2 * tile * tile * n  # tile^2 outputs, n-MACs each
        streams: list[WarpStream] = []
        for bi in range(grid):
            a_row = a_bands[bi]
            for bj in range(grid):
                # step kk reads A band (bi, kk) then B band (kk, bj)
                parts = [
                    band for kk in range(grid) for band in (a_row[kk], b_bands[kk][bj])
                ]
                c_pages = c_bands[bi][bj]
                parts.append(c_pages)
                pages = np.concatenate(parts)
                writes = np.zeros(pages.shape, dtype=bool)
                writes[pages.size - c_pages.size :] = True
                streams.append(
                    self.make_stream(len(streams), pages, writes, flops=block_flops)
                )
        return WorkloadBuild(streams=streams, ranges={"A": a, "B": b, "C": c})
