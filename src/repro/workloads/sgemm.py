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
from repro.gpu.warp import StreamSet, check_page_ids
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

    def _bands(self, matrix: ManagedRange, page_size: int) -> list[list[np.ndarray]]:
        """Pages touched, row by row, by every tile of ``matrix``, as
        int32 ids: entry ``[r][k]`` is tile ``(r, k)``'s.

        Each tile row is one contiguous segment of ``tile`` elements.
        Sampling it every ``page_size`` bytes plus its last element
        names every page from the segment's first to its last, however
        many that is; consecutive repeats within a tile collapse to one
        touch.  All tiles are computed in one numpy pass.
        """
        n, tile = self.n, self.tile
        grid = n // tile
        step = max(page_size // _F32, 1)
        offsets = np.append(np.arange(0, tile - 1, step), tile - 1)
        firsts = np.arange(grid, dtype=np.int64) * tile
        rows = firsts[:, None] + np.arange(tile)
        # elems[r, k, row, offset]: one tile per line after the reshape
        elems = rows[:, None, :, None] * n + (firsts[None, :, None, None] + offsets)
        pages = matrix.start_page + elems.reshape(grid * grid, -1) * _F32 // page_size
        keep = np.ones(pages.shape, dtype=bool)
        np.not_equal(pages[:, 1:], pages[:, :-1], out=keep[:, 1:])
        table = pages[keep]
        check_page_ids(table)
        table = table.astype(np.int32)
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        tiles = [table[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
        return [tiles[r * grid : (r + 1) * grid] for r in range(grid)]

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        n, tile = self.n, self.tile
        nbytes = n * n * _F32
        a = space.malloc_managed(nbytes, name="A")
        b = space.malloc_managed(nbytes, name="B")
        c = space.malloc_managed(nbytes, name="C")
        page_size = space.page_size

        grid = n // tile
        # Every block of a grid row re-reads the same A bands and every
        # block of a grid column the same B bands, so each distinct band
        # is computed once and shared.
        a_bands, b_bands, c_bands = (self._bands(m, page_size) for m in (a, b, c))
        a_len, b_len, c_len = (
            np.array([[band.size for band in row] for row in m], dtype=np.int64)
            for m in (a_bands, b_bands, c_bands)
        )
        # block (bi, bj) reads A row band bi and B column band bj, then writes C
        lengths = (a_len.sum(axis=1)[:, None] + b_len.sum(axis=0)[None, :] + c_len).ravel()
        block_flops = 2 * tile * tile * n  # tile^2 outputs, n-MACs each
        streams = StreamSet.zeros(lengths, flops=block_flops / np.maximum(lengths, 1))
        pages, writes = streams.pages, streams.writes
        starts, ends = streams.start.tolist(), streams.end.tolist()
        for sid in range(grid * grid):
            bi, bj = divmod(sid, grid)
            # step kk reads A band (bi, kk) then B band (kk, bj)
            parts = [band for kk in range(grid) for band in (a_bands[bi][kk], b_bands[kk][bj])]
            c_pages = c_bands[bi][bj]
            parts.append(c_pages)
            np.concatenate(parts, out=pages[starts[sid] : ends[sid]])
            writes[ends[sid] - c_pages.size : ends[sid]] = True
        return WorkloadBuild(streams=streams, ranges={"A": a, "B": b, "C": c})
