"""HPGMG: geometric multigrid V-cycles.

HPGMG-FV (Section III-B, Sakharnykh's GPU port) smooths on a hierarchy
of grid levels, restricting down to a coarse level and interpolating
back up.  The GPU port processes each level as a collection of *boxes*
whose launch order is effectively arbitrary, and the coarse levels are
small and scattered - which is why the paper observes that "the hpgmg
benchmark [shows] portions that mimic the random access pattern"
(Section IV-B) and why it has the *lowest* fault reduction in Table I
(64.06%): scattered small-box faults never saturate VABlock density.

Structure reproduced:

* one managed range per multigrid level (sizes shrinking by 4x in 2-D),
* V-cycles: fine -> coarse (smooth + restrict reads fine, writes coarse)
  then coarse -> fine (interpolate reads coarse, writes fine),
* per-level box streams in a shuffled order, with the shuffle strength
  growing on coarser levels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.warp import StreamSetBuilder
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import bytes_to_pages
from repro.workloads.base import Workload, WorkloadBuild, chunk_indices

_F64 = 8


class HpgmgWorkload(Workload):
    """Multigrid V-cycles over a level hierarchy of managed grids."""

    name = "hpgmg"

    def __init__(
        self,
        fine_n: int = 1024,
        levels: int = 4,
        v_cycles: int = 2,
        box_pages: int = 8,
    ) -> None:
        if fine_n <= 0 or levels < 2 or v_cycles < 1 or box_pages < 1:
            raise ConfigurationError("invalid HPGMG parameters")
        if fine_n % (2 ** (levels - 1)):
            raise ConfigurationError("fine_n must be divisible by 2**(levels-1)")
        self.fine_n = fine_n
        self.levels = levels
        self.v_cycles = v_cycles
        self.box_pages = box_pages

    def _level_bytes(self, level: int) -> int:
        n = self.fine_n >> level
        return max(n * n * _F64, _F64)

    def required_bytes(self) -> int:
        return sum(self._level_bytes(lv) for lv in range(self.levels))

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        grids = [
            space.malloc_managed(self._level_bytes(lv), name=f"level{lv}")
            for lv in range(self.levels)
        ]
        level_pages = [bytes_to_pages(self._level_bytes(lv)) for lv in range(self.levels)]
        wl_rng = rng.fork(self.name)

        streams = StreamSetBuilder()

        def emit_level_sweep(level: int, write: bool, read_level: int | None) -> None:
            """Streams sweeping a level's boxes in shuffled order.

            ``read_level`` adds the corresponding (coarser/finer) region
            of another level to each box stream, modelling restriction/
            interpolation's two-level touch.
            """
            grid = grids[level]
            npages = level_pages[level]
            boxes = chunk_indices(npages, self.box_pages)
            # coarse levels launch boxes in near-arbitrary order
            strength = 0.1 + 0.25 * level
            order = wl_rng.jitter_order(len(boxes), strength=strength)
            for bi in order:
                lo, hi = boxes[int(bi)]
                own = grid.start_page + np.arange(lo, hi, dtype=np.int64)
                parts = [(own, write)]
                if read_level is not None:
                    other = grids[read_level]
                    scale = level_pages[read_level] / max(npages, 1)
                    olo = int(lo * scale)
                    ohi = max(olo + 1, int(hi * scale))
                    ohi = min(ohi, level_pages[read_level])
                    parts.append(
                        (other.start_page + np.arange(olo, ohi, dtype=np.int64), False)
                    )
                streams.add(*parts)

        for _ in range(self.v_cycles):
            # down sweep: smooth on each level, restrict into the coarser
            for lv in range(self.levels - 1):
                emit_level_sweep(lv, write=True, read_level=None)  # smooth
                emit_level_sweep(lv + 1, write=True, read_level=lv)  # restrict
            # coarse solve
            emit_level_sweep(self.levels - 1, write=True, read_level=None)
            # up sweep: interpolate back and smooth
            for lv in range(self.levels - 2, -1, -1):
                emit_level_sweep(lv, write=True, read_level=lv + 1)  # interp
                emit_level_sweep(lv, write=True, read_level=None)  # smooth
        return WorkloadBuild(
            streams=streams.build(),
            ranges={f"level{lv}": g for lv, g in enumerate(grids)},
        )
