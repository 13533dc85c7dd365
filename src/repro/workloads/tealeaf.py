"""TeaLeaf: implicit heat-conduction solved with CG over a 5-point stencil.

TeaLeaf (UK-MAC's CUDA port, Section III-B) solves a 2-D diffusion
problem; each conjugate-gradient iteration sweeps several field arrays
(solution u, search direction p, residual r, and the matrix-free
operator's output w) with nearest-neighbour stencil reads.

Page-level structure reproduced here:

* four equally sized managed grids,
* per CG iteration, row-band streams that read a band of ``p`` plus its
  halo rows (the 5-point stencil) and the matching bands of ``u``/``r``,
  writing ``w`` and updating ``u``/``r`` - so each iteration braids all
  four ranges in fault order,
* later iterations mostly re-touch resident data (undersubscribed runs
  fault only on the leading sweeps), producing the moderate fault
  reduction the paper records for TeaLeaf (66.97%, Table I): the
  interleaving across four ranges spreads faults across VABlocks,
  building density slowly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.warp import StreamSetBuilder
from repro.mem.address_space import AddressSpace
from repro.mem.address_space import ManagedRange
from repro.sim.rng import SimRng
from repro.workloads.base import Workload, WorkloadBuild

_F64 = 8


class TealeafWorkload(Workload):
    """CG iterations over a square 2-D grid with 5-point stencil sweeps."""

    name = "tealeaf"

    def __init__(
        self,
        n: int = 1024,
        iterations: int = 3,
        rows_per_stream: int = 8,
        host_check: bool = False,
    ) -> None:
        if n <= 2:
            raise ConfigurationError("grid must be larger than the stencil halo")
        if iterations < 1 or rows_per_stream < 1:
            raise ConfigurationError("iterations and rows_per_stream must be >= 1")
        self.n = n
        self.iterations = iterations
        self.rows_per_stream = rows_per_stream
        #: model the naive-UVM-port convergence check: between CG
        #: iterations the *host* reads a sample of the residual, CPU
        #: faults migrate those pages back, and the next iteration
        #: re-faults them on the GPU - the ping-pong that keeps real
        #: iterative solvers' fault counts high (and their Table I
        #: prefetch coverage low).
        self.host_check = host_check

    def required_bytes(self) -> int:
        return 4 * self.n * self.n * _F64

    def _row_pages(
        self, rng_range: ManagedRange, row_lo: int, row_hi: int, page_size: int
    ) -> np.ndarray:
        """Pages of grid rows ``[row_lo, row_hi)`` (rows are contiguous)."""
        row_lo = max(row_lo, 0)
        row_hi = min(row_hi, self.n)
        first_byte = row_lo * self.n * _F64
        last_byte = row_hi * self.n * _F64 - 1
        lo_page = rng_range.start_page + first_byte // page_size
        hi_page = rng_range.start_page + last_byte // page_size
        return np.arange(lo_page, hi_page + 1, dtype=np.int64)

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        nbytes = self.n * self.n * _F64
        u = space.malloc_managed(nbytes, name="u")
        p = space.malloc_managed(nbytes, name="p")
        r = space.malloc_managed(nbytes, name="r")
        w = space.malloc_managed(nbytes, name="w")
        page_size = space.page_size

        from repro.workloads.base import HostAccess, KernelPhase

        phases: list[KernelPhase] = []
        sid = 0
        for iteration in range(self.iterations):
            streams = StreamSetBuilder(first_id=sid)
            for row in range(0, self.n, self.rows_per_stream):
                hi = min(row + self.rows_per_stream, self.n)
                # stencil reads p with a one-row halo on each side
                p_pages = self._row_pages(p, row - 1, hi + 1, page_size)
                u_pages = self._row_pages(u, row, hi, page_size)
                r_pages = self._row_pages(r, row, hi, page_size)
                w_pages = self._row_pages(w, row, hi, page_size)
                # w is written by the operator; u and r are updated.
                streams.add((p_pages, False), (u_pages, True), (r_pages, True), (w_pages, True))
            sid += len(streams)
            host_before = None
            if self.host_check and iteration > 0:
                # The host samples the residual for the convergence norm.
                # One page per 64 KB big page is the prefetcher's worst
                # case: each re-fault's big-page upgrade covers only
                # already-resident neighbours, so every migrated page
                # costs one uncoverable fault next iteration.
                host_before = HostAccess(
                    pages=r.pages()[:: space.pages_per_big_page], writes=False
                )
            phases.append(KernelPhase(streams=streams.build(), host_before=host_before))
        ranges = {"u": u, "p": p, "r": r, "w": w}
        if self.iterations == 1 and not self.host_check:
            return WorkloadBuild(streams=phases[0].streams, ranges=ranges)
        return WorkloadBuild.from_phases(phases, ranges)
