"""The paper's two synthetic page-touch kernels (Section III-C).

* **Regular access** - "each thread accesses exactly one page
  corresponding to the thread's global ID", so access is regular within
  a warp and block; as a fault stream it appears mostly ascending with
  scheduler jitter (Fig. 7 top-left).
* **Random access** - "each thread accesses a single, random, unique
  page from the global buffer": a global permutation of the pages.

Both are single-allocation kernels; each warp stream covers
``pages_per_stream`` thread accesses (default one page per stream, the
paper's one-page-per-thread structure at warp granularity).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.workloads.base import Workload, WorkloadBuild


class _PageTouch(Workload):
    """Shared scaffolding for the two synthetic kernels."""

    def __init__(
        self,
        data_bytes: int,
        pages_per_stream: int = 1,
        write: bool = True,
    ) -> None:
        if data_bytes <= 0:
            raise ConfigurationError("data_bytes must be positive")
        if pages_per_stream <= 0:
            raise ConfigurationError("pages_per_stream must be positive")
        self.data_bytes = data_bytes
        self.pages_per_stream = pages_per_stream
        self.write = write

    def required_bytes(self) -> int:
        return self.data_bytes

    def _page_order(self, npages: int, rng: SimRng) -> np.ndarray:
        raise NotImplementedError

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        buf = space.malloc_managed(self.data_bytes, name="buffer")
        order = self._page_order(buf.npages, rng.fork(self.name))
        # consecutive runs of pages_per_stream threads; the last may be short
        n, per = order.size, self.pages_per_stream
        lengths = np.full(-(-n // per), per, dtype=np.int64)
        if n % per:
            lengths[-1] = n % per
        streams = StreamSet(
            buf.start_page + order, lengths, np.full(n, self.write, dtype=bool)
        )
        return WorkloadBuild(streams=streams, ranges={"buffer": buf})


class RegularAccess(_PageTouch):
    """Thread *i* touches page *i*: the regular page-touch kernel."""

    name = "regular"

    def _page_order(self, npages: int, rng: SimRng) -> np.ndarray:
        return np.arange(npages, dtype=np.int64)


class RandomAccess(_PageTouch):
    """Thread *i* touches a unique random page: the random kernel."""

    name = "random"

    def _page_order(self, npages: int, rng: SimRng) -> np.ndarray:
        return rng.permutation(npages).astype(np.int64)
