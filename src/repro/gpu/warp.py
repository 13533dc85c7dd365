"""Warp streams: the unit of GPU execution the simulator advances.

A warp stream abstracts a warp (or a coalesced group of warps, e.g. a
thread block's memory-access footprint) as an ordered sequence of page
accesses.  This is the right granularity for UVM analysis because the
driver only ever observes *page*-level faults; intra-page addresses
never matter (Section IV-B analyzes workloads entirely at page
granularity).

Far-fault semantics follow Section III-E: replayable faults "do not block
the faulting GPU compute unit, which can continue running non-faulting
warps until a replay command is received".  Accordingly a stream that
misses becomes STALLED and is only retried when the driver issues a
replay notification; other streams keep running.

A workload build emits all of a kernel's streams at once as a
:class:`StreamSet`: flat int32 page ids and write flags with per-stream
spans, which the phase engine (:mod:`repro.gpu.soa`) reads in place and
advances with the stall and replay state above.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SimulationError

#: page ids are stored as int32
PAGE_ID_LIMIT = 1 << 31


def check_page_ids(pages: np.ndarray) -> None:
    """Raise unless every id in ``pages`` lies in ``[0, 2**31)``.

    Page ids are stored as int32, where a larger id would wrap silently;
    every id is checked once, before its conversion.
    """
    if pages.size and (pages.min() < 0 or pages.max() >= PAGE_ID_LIMIT):
        raise SimulationError(
            f"stream page ids must lie in [0, 2**31); got [{pages.min()}, {pages.max()}]"
        )


class StreamSet:
    """Every warp stream of one kernel launch, as flat arrays.

    Stream ``i`` (id ``ids[i]``) performs the accesses
    ``pages[start[i]:end[i]]`` in order; ``writes`` flags the stores
    among them, and ``flops[i]`` is the compute each of its accesses
    retires.  Page ids are int32.  The SoA engine adopts the ``pages``
    and ``writes`` arrays as they are, so a pickle holds them once.

    ``lengths`` defaults to one access per stream (the paper's
    one-page-per-thread kernels); ``ids`` to ``0..n-1``.
    """

    def __init__(
        self,
        pages: np.ndarray,
        lengths: Optional[np.ndarray] = None,
        writes: Optional[np.ndarray] = None,
        ids: Optional[np.ndarray] = None,
        flops: Optional[np.ndarray] = None,
    ) -> None:
        pages = np.asarray(pages, dtype=np.int64)
        if pages.ndim != 1:
            raise SimulationError("stream pages must be a 1-D array")
        if lengths is None:
            lengths = np.ones(pages.size, dtype=np.int64)
        self._allocate(lengths, ids, flops)
        if pages.size != self.total:
            raise SimulationError(
                f"stream lengths sum to {self.total}, not the {pages.size} pages given"
            )
        check_page_ids(pages)
        self.pages[:] = pages
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != pages.shape:
                raise SimulationError("writes mask must match pages shape")
            self.writes[:] = writes

    @classmethod
    def zeros(
        cls,
        lengths: np.ndarray,
        ids: Optional[np.ndarray] = None,
        flops: Optional[np.ndarray] = None,
    ) -> "StreamSet":
        """A set of all-zero pages and no stores, for a build to fill in
        place: it writes ``pages`` (ids it has passed through
        :func:`check_page_ids`) and ``writes`` without a temporary copy."""
        streams = cls.__new__(cls)
        streams._allocate(lengths, ids, flops)
        return streams

    def _allocate(
        self,
        lengths: np.ndarray,
        ids: Optional[np.ndarray],
        flops: Optional[np.ndarray],
    ) -> None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or (lengths.size and lengths.min() < 0):
            raise SimulationError("stream lengths must be a 1-D array of counts >= 0")
        n = lengths.size
        self.n = n
        self.end = np.cumsum(lengths)
        self.start = self.end - lengths
        self.total = int(self.end[-1]) if n else 0
        self.ids = (
            np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        )
        self.flops = (
            np.zeros(n) if flops is None else np.asarray(flops, dtype=np.float64)
        )
        if self.ids.shape != (n,) or self.flops.shape != (n,):
            raise SimulationError("stream ids and flops need one entry per stream")
        #: every stream's page ids, concatenated (int32)
        self.pages = np.zeros(self.total, dtype=np.int32)
        #: every stream's store flags, concatenated
        self.writes = np.zeros(self.total, dtype=bool)

    def __len__(self) -> int:
        return self.n

    def span(self, i: int) -> slice:
        """Stream ``i``'s slice of :attr:`pages` and :attr:`writes`."""
        return slice(int(self.start[i]), int(self.end[i]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamSet({self.n} streams, {self.total} accesses)"


class StreamSetBuilder:
    """Collects a kernel's streams part by part and concatenates them once.

    Each :meth:`add` is one stream, given as its ``(pages, write)``
    parts in access order; ``write`` marks all of a part's accesses as
    stores.  Stream ids run on from ``first_id``.
    """

    def __init__(self, first_id: int = 0) -> None:
        self.first_id = first_id
        self._parts: list[np.ndarray] = []
        self._part_writes: list[bool] = []
        self._part_sizes: list[int] = []
        self._lengths: list[int] = []

    def add(self, *parts: tuple[np.ndarray, bool]) -> None:
        length = 0
        for pages, write in parts:
            self._parts.append(pages)
            self._part_writes.append(write)
            self._part_sizes.append(len(pages))
            length += len(pages)
        self._lengths.append(length)

    def __len__(self) -> int:
        return len(self._lengths)

    def build(self) -> StreamSet:
        n = len(self._lengths)
        pages = np.concatenate(self._parts) if self._parts else np.empty(0, dtype=np.int64)
        writes = np.repeat(np.array(self._part_writes, dtype=bool), self._part_sizes)
        ids = np.arange(self.first_id, self.first_id + n, dtype=np.int64)
        return StreamSet(pages, self._lengths, writes, ids)
