"""Warp streams: the unit of GPU execution the simulator advances.

A :class:`WarpStream` abstracts a warp (or a coalesced group of warps,
e.g. a thread block's memory-access footprint) as an ordered sequence of
page accesses.  This is the right granularity for UVM analysis because
the driver only ever observes *page*-level faults; intra-page addresses
never matter (Section IV-B analyzes workloads entirely at page
granularity).

Far-fault semantics follow Section III-E: replayable faults "do not block
the faulting GPU compute unit, which can continue running non-faulting
warps until a replay command is received".  Accordingly a stream that
misses becomes STALLED and is only retried when the driver issues a
replay notification; other streams keep running.

A workload build emits all of a kernel's streams at once as a
:class:`StreamSet`: flat int32 page ids and write flags with per-stream
spans, which the SoA phase engine (:mod:`repro.gpu.soa`) reads in place.
:class:`WarpStream` objects exist only for the scalar reference engine,
which derives them from the set (:meth:`StreamSet.warp_streams`).
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import SimulationError

#: page ids are stored as int32
PAGE_ID_LIMIT = 1 << 31
#: widest scan window of the SoA engine; a :class:`StreamSet` keeps this
#: many entries of padding past its last access so every window is in bounds
MAX_WINDOW = 8192  # lint: allow(units-magic-literal) scan-window entries, not bytes


class StreamState(enum.Enum):
    """Lifecycle of a warp stream."""

    PENDING = "pending"  # not yet scheduled onto an SM
    RUNNABLE = "runnable"  # scheduled, can advance
    STALLED = "stalled"  # waiting on a far-fault replay
    DONE = "done"  # all accesses retired


class WarpStream:
    """An ordered page-access sequence with stall/replay state."""

    __slots__ = (
        "stream_id",
        "pages",
        "writes",
        "pos",
        "state",
        "stalled_on",
        "sm_id",
        "faults_raised",
        "accesses_retired",
        "flops_per_access",
    )

    def __init__(
        self,
        stream_id: int,
        pages: np.ndarray,
        writes: Optional[np.ndarray] = None,
        flops_per_access: float = 0.0,
    ) -> None:
        self.stream_id = stream_id
        self.pages = np.ascontiguousarray(pages, dtype=np.int64)
        if self.pages.ndim != 1:
            raise SimulationError("stream pages must be a 1-D array")
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
            if writes.shape != self.pages.shape:
                raise SimulationError("writes mask must match pages shape")
        self.writes = writes
        self.pos = 0
        self.state = StreamState.PENDING
        self.stalled_on: Optional[int] = None
        self.sm_id = -1  # assigned by the scheduler at dispatch
        self.faults_raised = 0
        self.accesses_retired = 0
        #: compute attributed per retired access (e.g. a GEMM block's
        #: FLOPs spread over its page touches); powers Fig. 10's
        #: compute-rate axis.
        self.flops_per_access = float(flops_per_access)

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def remaining(self) -> int:
        return len(self.pages) - self.pos

    def next_page(self) -> Optional[int]:
        """The page of the next access, or None when retired."""
        if self.pos >= len(self.pages):
            return None
        return int(self.pages[self.pos])

    def next_is_write(self) -> bool:
        if self.writes is None:
            return False
        return bool(self.writes[self.pos])

    def advance(
        self,
        read_ok: np.ndarray,
        write_ok: Optional[np.ndarray] = None,
        scan_chunk: int = 8192,  # lint: allow(units-magic-literal) accesses per chunk
    ) -> Optional[int]:
        """Retire accesses until the first miss; return the missing page.

        Scans the access sequence from the current position, retiring
        every access whose page is accessible (``read_ok`` for loads,
        ``write_ok`` for stores - a store to a resident-but-read-only
        page is a *permission-upgrade* miss, the read-duplication
        collapse path).  On a miss the stream stalls and the faulting
        page is returned; on completion the stream is DONE and ``None``
        is returned.

        ``write_ok`` defaults to ``read_ok`` (uniform permissions, the
        stock migration behaviour).  Scanning happens in vectorized
        chunks so long reuse-heavy streams advance at numpy speed.
        """
        if self.state not in (StreamState.RUNNABLE, StreamState.PENDING):
            raise SimulationError(
                f"advancing stream {self.stream_id} in state {self.state}"
            )
        self.state = StreamState.RUNNABLE
        check_writes = write_ok is not None and self.writes is not None
        n = len(self.pages)
        while self.pos < n:
            stop = min(self.pos + scan_chunk, n)
            window = self.pages[self.pos : stop]
            if check_writes:
                w = self.writes[self.pos : stop]
                hit = np.where(w, write_ok[window], read_ok[window])
            else:
                hit = read_ok[window]
            # single scan: argmin finds the first False; if that element
            # is True the whole window hit (no separate .all() pass)
            first_miss = int(hit.argmin())
            if hit[first_miss]:
                retired = stop - self.pos
                self.accesses_retired += retired
                self.pos = stop
                continue
            self.accesses_retired += first_miss
            self.pos += first_miss
            page = int(self.pages[self.pos])
            self.state = StreamState.STALLED
            self.stalled_on = page
            self.faults_raised += 1
            return page
        self.state = StreamState.DONE
        self.stalled_on = None
        return None

    def wake(self) -> None:
        """Replay notification observed: the stalled access will retry.

        The retried access may fault again if its page is still not
        resident (the paper's duplicate-fault mechanism).
        """
        if self.state is StreamState.STALLED:
            self.state = StreamState.RUNNABLE
            self.stalled_on = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WarpStream(id={self.stream_id}, {self.pos}/{len(self.pages)},"
            f" {self.state.value})"
        )


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
    retires.  Page ids are int32.  The page and write arrays are stored
    once, with ``MAX_WINDOW`` entries of padding past the last access,
    and ``pages``/``writes`` are views of those stores: the SoA engine
    adopts the stores as they are, and a pickle holds them once.

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
        self._pages[: self.total] = pages
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != pages.shape:
                raise SimulationError("writes mask must match pages shape")
            self._writes[: self.total] = writes

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
        self._pages = np.zeros(self.total + MAX_WINDOW, dtype=np.int32)
        self._writes = np.zeros(self.total + MAX_WINDOW, dtype=bool)
        #: sliding-window views by width (see :meth:`windows`)
        self._windows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return self.n

    @property
    def pages(self) -> np.ndarray:
        """Every stream's page ids, concatenated (int32)."""
        return self._pages[: self.total]

    @property
    def writes(self) -> np.ndarray:
        """Every stream's store flags, concatenated."""
        return self._writes[: self.total]

    def span(self, i: int) -> slice:
        """Stream ``i``'s slice of :attr:`pages` and :attr:`writes`."""
        return slice(int(self.start[i]), int(self.end[i]))

    def windows(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """``(pages, writes)`` sliding-window views ``width`` entries wide.

        Row ``p`` holds the ``width`` accesses from flat position ``p``
        on, so one fancy index gathers every stream's scan window; the
        padding keeps each row in bounds.  The views are cached per
        width and left out of pickles.
        """
        views = self._windows.get(width)
        if views is None:
            views = (
                sliding_window_view(self._pages, width),
                sliding_window_view(self._writes, width),
            )
            self._windows[width] = views
        return views

    def warp_streams(self) -> list["WarpStream"]:
        """One :class:`WarpStream` per member: the scalar engine's input."""
        return [
            WarpStream(sid, self.pages[lo:hi], self.writes[lo:hi], flops)
            for sid, lo, hi, flops in zip(
                self.ids.tolist(), self.start.tolist(), self.end.tolist(), self.flops.tolist()
            )
        ]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_windows"] = {}
        return state

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
