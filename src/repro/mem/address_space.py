"""Address spaces, managed ranges, and VABlocks.

Mirrors the driver's structure (paper Section III-A):

* a *virtual address space* is associated with an application;
* each ``cudaMallocManaged`` call creates a *range* of arbitrary size;
* ranges are broken into 2 MB, page-aligned *VABlocks*;
* VABlocks are composed of 4 KB OS pages.

The simulator numbers pages globally and aligns every range to a VABlock
boundary, which matches how the real driver carves ranges into VABlock
bins (a VABlock never spans two ranges).  The VABlock size is
configurable to support the paper's "flexible memory allocation
granularity" discussion (Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import AddressError, AllocationError
from repro.mem.advise import MemAdvise
from repro.mem.layout import align_up_pages, check_geometry
from repro.units import (
    BIG_PAGE_SIZE,
    PAGE_SIZE,
    VABLOCK_SIZE,
    bytes_to_pages,
    human_size,
)


@dataclass(frozen=True)
class ManagedRange:
    """One managed allocation (``cudaMallocManaged`` result).

    ``npages`` counts the pages actually requested; ``npages_aligned``
    includes the VABlock-alignment padding at the end of the range.
    """

    name: str
    index: int
    start_page: int
    npages: int
    npages_aligned: int
    nbytes: int

    @property
    def end_page(self) -> int:
        """One past the last *requested* page."""
        return self.start_page + self.npages

    @property
    def end_page_aligned(self) -> int:
        """One past the last page including alignment padding."""
        return self.start_page + self.npages_aligned

    def contains_page(self, page: int) -> bool:
        return self.start_page <= page < self.end_page

    def pages(self) -> np.ndarray:
        """All requested global page indices of this range, ascending."""
        return np.arange(self.start_page, self.end_page, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ManagedRange({self.name!r}, pages=[{self.start_page},"
            f"{self.end_page}), {human_size(self.nbytes)})"
        )


@dataclass(frozen=True)
class VABlock:
    """A virtual address block: the allocation/eviction granule."""

    vablock_id: int
    range_index: int
    start_page: int
    npages: int

    @property
    def end_page(self) -> int:
        return self.start_page + self.npages


class AddressSpace:
    """The managed virtual address space of one simulated application."""

    def __init__(
        self,
        page_size: int = PAGE_SIZE,
        big_page_size: int = BIG_PAGE_SIZE,
        vablock_size: int = VABLOCK_SIZE,
    ) -> None:
        check_geometry(page_size, big_page_size, vablock_size)
        self.page_size = page_size
        self.big_page_size = big_page_size
        self.vablock_size = vablock_size
        self.pages_per_vablock = vablock_size // page_size
        self.pages_per_big_page = big_page_size // page_size
        self.big_pages_per_vablock = vablock_size // big_page_size
        self.ranges: list[ManagedRange] = []
        self._next_page = 0
        #: range index owning each VABlock, grown on allocation.
        self._vablock_range: list[int] = []
        #: per-range access behaviour (cudaMemAdvise), default MIGRATE.
        self._advise: dict[int, "MemAdvise"] = {}

    # -- allocation ---------------------------------------------------------
    def malloc_managed(self, nbytes: int, name: Optional[str] = None) -> ManagedRange:
        """Create a managed range of ``nbytes`` (``cudaMallocManaged``).

        The range starts on a VABlock boundary; its tail VABlock is padded
        so the next range starts on a fresh boundary, as in the driver.
        """
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        npages = bytes_to_pages(nbytes)
        npages_aligned = align_up_pages(npages, self.pages_per_vablock)
        index = len(self.ranges)
        rng = ManagedRange(
            name=name or f"range{index}",
            index=index,
            start_page=self._next_page,
            npages=npages,
            npages_aligned=npages_aligned,
            nbytes=nbytes,
        )
        self.ranges.append(rng)
        self._next_page += npages_aligned
        n_vablocks = npages_aligned // self.pages_per_vablock
        self._vablock_range.extend([index] * n_vablocks)
        return rng

    # -- geometry queries -----------------------------------------------------
    @property
    def total_pages(self) -> int:
        """Total pages spanned by all ranges (including alignment padding)."""
        return self._next_page

    @property
    def total_vablocks(self) -> int:
        return self._next_page // self.pages_per_vablock

    @property
    def total_bytes_requested(self) -> int:
        """Sum of requested allocation sizes (the application's view)."""
        return sum(r.nbytes for r in self.ranges)

    def vablock_of_page(self, page) -> int | np.ndarray:
        return page // self.pages_per_vablock

    def page_span_of_vablock(self, vablock_id: int) -> tuple[int, int]:
        if not 0 <= vablock_id < self.total_vablocks:
            raise AddressError(
                f"VABlock {vablock_id} outside space of {self.total_vablocks} blocks"
            )
        start = vablock_id * self.pages_per_vablock
        return start, start + self.pages_per_vablock

    def vablock(self, vablock_id: int) -> VABlock:
        """Materialize a :class:`VABlock` descriptor."""
        start, stop = self.page_span_of_vablock(vablock_id)
        return VABlock(
            vablock_id=vablock_id,
            range_index=self._vablock_range[vablock_id],
            start_page=start,
            npages=stop - start,
        )

    def range_of_page(self, page: int) -> ManagedRange:
        """Managed range containing global ``page`` (padding counts)."""
        if not 0 <= page < self._next_page:
            raise AddressError(f"page {page} outside address space")
        rng = self.ranges[self._vablock_range[page // self.pages_per_vablock]]
        return rng

    # -- memory advise -----------------------------------------------------------
    def mem_advise(self, rng: "ManagedRange | str", advise: "MemAdvise") -> None:
        """Set a range's access behaviour (``cudaMemAdvise`` analogue).

        Must be issued before the simulation runs - the real driver
        allows runtime changes, but mid-run re-advising is out of scope
        here and the driver snapshot would go stale.
        """
        if isinstance(rng, str):
            matches = [r for r in self.ranges if r.name == rng]
            if not matches:
                raise AddressError(f"no managed range named {rng!r}")
            rng = matches[0]
        if not isinstance(advise, MemAdvise):
            raise AddressError(f"expected a MemAdvise value, got {advise!r}")
        self._advise[rng.index] = advise

    def advise_of_range(self, range_index: int) -> "MemAdvise":
        return self._advise.get(range_index, MemAdvise.MIGRATE)

    def advise_of_vablock(self, vablock_id: int) -> "MemAdvise":
        """Access behaviour of a VABlock (uniform: blocks never span ranges)."""
        if not 0 <= vablock_id < self.total_vablocks:
            raise AddressError(f"VABlock {vablock_id} outside address space")
        return self.advise_of_range(self._vablock_range[vablock_id])

    def iter_vablocks(self) -> Iterator[VABlock]:
        for vb in range(self.total_vablocks):
            yield self.vablock(vb)

    def validate_pages(self, pages: np.ndarray) -> None:
        """Raise :class:`AddressError` if any page index is out of bounds."""
        pages = np.asarray(pages)
        if pages.size and (pages.min() < 0 or pages.max() >= self._next_page):
            raise AddressError(
                f"page indices [{pages.min()}, {pages.max()}] outside space "
                f"of {self._next_page} pages"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AddressSpace(ranges={len(self.ranges)}, pages={self.total_pages},"
            f" vablocks={self.total_vablocks})"
        )
