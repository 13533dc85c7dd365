"""Host and device page-table bookkeeping.

The residency bitmaps in :mod:`repro.mem.residency` answer *where data
is*; this module models the *mapping* work the driver performs on top -
"updating the local and remote page tables and issuing appropriate memory
barriers to ensure consistency on the GPU" (Section III-D, Mapping data).

The simulator uses it for two purposes:

* charging map/unmap/TLB-invalidate costs with exact operation counts,
* verifying the mapping discipline (a page is GPU-mapped iff resident;
  double-maps and double-unmaps indicate driver-logic bugs and raise).

The fault servicer maps and unmaps on a :class:`TableLeaves`, one
batch's copy of the mapped bits of the VABlocks it touches as leaf
bitsets, which :meth:`PageTable.write_rows` writes back with the
batch's mapping stats.  The span and page-list forms serve the
CPU-fault path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, SimulationError
from repro.mem.address_space import AddressSpace


@dataclass
class MappingStats:
    """Lifetime totals of mapping operations."""

    pages_mapped: int = 0
    pages_unmapped: int = 0
    tlb_invalidates: int = 0
    membars: int = 0


class PageTable:
    """Mapping state for one device side (GPU or host).

    The real driver maintains Linux-style multi-level tables; the costs it
    pays are per-PTE writes plus per-block fixed costs, which is what the
    simulator charges, so a flat bitmap of "mapped" bits plus operation
    counters is a faithful stand-in.
    """

    def __init__(self, space: AddressSpace, side: str) -> None:
        if side not in ("gpu", "host"):
            raise SimulationError(f"unknown page table side {side!r}")
        self.space = space
        self.side = side
        self.mapped = np.zeros(space.total_pages, dtype=bool)
        self.stats = MappingStats()
        #: monotonically increasing epoch bumped on every invalidate, so
        #: the TLB model can discard stale translations.
        self.epoch = 0

    def map_span(self, start: int, leaves: np.ndarray) -> int:
        """Install PTEs for the pages ``start + i`` with ``leaves[i]`` set;
        returns the number newly mapped.

        Mapping an already-mapped page is a permission upgrade in the real
        driver; we count it as a PTE write but not a new mapping.
        """
        mapped = self._span(start, leaves)
        n_new = int(np.count_nonzero(np.greater(leaves, mapped)))  # leaves & ~mapped
        mapped |= leaves
        self.stats.pages_mapped += int(np.count_nonzero(leaves))
        return n_new

    def unmap_span(self, start: int, leaves: np.ndarray) -> int:
        """Remove PTEs for the pages ``start + i`` with ``leaves[i]`` set;
        returns the number unmapped.

        Unmapping a non-mapped page raises: the driver's unmap paths are
        always guarded by residency checks, so hitting one is a logic bug.
        """
        mapped = self._span(start, leaves)
        if np.count_nonzero(np.greater(leaves, mapped)):
            raise SimulationError(
                f"unmap of non-mapped pages on {self.side} table"
            )
        np.greater(mapped, leaves, out=mapped)  # mapped & ~leaves
        n = int(np.count_nonzero(leaves))
        self.stats.pages_unmapped += n
        return n

    def _span(self, start: int, leaves: np.ndarray) -> np.ndarray:
        """The mapped bits of ``leaves``' span, as a writable view."""
        mapped = self.mapped[start : start + leaves.size]
        if leaves.dtype.type is not np.bool_ or mapped.shape != leaves.shape or start < 0:
            raise AddressError(
                f"span of {leaves.shape} {leaves.dtype} leaves at page {start} "
                f"is not a boolean leaf mask inside the table of "
                f"{self.mapped.size} pages"
            )
        return mapped

    def map_pages(self, pages: np.ndarray) -> int:
        """:meth:`map_span` for a list of unique pages in any VABlocks
        (the CPU-fault path's scattered lists); returns the number newly
        mapped."""
        return self.map_span(*_covering_span(pages))

    def unmap_pages(self, pages: np.ndarray) -> int:
        """:meth:`unmap_span` for a list of unique pages in any VABlocks;
        returns the number unmapped."""
        return self.unmap_span(*_covering_span(pages))

    def invalidate_tlb(self) -> int:
        """Issue a TLB invalidate; returns the new epoch."""
        self.epoch += 1
        self.stats.tlb_invalidates += 1
        return self.epoch

    def membar(self) -> None:
        """Issue a memory barrier publishing recent PTE updates."""
        self.stats.membars += 1

    def write_rows(self, idx: np.ndarray, rows: np.ndarray, stats: "MappingStats") -> None:
        """Write the mapped bits of VABlocks ``idx`` (``rows``, boolean,
        one row per block) and add ``stats``, the mapping operations a
        batch made on them (:class:`TableLeaves`)."""
        self.mapped.reshape(-1, self.space.pages_per_vablock)[idx] = rows
        self.stats.pages_mapped += stats.pages_mapped
        self.stats.pages_unmapped += stats.pages_unmapped
        self.stats.tlb_invalidates += stats.tlb_invalidates
        self.stats.membars += stats.membars
        self.epoch += stats.tlb_invalidates

    def mapped_count(self) -> int:
        return int(self.mapped.sum())

    def check_mapped(self, expected: np.ndarray, description: str = "") -> None:
        """Mapping invariant: the table maps exactly ``expected`` pages.

        The expected mask comes from the residency state (resident and
        remote-mapped pages on the GPU side; non-resident and duplicated
        pages on the host side) - UVMSAN calls this at batch boundaries.
        """
        if not np.array_equal(self.mapped, expected):
            diff = np.flatnonzero(self.mapped != expected)
            what = f" (expected {description})" if description else ""
            raise SimulationError(
                f"{self.side} page table out of sync on {diff.size} pages"
                f"{what}; first mismatches: {diff[:8].tolist()}"
            )

    def check_against_residency(self, resident: np.ndarray) -> None:
        """GPU-side invariant: mapped iff resident (used in tests)."""
        if self.side != "gpu":
            raise SimulationError("residency check only applies to the GPU table")
        if not np.array_equal(self.mapped, resident):
            diff = int(np.sum(self.mapped != resident))
            raise SimulationError(
                f"GPU page table out of sync with residency on {diff} pages"
            )


class TableLeaves:
    """One batch's copy of a page table: the mapped bits of the VABlocks
    the batch touches (``mapped[vablock]`` is a leaf bitset) and the
    stats of the mapping operations made on them.

    The operations mirror :meth:`PageTable.map_span`,
    :meth:`~PageTable.unmap_span`, :meth:`~PageTable.invalidate_tlb` and
    :meth:`~PageTable.membar`; :meth:`PageTable.write_rows` applies them.
    """

    __slots__ = ("side", "mapped", "stats")

    def __init__(self, side: str) -> None:
        self.side = side
        self.mapped: dict[int, int] = {}
        self.stats = MappingStats()

    def map(self, vablock_id: int, leaves: int) -> int:
        """Install PTEs for ``leaves``; returns the number newly mapped
        (a re-map is a PTE write, counted, but not a new mapping)."""
        mapped = self.mapped[vablock_id]
        self.mapped[vablock_id] = mapped | leaves
        self.stats.pages_mapped += leaves.bit_count()
        return (leaves & ~mapped).bit_count()

    def unmap(self, vablock_id: int, leaves: int) -> int:
        """Remove the PTEs of ``leaves``; unmapping a non-mapped page is
        a driver logic bug and raises."""
        mapped = self.mapped[vablock_id]
        if leaves & ~mapped:
            raise SimulationError(f"unmap of non-mapped pages on {self.side} table")
        self.mapped[vablock_id] = mapped & ~leaves
        n = leaves.bit_count()
        self.stats.pages_unmapped += n
        return n

    def invalidate_tlb(self) -> None:
        self.stats.tlb_invalidates += 1

    def membar(self) -> None:
        self.stats.membars += 1


def _covering_span(pages) -> tuple[int, np.ndarray]:
    """``(start, leaves)``: the span from the lowest to the highest of
    ``pages`` with their leaves set (one pass, whatever the VABlocks)."""
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return 0, np.zeros(0, dtype=bool)
    start = int(pages.min())
    leaves = np.zeros(int(pages.max()) - start + 1, dtype=bool)
    leaves[pages - start] = True
    return start, leaves
