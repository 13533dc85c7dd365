"""Host and device page-table bookkeeping.

The residency bitmaps in :mod:`repro.mem.residency` answer *where data
is*; this module models the *mapping* work the driver performs on top -
"updating the local and remote page tables and issuing appropriate memory
barriers to ensure consistency on the GPU" (Section III-D, Mapping data).

The simulator uses it for two purposes:

* charging map/unmap/TLB-invalidate costs with exact operation counts,
* verifying the mapping discipline (a page is GPU-mapped iff resident;
  double-maps and double-unmaps indicate driver-logic bugs and raise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
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

    def map_pages(self, pages: np.ndarray) -> int:
        """Install PTEs for ``pages``; returns the number newly mapped.

        Mapping an already-mapped page is a permission upgrade in the real
        driver; we count it as a PTE write but not a new mapping.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return 0
        self.space.validate_pages(pages)
        was_mapped = self.mapped[pages]
        self.mapped[pages] = True
        self.stats.pages_mapped += int(pages.size)
        return int(pages.size - np.count_nonzero(was_mapped))

    def unmap_pages(self, pages: np.ndarray) -> int:
        """Remove PTEs for ``pages``; returns the number actually unmapped.

        Unmapping a non-mapped page raises: the driver's unmap paths are
        always guarded by residency checks, so hitting one is a logic bug.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return 0
        if not self.mapped[pages].all():
            raise SimulationError(
                f"unmap of non-mapped pages on {self.side} table"
            )
        self.mapped[pages] = False
        self.stats.pages_unmapped += int(pages.size)
        return int(pages.size)

    def invalidate_tlb(self) -> int:
        """Issue a TLB invalidate; returns the new epoch."""
        self.epoch += 1
        self.stats.tlb_invalidates += 1
        return self.epoch

    def membar(self) -> None:
        """Issue a memory barrier publishing recent PTE updates."""
        self.stats.membars += 1

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
