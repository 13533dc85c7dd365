"""Host and device page-table bookkeeping.

The residency state in :mod:`repro.mem.residency` answers *where data
is*; this module models the *mapping* work the driver performs on top -
"updating the local and remote page tables and issuing appropriate memory
barriers to ensure consistency on the GPU" (Section III-D, Mapping data).

The simulator uses it for two purposes:

* charging map/unmap/TLB-invalidate costs with exact operation counts,
* verifying the mapping discipline (a page is GPU-mapped iff resident;
  double-maps and double-unmaps indicate driver-logic bugs and raise).

A table holds one mapped bitset per VABlock (bit ``i`` is the block's
leaf ``i``), the form the fault servicer and the CPU-fault path map and
unmap in, and adds each operation to its :class:`MappingStats` as it
happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import unpack_rows


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
    simulator charges, so one bitset of "mapped" leaves per VABlock plus
    operation counters is a faithful stand-in.  All managed data begins
    host-resident, so the host table starts with every page mapped and
    the GPU table with none.
    """

    def __init__(self, space: AddressSpace, side: str) -> None:
        if side not in ("gpu", "host"):
            raise SimulationError(f"unknown page table side {side!r}")
        self.space = space
        self.side = side
        #: every leaf of a VABlock, the bitset of a fully mapped block.
        self._every = (1 << space.pages_per_vablock) - 1
        start = self._every if side == "host" else 0
        self.mapped = [start] * space.total_vablocks
        self.stats = MappingStats()

    def map(self, vablock_id: int, leaves: int) -> int:
        """Install PTEs for ``leaves`` of one VABlock; returns the number
        newly mapped.

        Mapping an already-mapped page is a permission upgrade in the real
        driver; we count it as a PTE write but not a new mapping.
        """
        if not 0 <= leaves <= self._every:
            raise AddressError(
                f"leaves {leaves:#x} outside the {self.space.pages_per_vablock}-page VABlock"
            )
        mapped = self.mapped[vablock_id]
        self.mapped[vablock_id] = mapped | leaves
        self.stats.pages_mapped += leaves.bit_count()
        return (leaves & ~mapped).bit_count()

    def unmap(self, vablock_id: int, leaves: int) -> int:
        """Remove the PTEs of ``leaves`` of one VABlock; returns the
        number unmapped.

        Unmapping a non-mapped page raises: the driver's unmap paths are
        always guarded by residency checks, so hitting one is a logic bug.
        """
        mapped = self.mapped[vablock_id]
        if leaves & ~mapped:
            raise SimulationError(f"unmap of non-mapped pages on {self.side} table")
        self.mapped[vablock_id] = mapped & ~leaves
        n = leaves.bit_count()
        self.stats.pages_unmapped += n
        return n

    def invalidate_tlb(self) -> None:
        """Issue a TLB invalidate."""
        self.stats.tlb_invalidates += 1

    def membar(self) -> None:
        """Issue a memory barrier publishing recent PTE updates."""
        self.stats.membars += 1

    def check_mapped(self, expected: list[int], description: str = "") -> None:
        """Mapping invariant: the table maps exactly ``expected``, one
        leaf bitset per VABlock.

        The expected bitsets come from the residency state (resident and
        remote-mapped pages on the GPU side; non-resident and duplicated
        pages on the host side) - UVMSAN calls this at batch boundaries.
        """
        if self.mapped != expected:
            diff = unpack_rows(
                [[have ^ want for have, want in zip(self.mapped, expected)]],
                self.space.pages_per_vablock,
            )
            pages = np.flatnonzero(diff)
            what = f" (expected {description})" if description else ""
            raise SimulationError(
                f"{self.side} page table out of sync on {pages.size} pages"
                f"{what}; first mismatches: {pages[:8].tolist()}"
            )
