"""Page residency, permissions, duplication, and per-VABlock occupancy.

This is the driver's view of where every page lives and how the GPU may
access it.  It is the performance-critical data structure of the
simulator, so state is kept in flat numpy arrays indexed by global page
number:

* ``resident[page]``   - a valid copy exists in GPU memory,
* ``writable[page]``   - the GPU mapping has write permission,
* ``duplicated[page]`` - read-only duplication: the host copy is valid
  too (Section III-A's third access behaviour; a GPU write must take a
  permission-upgrade fault that collapses the duplication),
* ``remote_mapped[page]`` - the GPU maps host memory directly (remote
  mapping / zero-copy; no migration, no GPU memory consumed),
* ``dirty[page]``      - the GPU copy was written and must migrate on
  evict,
* ``backed[vablock]``  - the VABlock has GPU physical memory reserved,
* ``resident_count[vablock]`` - cached popcount of the block's
  ``resident`` leaves.

The service path's transitions (make resident, evict, duplicate
collapse, remote map and unmap) are methods of :class:`BlockLeaves`,
one VABlock's flags as leaf bitsets (Python ints, bit ``i`` is leaf
``i``).  The fault servicer gathers the blocks of a fault batch with
:meth:`ResidencyState.blocks`, applies every transition of the batch to
them in order, and writes them back with :meth:`ResidencyState.write`,
one gather and one scatter per array.  The per-block methods of
:class:`ResidencyState` (:meth:`~ResidencyState.make_resident`,
:meth:`~ResidencyState.evict_vablock`, ...) take a boolean leaf mask and
run the same transition on a one-block gather.  Host-side transitions
(CPU faults) take scattered page lists.

Two derived masks are maintained incrementally because the GPU's warp
advance scans them on every access:

* ``read_ok  = resident | remote_mapped``
* ``write_ok = (resident & writable) | remote_mapped``

Conceptually the GPU acts as "a fully-associative cache for CPU memory
where the cache-line size can be treated as a VABlock" (Section V);
this class is the tag/state store of that cache, extended with the
permission bits the three UVM access behaviours require.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import AddressError, SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import bits_of, gather_rows, mask_of, unpack_rows

#: the per-page flag arrays whose rows a :class:`BlockLeaves` carries as
#: bitset fields of the same names.
FLAG_PLANES = ("resident", "writable", "duplicated", "remote_mapped", "dirty")


class ResidencyState:
    """Vectorized residency/permission bookkeeping over an address space."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        n_pages = space.total_pages
        n_vablocks = space.total_vablocks
        self.resident = np.zeros(n_pages, dtype=bool)
        self.writable = np.zeros(n_pages, dtype=bool)
        self.duplicated = np.zeros(n_pages, dtype=bool)
        self.remote_mapped = np.zeros(n_pages, dtype=bool)
        self.dirty = np.zeros(n_pages, dtype=bool)
        self.backed = np.zeros(n_vablocks, dtype=bool)
        self.resident_count = np.zeros(n_vablocks, dtype=np.int32)
        #: lifetime count of times each VABlock has been evicted.
        self.evict_count = np.zeros(n_vablocks, dtype=np.int64)
        # derived access masks (see module docstring)
        self.read_ok = np.zeros(n_pages, dtype=bool)
        self.write_ok = np.zeros(n_pages, dtype=bool)

    # -- queries ---------------------------------------------------------------
    @property
    def pages_per_vablock(self) -> int:
        return self.space.pages_per_vablock

    def is_resident(self, pages) -> np.ndarray:
        """Boolean residency for an array of global page indices."""
        return self.resident[np.asarray(pages, dtype=np.int64)]

    def vablock_leaf_mask(self, vablock_id: int) -> np.ndarray:
        """Residency mask of the leaves of ``vablock_id`` (a view)."""
        start, stop = self.space.page_span_of_vablock(vablock_id)
        return self.resident[start:stop]

    def total_resident_pages(self) -> int:
        return int(self.resident_count.sum())

    def backed_vablocks(self) -> np.ndarray:
        """Indices of VABlocks currently holding a GPU allocation."""
        return np.flatnonzero(self.backed)

    def _refresh_masks(self, pages: np.ndarray) -> None:
        self.read_ok[pages] = self.resident[pages] | self.remote_mapped[pages]
        self.write_ok[pages] = (
            self.resident[pages] & self.writable[pages]
        ) | self.remote_mapped[pages]

    # -- state transitions -------------------------------------------------------
    def back_vablock(self, vablock_id: int) -> None:
        """Reserve GPU physical memory for a VABlock (allocation granule)."""
        if self.backed[vablock_id]:
            raise SimulationError(f"VABlock {vablock_id} already backed")
        self.backed[vablock_id] = True

    # -- per-block state as leaf bitsets ------------------------------------------
    def blocks(self, vablocks) -> list["BlockLeaves"]:
        """The current state of each of ``vablocks`` (unique) as
        :class:`BlockLeaves`, gathered in one pass per array."""
        idx = np.asarray(vablocks, dtype=np.int64)
        planes = gather_rows(
            [getattr(self, name) for name in FLAG_PLANES], idx, self.pages_per_vablock
        )
        return [
            BlockLeaves(vb, *flags)
            for vb, *flags in zip(idx.tolist(), *planes, self.backed[idx].tolist())
        ]

    def block(self, vablock_id: int) -> "BlockLeaves":
        """The current state of one VABlock (see :meth:`blocks`)."""
        self.space.page_span_of_vablock(vablock_id)  # range check
        return self.blocks([vablock_id])[0]

    def write(self, blocks: list["BlockLeaves"]) -> None:
        """Write back the final state of ``blocks`` (unique VABlocks
        gathered by :meth:`blocks`); see :meth:`write_rows`."""
        idx = np.fromiter((b.vablock_id for b in blocks), dtype=np.int64, count=len(blocks))
        planes = unpack_rows(
            [[getattr(b, name) for b in blocks] for name in FLAG_PLANES],
            self.pages_per_vablock,
        )
        self.write_rows(idx, planes, blocks)

    def write_rows(
        self, idx: np.ndarray, planes: Sequence[np.ndarray], blocks: list["BlockLeaves"]
    ) -> None:
        """Write ``blocks`` (VABlocks ``idx``) with their flag rows
        ``planes`` (``planes[p]`` the boolean rows of ``FLAG_PLANES[p]``):
        one scatter per array.  The cached counts and the derived access
        masks follow from the rows; each block's evictions are added to
        ``evict_count``."""
        ppv = self.pages_per_vablock
        for name, rows in zip(FLAG_PLANES, planes):
            getattr(self, name).reshape(-1, ppv)[idx] = rows
        resident, writable, _, remote, _ = planes
        self.read_ok.reshape(-1, ppv)[idx] = resident | remote
        self.write_ok.reshape(-1, ppv)[idx] = (resident & writable) | remote
        self.resident_count[idx] = np.count_nonzero(resident, axis=1)
        self.backed[idx] = [b.backed for b in blocks]
        evictions = [b.evictions for b in blocks]
        if any(evictions):
            self.evict_count[idx] += evictions

    def _transition(self, vablock_id: int, leaves: np.ndarray, method, *flags):
        """Run one :class:`BlockLeaves` transition on ``vablock_id`` and
        write it back; ``leaves`` must be a boolean mask over exactly the
        block's leaves.  Nothing is written when the transition raises."""
        start, stop = self.space.page_span_of_vablock(vablock_id)
        if leaves.dtype.type is not np.bool_ or leaves.shape != (stop - start,):
            raise AddressError(
                f"leaves must be a boolean mask of shape ({stop - start},)"
            )
        block = self.blocks([vablock_id])[0]
        out = method(block, bits_of(leaves), *(_flag_bits(f, leaves) for f in flags))
        self.write([block])
        return out

    def make_resident(
        self,
        vablock_id: int,
        leaves: np.ndarray,
        writing: np.ndarray | bool = False,
        writable: np.ndarray | bool = True,
        duplicated: np.ndarray | bool = False,
    ) -> int:
        """:meth:`BlockLeaves.make_resident` on one VABlock; each flag is
        a bool for every leaf alike or a leaf mask of the block."""
        return self._transition(
            vablock_id, leaves, BlockLeaves.make_resident, writing, writable, duplicated
        )

    def collapse_duplicates(self, vablock_id: int, leaves: np.ndarray) -> int:
        """:meth:`BlockLeaves.collapse_duplicates` on one VABlock."""
        return self._transition(vablock_id, leaves, BlockLeaves.collapse_duplicates)

    def map_remote(self, vablock_id: int, leaves: np.ndarray) -> int:
        """:meth:`BlockLeaves.map_remote` on one VABlock."""
        return self._transition(vablock_id, leaves, BlockLeaves.map_remote)

    def evict_vablock(self, vablock_id: int) -> "EvictedLeaves":
        """:meth:`BlockLeaves.evict` on one VABlock: the counts and leaf
        masks of the pages that were resident and of those that were
        dirty (the ones that need a device-to-host migration)."""
        block = self.block(vablock_id)
        resident, dirty = block.evict()
        self.write([block])
        ppv = self.pages_per_vablock
        return EvictedLeaves(
            resident.bit_count(), dirty.bit_count(), mask_of(resident, ppv), mask_of(dirty, ppv)
        )

    def mark_dirty(self, pages: np.ndarray) -> None:
        """Record GPU writes to already-resident writable pages."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if not (self.resident[pages] & self.writable[pages]).all():
            raise SimulationError("marking non-writable pages dirty")
        self.dirty[pages] = True

    def invalidate_duplicates(self, pages: np.ndarray) -> int:
        """Host write to duplicated pages: drop the (clean) GPU copies.

        No data moves - the host copy is authoritative for duplicated
        pages - but the GPU mappings are torn down and the pages will
        re-fault on the next GPU touch.  Returns the number dropped.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return 0
        dropping = pages[self.duplicated[pages]]
        if dropping.size == 0:
            return 0
        self.resident[dropping] = False
        self.duplicated[dropping] = False
        self.writable[dropping] = False
        np.add.at(self.resident_count, dropping // self.pages_per_vablock, -1)
        self._refresh_masks(dropping)
        return int(dropping.size)

    def migrate_to_host(self, pages: np.ndarray) -> tuple[int, int]:
        """CPU-fault path: page-granular migration back to the host.

        Unlike eviction this is *page*-granular and leaves the VABlock's
        physical backing in place (the driver keeps the allocation; only
        the touched pages move).  Duplicated pages are skipped - the
        host copy is already valid, so a host *read* takes no fault
        (use :meth:`invalidate_duplicates` for host writes).  Returns
        ``(migrated, dirty)`` where ``dirty`` pages carried GPU
        modifications that must be copied.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return 0, 0
        moving = pages[self.resident[pages] & ~self.duplicated[pages]]
        if moving.size == 0:
            return 0, 0
        n_dirty = int(self.dirty[moving].sum())
        self.resident[moving] = False
        self.writable[moving] = False
        self.dirty[moving] = False
        np.add.at(self.resident_count, moving // self.pages_per_vablock, -1)
        self._refresh_masks(moving)
        return int(moving.size), n_dirty

    # -- invariants ---------------------------------------------------------------
    def expected_gpu_mapped(self) -> np.ndarray:
        """The pages the GPU table must map: resident or remote-mapped."""
        return self.resident | self.remote_mapped

    def expected_host_mapped(self) -> np.ndarray:
        """The pages the host table must map.

        A page's host mapping is torn down exactly when its only valid
        copy migrates to the GPU; duplicated pages keep a valid host
        mapping alongside the read-only GPU copy.
        """
        return ~self.resident | self.duplicated

    def check_invariants(self) -> None:
        """Internal-consistency assertions used by tests and debug runs."""
        ppv = self.pages_per_vablock
        counts = self.resident.reshape(-1, ppv).sum(axis=1)
        if not np.array_equal(counts, self.resident_count):
            raise SimulationError("resident_count cache out of sync with bitmap")
        if (self.dirty & ~self.resident).any():
            raise SimulationError("dirty page that is not resident")
        if (self.dirty & ~self.writable).any():
            raise SimulationError("dirty page without write permission")
        if (self.writable & ~self.resident).any():
            raise SimulationError("writable mapping without residency")
        if (self.duplicated & ~self.resident).any():
            raise SimulationError("duplicated flag on non-resident page")
        if (self.duplicated & self.writable).any():
            raise SimulationError("duplicated page with write permission")
        if (self.remote_mapped & self.resident).any():
            raise SimulationError("page both remote-mapped and resident")
        unbacked = ~self.backed
        if self.resident_count[unbacked].any():
            raise SimulationError("resident pages in unbacked VABlock")
        if not np.array_equal(self.read_ok, self.resident | self.remote_mapped):
            raise SimulationError("read_ok mask out of sync")
        if not np.array_equal(
            self.write_ok, (self.resident & self.writable) | self.remote_mapped
        ):
            raise SimulationError("write_ok mask out of sync")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResidencyState(resident={self.total_resident_pages()},"
            f" backed={int(self.backed.sum())}/{len(self.backed)})"
        )


class BlockLeaves:
    """One VABlock's residency flags as leaf bitsets, and the service
    path's transitions on them.

    Each transition checks its preconditions before it changes anything,
    so a transition that raises leaves the block as it was.
    """

    __slots__ = (
        "vablock_id", "resident", "writable", "duplicated", "remote_mapped", "dirty",
        "backed", "evictions",
    )

    def __init__(
        self, vablock_id: int, resident: int = 0, writable: int = 0,
        duplicated: int = 0, remote_mapped: int = 0, dirty: int = 0, backed: bool = False,
    ) -> None:
        self.vablock_id = vablock_id
        self.resident = resident
        self.writable = writable
        self.duplicated = duplicated
        self.remote_mapped = remote_mapped
        self.dirty = dirty
        self.backed = backed
        #: evictions since the block was gathered.
        self.evictions = 0

    def back(self) -> None:
        """Reserve GPU physical memory for the block (allocation granule)."""
        if self.backed:
            raise SimulationError(f"VABlock {self.vablock_id} already backed")
        self.backed = True

    def make_resident(
        self, leaves: int, writing: int = 0, writable: int = -1, duplicated: int = 0
    ) -> int:
        """Mark ``leaves`` resident on the GPU; returns how many were new.

        The block must already be backed - the driver allocates physical
        memory before migrating (Section III-D).  ``writing`` marks
        pages dirty; ``writable`` sets the mapping permission (the stock
        migration path maps read-write, ``-1`` being every leaf);
        ``duplicated`` flags read-mostly copies whose host mapping stays
        valid (mutually exclusive with ``writable``/``writing``).  Only
        a flag's bits under ``leaves`` count.
        """
        if not self.backed:
            raise SimulationError(
                f"making pages resident in unbacked VABlock {self.vablock_id}"
            )
        if leaves & self.remote_mapped:
            raise SimulationError("migrating pages that are remote-mapped")
        writing &= leaves
        writable &= leaves
        duplicated &= leaves
        if writing & ~writable:
            raise SimulationError("writing through a read-only mapping")
        if duplicated & writable:
            raise SimulationError("a duplicated copy cannot be writable")
        n_new = (leaves & ~self.resident).bit_count()
        self.resident |= leaves
        self.writable |= writable
        self.duplicated = (self.duplicated & ~leaves) | (duplicated & ~self.writable)
        self.dirty |= writing
        return n_new

    def collapse_duplicates(self, leaves: int) -> int:
        """Write-permission upgrade: break read-only duplication.

        The touched leaves' host copies become stale: the GPU mapping is
        upgraded to writable and the pages go dirty.  Returns how many
        pages actually collapsed (non-duplicated leaves are ignored).
        """
        collapsing = leaves & self.duplicated
        if collapsing & ~self.resident:
            raise SimulationError("collapsing duplicates that are not resident")
        self.duplicated &= ~collapsing
        self.writable |= collapsing
        self.dirty |= collapsing
        return collapsing.bit_count()

    def map_remote(self, leaves: int) -> int:
        """Install remote (zero-copy) mappings for ``leaves``; returns
        how many were new.  Remote-mapped pages consume no GPU memory
        and never migrate; reads and writes cross the interconnect."""
        if leaves & self.resident:
            raise SimulationError("remote-mapping pages that are GPU-resident")
        n_new = (leaves & ~self.remote_mapped).bit_count()
        self.remote_mapped |= leaves
        return n_new

    def unmap_remote(self, leaves: int) -> int:
        """Tear down the remote mappings of ``leaves`` (counter-triggered
        promotion, which migrates the pages right after); returns how
        many were removed."""
        if leaves & ~self.remote_mapped:
            raise SimulationError("unmap_remote on pages that are not remote")
        self.remote_mapped &= ~leaves
        return leaves.bit_count()

    def evict(self) -> tuple[int, int]:
        """Evict the block: every resident page is unmapped and the
        physical backing released.  Returns the leaves that were
        resident and those of them that were dirty."""
        if not self.backed:
            raise SimulationError(f"evicting unbacked VABlock {self.vablock_id}")
        resident, dirty = self.resident, self.dirty & self.resident
        self.resident = self.writable = self.duplicated = self.dirty = 0
        self.backed = False
        self.evictions += 1
        return resident, dirty


class EvictedLeaves(NamedTuple):
    """What :meth:`ResidencyState.evict_vablock` tore down."""

    n_resident: int
    n_dirty: int
    #: leaf masks of the victim's resident and dirty pages before eviction.
    resident: np.ndarray
    dirty: np.ndarray


def _flag_bits(value, leaves: np.ndarray) -> int:
    """A per-leaf flag as a bitset: a bool is every leaf alike (-1 or 0),
    a mask must have the shape of ``leaves``."""
    if np.ndim(value) == 0:
        return -1 if value else 0
    mask = np.asarray(value, dtype=bool)
    if mask.shape != leaves.shape:
        raise AddressError("mask shape mismatch")
    return bits_of(mask)
