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
* ``resident_count[vablock]`` - cached popcount the density prefetcher
  reads.

The service path's transitions (:meth:`~ResidencyState.make_resident`,
:meth:`~ResidencyState.evict_vablock`, duplicate collapse and remote
mapping) are slice-local: they take one VABlock and a boolean mask over
its leaves and touch only that block's span of each array.  Host-side
transitions (CPU faults) take scattered page lists.

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

from typing import NamedTuple

import numpy as np

from repro.errors import AddressError, SimulationError
from repro.mem.address_space import AddressSpace


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

    def _leaf_span(self, vablock_id: int, leaves: np.ndarray) -> slice:
        """The page span of ``vablock_id`` after checking ``leaves`` is
        a boolean mask over exactly its leaves."""
        start, stop = self.space.page_span_of_vablock(vablock_id)
        if leaves.dtype.type is not np.bool_ or leaves.shape != (stop - start,):
            raise AddressError(
                f"leaves must be a boolean mask of shape ({stop - start},)"
            )
        return slice(start, stop)

    def make_resident(
        self,
        vablock_id: int,
        leaves: np.ndarray,
        writing: np.ndarray | bool = False,
        writable: np.ndarray | bool = True,
        duplicated: np.ndarray | bool = False,
    ) -> int:
        """Mark the ``leaves`` of one VABlock resident on the GPU; returns
        how many were new.

        The VABlock must already be backed - the driver allocates
        physical memory before migrating (Section III-D).  ``writing``
        marks pages dirty; ``writable`` sets the mapping permission (the
        stock migration path maps read-write); ``duplicated`` flags
        read-mostly copies whose host mapping stays valid (mutually
        exclusive with ``writable``/``writing``).  Each flag is a bool
        for every leaf alike or a leaf mask of the block; only its bits
        under ``leaves`` count.
        """
        span = self._leaf_span(vablock_id, leaves)
        if not self.backed[vablock_id]:
            raise SimulationError(
                f"making pages resident in unbacked VABlock {vablock_id}"
            )
        if np.count_nonzero(leaves & self.remote_mapped[span]):
            raise SimulationError("migrating pages that are remote-mapped")

        writing_m = _as_flag(writing, leaves)
        writable_m = _as_flag(writable, leaves)
        duplicated_m = _as_flag(duplicated, leaves)
        if _any_both(writing_m, _negate(writable_m, leaves)):
            raise SimulationError("writing through a read-only mapping")
        if _any_both(duplicated_m, writable_m):
            raise SimulationError("a duplicated copy cannot be writable")

        resident = self.resident[span]
        resident |= leaves
        # resident_count caches the block's popcount, so the new leaves
        # are the difference
        count = int(np.count_nonzero(resident))
        n_new = count - int(self.resident_count[vablock_id])
        self.resident_count[vablock_id] = count
        writable_v = self.writable[span]
        if writable_m is True:
            writable_v |= leaves
        elif writable_m is not False:
            writable_v |= writable_m
        if duplicated_m is False:
            _clear(self.duplicated[span], leaves)
        else:
            fresh = ~writable_v if duplicated_m is True else duplicated_m & ~writable_v
            np.copyto(self.duplicated[span], fresh, where=leaves)
        if writing_m is True:
            self.dirty[span] |= leaves
        elif writing_m is not False:
            self.dirty[span] |= writing_m
        # the leaves are now resident and (checked above) not remote-
        # mapped, so read_ok is set and write_ok follows writable
        self.read_ok[span] |= leaves
        if writable_m is True:
            self.write_ok[span] |= leaves
        else:
            np.copyto(self.write_ok[span], writable_v, where=leaves)
        return n_new

    def mark_dirty(self, pages: np.ndarray) -> None:
        """Record GPU writes to already-resident writable pages."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if not (self.resident[pages] & self.writable[pages]).all():
            raise SimulationError("marking non-writable pages dirty")
        self.dirty[pages] = True

    def collapse_duplicates(self, vablock_id: int, leaves: np.ndarray) -> int:
        """Write-permission upgrade: break read-only duplication.

        The touched leaves' host copies become stale: the GPU mapping is
        upgraded to writable and the pages go dirty.  Returns how many
        pages actually collapsed (non-duplicated leaves are ignored).
        """
        span = self._leaf_span(vablock_id, leaves)
        collapsing = leaves & self.duplicated[span]
        n = int(np.count_nonzero(collapsing))
        if not n:
            return 0
        if np.count_nonzero(np.greater(collapsing, self.resident[span])):
            raise SimulationError("collapsing duplicates that are not resident")
        _clear(self.duplicated[span], collapsing)
        self.writable[span] |= collapsing
        self.dirty[span] |= collapsing
        # resident and now writable: read_ok already holds
        self.write_ok[span] |= collapsing
        return n

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

    def map_remote(self, vablock_id: int, leaves: np.ndarray) -> int:
        """Install remote (zero-copy) mappings for the ``leaves`` of one
        VABlock; returns how many were new.

        Remote-mapped pages consume no GPU memory and never migrate;
        reads and writes go over the interconnect.
        """
        span = self._leaf_span(vablock_id, leaves)
        if np.count_nonzero(leaves & self.resident[span]):
            raise SimulationError("remote-mapping pages that are GPU-resident")
        remote = self.remote_mapped[span]
        n_new = int(np.count_nonzero(np.greater(leaves, remote)))
        remote |= leaves
        self.read_ok[span] |= leaves
        self.write_ok[span] |= leaves
        return n_new

    def unmap_remote(self, vablock_id: int, leaves: np.ndarray) -> int:
        """Tear down the remote mappings of the ``leaves`` of one VABlock
        (counter-triggered promotion path).

        Returns how many mappings were removed; the caller is expected
        to migrate the pages to local memory immediately after.
        """
        span = self._leaf_span(vablock_id, leaves)
        remote = self.remote_mapped[span]
        if np.count_nonzero(np.greater(leaves, remote)):
            raise SimulationError("unmap_remote on pages that are not remote")
        _clear(remote, leaves)
        resident = self.resident[span]
        np.copyto(self.read_ok[span], resident, where=leaves)
        np.copyto(self.write_ok[span], resident & self.writable[span], where=leaves)
        return int(np.count_nonzero(leaves))

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

    def evict_vablock(self, vablock_id: int) -> "EvictedLeaves":
        """Evict a VABlock: every resident page is unmapped and the
        physical backing released.

        Returns the counts and leaf masks of the pages that were
        resident and of those that were dirty - the ones that need a
        device-to-host migration (modified data copied back, Section
        V-A1).
        """
        if not self.backed[vablock_id]:
            raise SimulationError(f"evicting unbacked VABlock {vablock_id}")
        start, stop = self.space.page_span_of_vablock(vablock_id)
        span = slice(start, stop)
        resident = self.resident[span].copy()
        dirty = self.dirty[span] & resident
        self.resident[span] = False
        self.writable[span] = False
        self.duplicated[span] = False
        self.dirty[span] = False
        self.backed[vablock_id] = False
        self.resident_count[vablock_id] = 0
        self.evict_count[vablock_id] += 1
        # nothing is resident: only remote mappings still grant access
        self.read_ok[span] = self.remote_mapped[span]
        self.write_ok[span] = self.remote_mapped[span]
        return EvictedLeaves(
            int(np.count_nonzero(resident)), int(np.count_nonzero(dirty)), resident, dirty
        )

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


class EvictedLeaves(NamedTuple):
    """What :meth:`ResidencyState.evict_vablock` tore down."""

    n_resident: int
    n_dirty: int
    #: leaf masks of the victim's resident and dirty pages before eviction.
    resident: np.ndarray
    dirty: np.ndarray


def _as_flag(value, leaves: np.ndarray):
    """A per-leaf flag as a plain bool (every leaf alike, so the common
    cases build no mask) or as a leaf mask restricted to ``leaves``."""
    if value is True or value is False:
        return value
    if isinstance(value, np.bool_) or np.ndim(value) == 0:
        return bool(value)
    mask = np.asarray(value, dtype=bool)
    if mask.shape != leaves.shape:
        raise AddressError("mask shape mismatch")
    return mask & leaves


def _clear(view: np.ndarray, mask: np.ndarray) -> None:
    """``view &= ~mask`` in one ufunc pass (on booleans, a > b is a & ~b)."""
    np.greater(view, mask, out=view)


def _negate(flag, leaves: np.ndarray):
    """Logical not of a bool or of a leaf mask, within ``leaves``."""
    return (not flag) if isinstance(flag, bool) else np.greater(leaves, flag)


def _any_both(a, b) -> bool:
    """Whether some leaf has both flags (each a bool or a leaf mask)."""
    if a is False or b is False:
        return False
    if a is True:
        return bool(np.count_nonzero(b))
    if b is True:
        return bool(np.count_nonzero(a))
    return bool(np.count_nonzero(a & b))
