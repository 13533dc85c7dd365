"""Page residency, permissions, duplication, and per-VABlock occupancy.

This is the driver's view of where every page lives and how the GPU may
access it.  The state is one :class:`BlockLeaves` per VABlock
(``ResidencyState.blocks[vablock]``): the block's per-page flags as leaf
bitsets (Python ints, bit ``i`` is leaf ``i``) plus its backing and
lifetime eviction count.

* ``resident``      - a valid copy exists in GPU memory,
* ``writable``      - the GPU mapping has write permission,
* ``duplicated``    - read-only duplication: the host copy is valid too
  (Section III-A's third access behaviour; a GPU write must take a
  permission-upgrade fault that collapses the duplication),
* ``remote_mapped`` - the GPU maps host memory directly (remote mapping
  / zero-copy; no migration, no GPU memory consumed),
* ``dirty``         - the GPU copy was written and must migrate on evict,
* ``backed``        - the VABlock has GPU physical memory reserved,
* ``evictions``     - how many times the VABlock has been evicted.

Every transition - the service path's make resident, evict, duplicate
collapse, remote map and unmap, and the CPU-fault path's duplicate drop
and page-granular migration to the host - is a :class:`BlockLeaves`
method that changes the stored block in place.

The only page-indexed arrays are three masks derived from the blocks,
because the GPU's warp advance scans them on every access:

* ``read_ok  = resident | remote_mapped``
* ``write_ok = (resident & writable) | remote_mapped``
* ``remote_mapped``

They are rewritten for the blocks a batch or a CPU fault touched when it
ends (:meth:`ResidencyState.sync_masks`), so they are stale while a
batch is open.

Conceptually the GPU acts as "a fully-associative cache for CPU memory
where the cache-line size can be treated as a VABlock" (Section V);
this class is the tag/state store of that cache, extended with the
permission bits the three UVM access behaviours require.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import SimulationError
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import unpack_rows

#: the per-page flags of a :class:`BlockLeaves`, in the order
#: :meth:`ResidencyState.page_arrays` lists them.
FLAG_PLANES = ("resident", "writable", "duplicated", "remote_mapped", "dirty")
#: the derived page masks, in the order of their rows in ``_masks``.
MASKS = ("read_ok", "write_ok", "remote_mapped")


class ResidencyState:
    """Residency/permission state of an address space, one block per
    VABlock, and the page masks the GPU scans."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self.blocks = [BlockLeaves(vb) for vb in range(space.total_vablocks)]
        #: the derived masks (see module docstring), one row each, so a
        #: batch writes all three with one scatter.
        self._masks = np.zeros((len(MASKS), space.total_pages), dtype=bool)
        self._take_rows()

    def _take_rows(self) -> None:
        # one view object per mask for the life of the state, so the GPU
        # phase kernel, which keeps a mask's address bound while the same
        # array comes back, binds it once
        self.read_ok, self.write_ok, self.remote_mapped = self._masks

    def __getstate__(self) -> dict:
        # a pickled view would come back as a copy, no longer a row of
        # ``_masks``: the copy takes its rows afresh
        state = self.__dict__.copy()
        for name in MASKS:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._take_rows()

    @property
    def pages_per_vablock(self) -> int:
        return self.space.pages_per_vablock

    def backed_vablocks(self) -> list[int]:
        """Indices of VABlocks currently holding a GPU allocation."""
        return [b.vablock_id for b in self.blocks if b.backed]

    def sync_masks(self, blocks: Iterable["BlockLeaves"]) -> None:
        """Rewrite the derived masks of ``blocks`` (unique) from their
        leaves: one unpack and one scatter."""
        blocks = list(blocks)
        if blocks:
            ppv = self.pages_per_vablock
            idx = [b.vablock_id for b in blocks]
            self._masks.reshape(len(MASKS), -1, ppv)[:, idx] = self._mask_rows(blocks)

    def _mask_rows(self, blocks: list["BlockLeaves"]) -> np.ndarray:
        """The derived masks of ``blocks`` as boolean leaf rows, one
        plane per mask."""
        return unpack_rows(
            [
                [b.resident | b.remote_mapped for b in blocks],
                [(b.resident & b.writable) | b.remote_mapped for b in blocks],
                [b.remote_mapped for b in blocks],
            ],
            self.pages_per_vablock,
        )

    # -- one-block transitions ---------------------------------------------------
    def make_resident(
        self, vablock_id: int, leaves: int, writing: int = 0, writable: int = -1,
        duplicated: int = 0,
    ) -> int:
        """:meth:`BlockLeaves.make_resident` on one stored VABlock, then
        its masks."""
        block = self.blocks[vablock_id]
        n_new = block.make_resident(leaves, writing, writable, duplicated)
        self.sync_masks((block,))
        return n_new

    def evict_vablock(self, vablock_id: int) -> tuple[int, int]:
        """:meth:`BlockLeaves.evict` on one stored VABlock, then its
        masks: the leaves that were resident and those that were dirty."""
        block = self.blocks[vablock_id]
        evicted = block.evict()
        self.sync_masks((block,))
        return evicted

    # -- invariants ---------------------------------------------------------------
    def expected_gpu_mapped(self) -> list[int]:
        """Per VABlock, the leaves the GPU table must map: resident or
        remote-mapped."""
        return [b.resident | b.remote_mapped for b in self.blocks]

    def expected_host_mapped(self) -> list[int]:
        """Per VABlock, the leaves the host table must map.

        A page's host mapping is torn down exactly when its only valid
        copy migrates to the GPU; duplicated pages keep a valid host
        mapping alongside the read-only GPU copy.
        """
        every = (1 << self.pages_per_vablock) - 1
        return [every & ~b.resident | b.duplicated for b in self.blocks]

    def check_invariants(self) -> None:
        """Internal-consistency assertions used by tests and debug runs."""
        ppv = self.pages_per_vablock
        for b in self.blocks:
            leaves = b.resident | b.writable | b.duplicated | b.remote_mapped | b.dirty
            if leaves < 0 or leaves >> ppv:
                raise SimulationError(f"leaves outside VABlock {b.vablock_id}")
            if b.dirty & ~b.resident:
                raise SimulationError("dirty page that is not resident")
            if b.dirty & ~b.writable:
                raise SimulationError("dirty page without write permission")
            if b.writable & ~b.resident:
                raise SimulationError("writable mapping without residency")
            if b.duplicated & ~b.resident:
                raise SimulationError("duplicated flag on non-resident page")
            if b.duplicated & b.writable:
                raise SimulationError("duplicated page with write permission")
            if b.remote_mapped & b.resident:
                raise SimulationError("page both remote-mapped and resident")
            if b.resident and not b.backed:
                raise SimulationError("resident pages in unbacked VABlock")
        derived = self._mask_rows(self.blocks).reshape(len(MASKS), -1)
        for name, have, want in zip(MASKS, self._masks, derived):
            if not np.array_equal(have, want):
                raise SimulationError(f"{name} mask out of sync")

    def page_arrays(self) -> dict[str, np.ndarray]:
        """The state as arrays: each flag of :data:`FLAG_PLANES` and each
        derived mask per page (bool), and per VABlock ``backed`` (bool),
        ``resident_count`` (int32) and ``evict_count`` (int64)."""
        blocks = self.blocks
        planes = unpack_rows(
            [[getattr(b, name) for b in blocks] for name in FLAG_PLANES],
            self.pages_per_vablock,
        )
        arrays = {name: rows.reshape(-1) for name, rows in zip(FLAG_PLANES, planes)}
        arrays["backed"] = np.array([b.backed for b in blocks], dtype=bool)
        arrays["resident_count"] = np.array(
            [b.resident.bit_count() for b in blocks], dtype=np.int32
        )
        arrays["evict_count"] = np.array([b.evictions for b in blocks], dtype=np.int64)
        arrays["read_ok"] = self.read_ok.copy()
        arrays["write_ok"] = self.write_ok.copy()
        return arrays

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResidencyState(resident={sum(b.resident.bit_count() for b in self.blocks)},"
            f" backed={len(self.backed_vablocks())}/{len(self.blocks)})"
        )


class BlockLeaves:
    """One VABlock's residency flags as leaf bitsets, and the transitions
    on them.

    Each transition checks its preconditions before it changes anything,
    so a transition that raises leaves the block as it was.
    """

    __slots__ = (
        "vablock_id", "resident", "writable", "duplicated", "remote_mapped", "dirty",
        "backed", "evictions",
    )

    def __init__(self, vablock_id: int) -> None:
        self.vablock_id = vablock_id
        self.resident = self.writable = self.duplicated = 0
        self.remote_mapped = self.dirty = 0
        self.backed = False
        #: lifetime count of times the block has been evicted.
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

    def drop_duplicates(self, leaves: int) -> int:
        """Host write to ``leaves``: drop the (clean) GPU copies of the
        duplicated ones and return those leaves.

        No data moves - the host copy is authoritative for duplicated
        pages - but the GPU mappings are torn down and the pages will
        re-fault on the next GPU touch.
        """
        dropping = leaves & self.duplicated
        self.resident &= ~dropping
        self.duplicated &= ~dropping
        self.writable &= ~dropping
        return dropping

    def migrate_to_host(self, leaves: int) -> tuple[int, int]:
        """CPU fault on ``leaves``: page-granular migration to the host.

        Unlike eviction this leaves the block's physical backing in
        place (the driver keeps the allocation; only the touched pages
        move).  Duplicated pages are skipped - the host copy is already
        valid, so a host *read* takes no fault (a host write drops them
        first, :meth:`drop_duplicates`).  Returns the leaves that moved
        and those of them that were dirty (GPU modifications that must
        be copied).
        """
        moving = leaves & self.resident & ~self.duplicated
        dirty = moving & self.dirty
        self.resident &= ~moving
        self.writable &= ~moving
        self.dirty &= ~moving
        return moving, dirty
