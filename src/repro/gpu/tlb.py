"""uTLB fault coalescing.

Each graphics processing cluster (GPC) owns a uTLB that performs the page
table walk; on a miss it raises a far-fault into the fault buffer
(Section III-A).  A uTLB tracks the translations it is already waiting
on, so multiple warps on the same GPC missing the same page in the same
interval produce *one* fault entry; warps on different GPCs produce
duplicates (fault-source erasure means the driver cannot tell).

The pending set of a uTLB is cleared by a replay notification: after a
replay, an unsatisfied access walks the table and faults again, which is
exactly how duplicate faults reach the driver across replays.

The pending filters are stored as one flat boolean array with a cell
per (page, GPC) pair, ``page * n_gpcs + gpc`` (``UTlbArray.cells``),
sized to cover every page a kernel's streams touch
(:meth:`UTlbArray.cover`).  The phase kernel (:mod:`repro.gpu.ckernel`)
raises a whole phase's misses against those cells in one C loop: a
pending cell coalesces the miss; otherwise the entry is pushed and its
cell set while the fault buffer has room, and after that it is dropped
with its cell left clear, so the warp's re-raise after the next replay
is not coalesced onto a record that never reached the buffer.  Growing
the page range appends cells, so a cell index stays valid, and the
device records the cells each phase set (:meth:`UTlbArray.note_raised`):
a replay clears just those instead of the whole array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class UTlbArray:
    """Per-GPC pending-fault filters."""

    def __init__(self, n_gpcs: int = 6, sms_per_gpc: int = 14) -> None:
        if n_gpcs <= 0 or sms_per_gpc <= 0:
            raise ConfigurationError("n_gpcs and sms_per_gpc must be positive")
        self.n_gpcs = n_gpcs
        self.sms_per_gpc = sms_per_gpc
        #: flat pending cells (``page * n_gpcs + gpc``), grown on demand (a
        #: grown array is a new one); starts empty because the page-space
        #: extent is unknown at build time.
        self.cells = np.zeros(0, dtype=bool)
        #: arrays of the cells set since the last replay
        self._set_cells: list[np.ndarray] = []

    def cover(self, max_page: int) -> None:
        """Grow the pending cells to cover ``max_page`` (geometric)."""
        width = self.cells.size // self.n_gpcs
        if max_page < width:
            return
        new_width = max(max_page + 1, width * 2, 1024)
        grown = np.zeros(new_width * self.n_gpcs, dtype=bool)
        grown[: self.cells.size] = self.cells
        self.cells = grown

    def note_raised(self, cells: np.ndarray) -> None:
        """Record cells a phase set, for the next replay to clear."""
        self._set_cells.append(cells)

    def on_replay(self) -> None:
        """A replay retries all outstanding accesses: clear pending sets.

        Unsatisfied accesses will re-walk and re-raise, creating the
        duplicate faults the batch-flush policy exists to suppress.
        """
        if self._set_cells:
            self.cells[np.concatenate(self._set_cells)] = False
            self._set_cells.clear()
