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
per (page, GPC) pair, ``page * n_gpcs + gpc``, lazily sized to the
highest page seen.  The phase engine tests and updates a whole phase's
fault batch in one C loop over that array (:meth:`UTlbArray.raise_batch`).
The per-entry methods (:meth:`should_raise_gpc` / :meth:`forget_gpc`)
operate on the same array; they are the loop that ``raise_batch`` runs.
Growing the page range appends cells, so a cell index stays valid, and
every raise records the cells it sets: a replay clears just those
instead of the whole array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu import ckernel


class UTlbArray:
    """Per-GPC pending-fault filters."""

    def __init__(self, n_gpcs: int = 6, sms_per_gpc: int = 14) -> None:
        if n_gpcs <= 0 or sms_per_gpc <= 0:
            raise ConfigurationError("n_gpcs and sms_per_gpc must be positive")
        self.n_gpcs = n_gpcs
        self.sms_per_gpc = sms_per_gpc
        #: flat pending cells (``page * n_gpcs + gpc``), grown on demand;
        #: starts empty because the page-space extent is unknown at build time.
        self._pending = np.zeros(0, dtype=bool)
        #: arrays of the cells set since the last replay
        self._set_cells: list[np.ndarray] = []

    def _ensure_pages(self, max_page: int) -> None:
        """Grow the pending cells to cover ``max_page`` (geometric)."""
        width = self._pending.size // self.n_gpcs
        if max_page < width:
            return
        new_width = max(max_page + 1, width * 2, 1024)
        grown = np.zeros(new_width * self.n_gpcs, dtype=bool)
        grown[: self._pending.size] = self._pending
        self._pending = grown

    def should_raise_gpc(self, gpc: int, page: int) -> bool:
        """Whether a miss on ``page`` from GPC ``gpc`` emits a fault entry.

        Returns False when this GPC's uTLB already has the page pending
        (the access is coalesced onto the outstanding fault).
        """
        self._ensure_pages(page)
        cell = page * self.n_gpcs + gpc
        if self._pending[cell]:
            return False
        self._pending[cell] = True
        self._set_cells.append(np.array([cell], dtype=np.int64))
        return True

    def raise_batch(
        self, gpcs: np.ndarray, pages: np.ndarray, budget: int
    ) -> tuple[np.ndarray, int, int]:
        """Emission for one phase's fault batch, in the C kernel.

        Runs the per-entry loop

        ``should_raise_gpc`` -> push (success) / ``forget_gpc`` (buffer
        full, counted as a drop)

        over entries visited in order, with ``budget`` free fault-buffer
        slots (:func:`repro.gpu.ckernel.raise_faults`): an entry whose
        cell is pending (before the batch, or pushed by an earlier
        entry) coalesces; otherwise it is pushed while the budget lasts,
        and after that it is dropped with its cell left clear.  ``gpcs``
        and ``pages`` are flat int64 arrays.

        Returns ``(push_mask, n_coalesced, n_dropped)`` aligned with the
        inputs; pending state is left exactly as the sequential loop
        would leave it.
        """
        m = int(pages.size)
        if m == 0:
            return np.zeros(0, dtype=bool), 0, 0
        self._ensure_pages(int(pages.max()))
        push_mask, pushed, n_coalesced = ckernel.raise_faults(
            self._pending, self.n_gpcs, gpcs, pages, budget
        )
        if pushed.size:
            self._set_cells.append(pushed)
        return push_mask, n_coalesced, m - int(pushed.size) - n_coalesced

    def forget_gpc(self, gpc: int, page: int) -> None:
        """Drop a pending entry (the fault-buffer push was dropped).

        Without this the uTLB would coalesce the warp's re-raise after
        the next replay onto a fault record that never reached the
        buffer, losing the access forever.
        """
        cell = page * self.n_gpcs + gpc
        if cell < self._pending.size:
            self._pending[cell] = False

    def on_replay(self) -> None:
        """A replay retries all outstanding accesses: clear pending sets.

        Unsatisfied accesses will re-walk and re-raise, creating the
        duplicate faults the batch-flush policy exists to suppress.
        """
        if self._set_cells:
            self._pending[np.concatenate(self._set_cells)] = False
            self._set_cells.clear()
