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
fault batch with vectorized gathers on that array instead of a Python
set probe per access (:meth:`UTlbArray.raise_batch`).  The per-entry
methods (:meth:`should_raise_gpc` / :meth:`forget_gpc`) operate on the
same array; they are the loop that ``raise_batch`` replays.  Growing
the page range appends cells, so a cell index stays valid, and every
raise records the cells it sets: a replay clears just those instead
of the whole array.
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
        """Vectorized emission for one phase's fault batch.

        Replays the exact sequential semantics of the per-entry loop

        ``should_raise_gpc`` -> push (success) / ``forget_gpc`` (buffer
        full, counted as a drop)

        over entries visited in order, with ``budget`` free fault-buffer
        slots.  Only *new* (gpc, page) pairs consume slots; once the
        budget is exhausted every further new pair is raised, dropped,
        and forgotten again - net state unchanged, one drop counted -
        which collapses to: the first ``budget`` distinct non-pending
        pairs (in visit order) are pushed, later occurrences of a pushed
        or already-pending pair coalesce, and everything else drops.

        Returns ``(push_mask, n_coalesced, n_dropped)`` aligned with the
        inputs; pending state is left exactly as the sequential loop
        would leave it.
        """
        m = int(pages.size)
        if m == 0:
            return np.zeros(0, dtype=bool), 0, 0
        self._ensure_pages(int(pages.max()))
        pending = self._pending
        cells = pages * self.n_gpcs + gpcs
        already = pending[cells]
        # a stable sort keeps equal cells in visit order, so an entry is
        # its cell's first occurrence iff it differs from its sorted
        # predecessor
        order = np.argsort(cells, kind="stable")
        ordered = cells[order]
        first_sorted = np.empty(m, dtype=bool)
        first_sorted[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first_sorted[1:])
        is_first = np.empty(m, dtype=bool)
        is_first[order] = first_sorted
        new_rows = np.flatnonzero(is_first & ~already)
        n_push = min(int(new_rows.size), max(0, int(budget)))
        push_mask = np.zeros(m, dtype=bool)
        if n_push:
            push_rows = new_rows[:n_push]
            push_mask[push_rows] = True
            pushed = cells[push_rows]
            pending[pushed] = True
            self._set_cells.append(pushed)
        # an unpushed entry coalesces exactly when its cell is pending
        # now (before the batch, or pushed by an earlier entry), and
        # every pushed entry's cell is pending
        n_coalesced = int(np.count_nonzero(pending[cells])) - n_push
        n_dropped = m - n_push - n_coalesced
        return push_mask, n_coalesced, n_dropped

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
