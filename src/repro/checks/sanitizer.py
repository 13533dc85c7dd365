"""UVMSAN: runtime invariant sanitizer for the driver pipeline.

The paper's instrumentation trusts the driver state machine implicitly;
in the simulator a prefetch or eviction bug does not crash - it shows
up as a *wrong exhibit number*.  UVMSAN makes those bugs loud: with
``UVMREPRO_SANITIZE=1`` the driver re-verifies the Section III-V
invariants at every batch boundary and raises :class:`SanitizerError`
at the first inconsistency:

* residency bookkeeping is self-consistent
  (:meth:`~repro.mem.residency.ResidencyState.check_invariants`),
* the GPU page table maps exactly the resident/remote pages and the
  host table exactly the non-resident/duplicated ones,
* fault batches never exceed the configured batch size (256 default),
* eviction is whole-VABlock (2 MiB granularity): a victim is torn down
  completely and leaves the LRU list,
* the LRU list covers exactly the backed VABlocks and evicts the
  least-recently-faulted one (monotonicity is tracked in
  :mod:`repro.core.eviction` under the same switch),
* prefetch only targets non-resident pages of the backed VABlock being
  serviced, ascending and disjoint from the bin's ascending demand
  pages (the service stage merges the two lists without a set union).

When the switch is off (the default), the hooks reduce to one ``None``
check per call site - no arrays are touched and no state is kept, so
production runs pay nothing measurable.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.residency import ResidencyState

#: the environment switch; any value other than "" / "0" enables UVMSAN.
ENV_VAR = "UVMREPRO_SANITIZE"

_cached: Optional[bool] = None


def enabled() -> bool:
    """Whether UVMSAN is on (cached; see :func:`set_enabled`)."""
    global _cached
    if _cached is None:
        _cached = os.environ.get(ENV_VAR, "") not in ("", "0")
    return _cached


def set_enabled(value: Optional[bool]) -> None:
    """Force the switch on/off, or ``None`` to re-read the environment.

    Components snapshot the switch when constructed (e.g. the LRU
    policy's monotonicity tracking), so flip it *before* building a
    driver - mid-run flips are not supported.
    """
    global _cached
    _cached = value


class SanitizerError(SimulationError):
    """A driver state-machine invariant was violated at runtime."""


class UvmSanitizer:
    """The assertion hooks the driver calls when UVMSAN is enabled."""

    __slots__ = ("checks_run",)

    def __init__(self) -> None:
        self.checks_run = 0

    @staticmethod
    def _fail(context: str, detail: str) -> "SanitizerError":
        return SanitizerError(f"UVMSAN[{context}]: {detail}")

    # -- batch assembly (Section III-C) ------------------------------------
    def check_batch(self, batch, max_size: int) -> None:
        """A drained batch never exceeds the configured batch size."""
        self.checks_run += 1
        if len(batch) > max_size:
            raise self._fail(
                "batch", f"assembled {len(batch)} faults > batch_size {max_size}"
            )

    # -- whole-state sweep (Sections III-D, V-A) ---------------------------
    def check_state(self, residency: "ResidencyState", gpu_table, host_table, lru) -> None:
        """Cross-structure consistency at a batch boundary."""
        self.checks_run += 1
        try:
            residency.check_invariants()
        except SimulationError as exc:
            raise self._fail("residency", str(exc)) from exc
        try:
            gpu_table.check_mapped(residency.expected_gpu_mapped(), "resident|remote")
            host_table.check_mapped(residency.expected_host_mapped(), "~resident|dup")
        except SimulationError as exc:
            raise self._fail("page-table", str(exc)) from exc
        order = getattr(lru, "order", None)
        if order is not None:
            listed = sorted(order())
            backed = residency.backed_vablocks()
            if listed != backed:
                raise self._fail(
                    "lru",
                    f"LRU membership {listed[:8]}... does not match "
                    f"backed VABlocks {backed[:8]}...",
                )

    # -- eviction (Section V-A) --------------------------------------------
    def check_eviction(self, state, victim: int, lru) -> None:
        """Post-conditions of one eviction: whole-VABlock teardown.

        ``state`` is the batch view the fault servicer decides on (its
        ``block(vablock_id)`` is the stored block).
        """
        self.checks_run += 1
        block = state.block(victim)
        if block.backed:
            raise self._fail("evict", f"victim VABlock {victim} still backed")
        if block.resident:
            raise self._fail(
                "evict",
                f"partial eviction: resident pages left in VABlock {victim} "
                f"(2 MiB whole-block granularity violated)",
            )
        if victim in lru:
            raise self._fail("evict", f"victim VABlock {victim} still on LRU list")

    # -- prefetch (Section IV-A) -------------------------------------------
    def check_prefetch(
        self,
        state,
        vablock_id: int,
        prefetch_pages: np.ndarray,
        demand_pages: Optional[np.ndarray] = None,
    ) -> None:
        """Prefetch targets live in the serviced, backed VABlock only.

        ``state`` is the batch view the bin is serviced in (see
        :meth:`check_eviction`).  Given the bin's ``demand_pages``, also
        checks that both lists are page sets (strictly ascending) and
        disjoint from each other.  The servicer works on leaf bitsets
        and already rejects an overlap of its demand and prefetch leaves
        itself; this clause re-checks the page arrays it hands the
        sanitizer, independently of it.
        """
        self.checks_run += 1
        if prefetch_pages.size == 0:
            return
        block = state.block(vablock_id)
        if not block.backed:
            raise self._fail(
                "prefetch",
                f"prefetch into VABlock {vablock_id} without physical backing",
            )
        start, stop = state.space.page_span_of_vablock(vablock_id)
        if int(prefetch_pages.min()) < start or int(prefetch_pages.max()) >= stop:
            raise self._fail(
                "prefetch", f"prefetch escaped serviced VABlock {vablock_id}"
            )
        if any(block.resident >> (page - start) & 1 for page in prefetch_pages.tolist()):
            raise self._fail("prefetch", "prefetch of already-resident pages")
        if demand_pages is not None and (
            (np.diff(demand_pages) <= 0).any()
            or (np.diff(prefetch_pages) <= 0).any()
            or np.isin(prefetch_pages, demand_pages).any()
        ):
            raise self._fail(
                "prefetch",
                "demand and prefetch pages must be strictly ascending and disjoint",
            )


def make_sanitizer() -> Optional[UvmSanitizer]:
    """The driver's constructor hook: a sanitizer when on, else None."""
    return UvmSanitizer() if enabled() else None
