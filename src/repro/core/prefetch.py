"""The two-stage UVM prefetcher: big-page upgrade + density tree.

Section IV-A describes the mechanism this module reimplements:

**Stage one - big-page upgrade.**  Every faulted 4 KB page is upgraded to
its 64 KB-aligned "big page": the 16 surrounding pages are flagged for
prefetch.  This satisfies common spatial locality and emulates Power9
page sizes on x86.

**Stage two - density tree.**  Each VABlock is conceptually a 9-level
binary tree whose 512 leaves are its 4 KB pages.  A node's value is the
number of leaves below it that are resident on the GPU *or present in the
current fault batch (including stage-one upgrades)*.  Starting from each
faulted leaf, the prefetch region is the **largest** enclosing subtree
whose access density exceeds the threshold (default 51, i.e. more than
51% of leaves).  All nodes in a chosen region are "set to their maximum
value", so regions chosen for earlier faults in the batch count as
present for later faults - the cascade effect the paper highlights
(one additional fault can trigger fetching an entire enclosing level).

The implementation grows regions greedily upward, testing the *parent*
region's density with strict integer arithmetic
(``count * 100 > threshold * size``), which matches the open-source
driver's ``uvm_perf_prefetch`` computation.  With threshold 1, a single
fault's 16 upgraded pages satisfy ``1600 > 512`` at the root and the
whole VABlock is fetched - the "aggressive prefetching rivals explicit
transfer" behaviour of Section IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checks import sanitizer as uvmsan
from repro.errors import ConfigurationError
from repro.mem.leafbits import bits_of, mask_of
from repro.units import (
    DEFAULT_DENSITY_THRESHOLD,
    PAGES_PER_BIG_PAGE,
    PAGES_PER_VABLOCK,
)


@dataclass
class PrefetchDecision:
    """Outcome of running the prefetcher over one VABlock's fault bin.

    ``prefetch_mask`` flags the leaves (pages of the VABlock) to fetch
    *in addition to* the demand-faulted pages; they are guaranteed
    non-resident and disjoint from the demand set.
    """

    prefetch_mask: np.ndarray
    #: leaves flagged by stage one (big-page upgrade) only.
    upgraded: int = 0
    #: leaves added by stage-two tree regions beyond stage one.
    tree_added: int = 0
    #: largest region size (leaves) chosen for any fault in the bin.
    max_region: int = 0
    #: per-fault chosen region sizes, for introspection/demos.
    region_sizes: list[int] = field(default_factory=list)

    @property
    def prefetch_offsets(self) -> np.ndarray:
        """Ascending leaf indices of :attr:`prefetch_mask`."""
        return np.flatnonzero(self.prefetch_mask)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.prefetch_mask))


class TreePrefetcher:
    """Stateless per-VABlock prefetch computation.

    Also implements the generic prefetcher interface the fault servicer
    consumes (:meth:`prefetch_bits`, on leaf bitsets); alternative
    predictors (e.g. the fault-origin stream prefetcher in
    :mod:`repro.ext.origin_prefetch`) provide the same method.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_DENSITY_THRESHOLD,
        pages_per_vablock: int = PAGES_PER_VABLOCK,
        pages_per_big_page: int = PAGES_PER_BIG_PAGE,
    ) -> None:
        if not 1 <= threshold <= 100:
            raise ConfigurationError(
                f"density threshold must be in 1..100, got {threshold}"
            )
        if pages_per_vablock % pages_per_big_page:
            raise ConfigurationError("big page must divide VABlock evenly")
        if pages_per_vablock & (pages_per_vablock - 1):
            raise ConfigurationError("pages_per_vablock must be a power of two")
        self.threshold = threshold
        self.pages_per_vablock = pages_per_vablock
        self.pages_per_big_page = pages_per_big_page

    def _grow(self, occ: int, base: int) -> tuple[int, int]:
        """Stage two from the big page at leaf ``base``: grow the region
        upward while the parent's density exceeds the threshold, setting
        each chosen region to max.  Returns the new occupancy and the
        chosen region size."""
        size, ppv = self.pages_per_big_page, self.pages_per_vablock
        while size < ppv:
            parent_size = size * 2
            parent_base = base - base % parent_size
            region = ((1 << parent_size) - 1) << parent_base
            if (occ & region).bit_count() * 100 <= self.threshold * parent_size:
                break
            base, size = parent_base, parent_size
            occ |= region  # set region to max
        return occ, size

    def compute(
        self,
        resident_leaves: np.ndarray,
        faulted_offsets: np.ndarray,
    ) -> PrefetchDecision:
        """Run both stages for one VABlock.

        ``resident_leaves`` is the VABlock's boolean residency mask
        (length ``pages_per_vablock``); ``faulted_offsets`` the leaf
        indices of this batch's demand faults in the block.
        """
        ppv = self.pages_per_vablock
        ppb = self.pages_per_big_page
        resident_leaves = np.asarray(resident_leaves, dtype=bool)
        if resident_leaves.shape != (ppv,):
            raise ConfigurationError(
                f"resident mask must have shape ({ppv},), got {resident_leaves.shape}"
            )
        faults = sorted(np.asarray(faulted_offsets, dtype=np.int64).tolist())
        if not faults:
            return PrefetchDecision(prefetch_mask=np.zeros(ppv, dtype=bool))
        if faults[0] < 0 or faults[-1] >= ppv:
            raise ConfigurationError("faulted offsets outside VABlock")

        # Leaf sets are Python-int bitsets (bit i is leaf i), so a
        # region's occupancy is one mask and popcount.
        occ = bits_of(resident_leaves)
        for leaf in faults:
            occ |= 1 << leaf
        # Occupancy evolves as regions are chosen ("set to max"); the
        # leaves it gains over ``present`` are the ones flagged for
        # prefetch, never resident or demand-faulted.
        present = occ

        # Stage one: upgrade every faulted page's 64 KB big page.
        big_page = (1 << ppb) - 1
        for leaf in faults:
            occ |= big_page << (leaf - leaf % ppb)
        upgraded = (occ ^ present).bit_count()

        # Stage two: grow a region upward from each faulted leaf.
        region_sizes = []
        for leaf in faults:
            occ, size = self._grow(occ, leaf - leaf % ppb)
            region_sizes.append(size)

        flagged = occ ^ present
        # Stage-one leaves were counted before stage two grew regions,
        # so the tree's contribution is simply the remainder.
        return PrefetchDecision(
            prefetch_mask=mask_of(flagged, ppv),
            upgraded=upgraded,
            tree_added=flagged.bit_count() - upgraded,
            max_region=max(region_sizes),
            region_sizes=region_sizes,
        )

    def prefetch_bits(self, resident: int, demand: int, vbin=None, start: int = 0) -> int:
        """Generic interface: the leaves to prefetch for one fault bin,
        as a bitset, given the bitsets of the block's ``resident`` leaves
        and of the bin's ``demand`` faults (the bin and its first page
        are for predictors that read fault origins).

        The same two stages as :meth:`compute`, walked once per faulted
        big page instead of once per fault: the faults of one big page
        start stage two from the same leaf, one after the other, so
        every walk after the first repeats it without changing anything.
        """
        ppb = self.pages_per_big_page
        big_page = (1 << ppb) - 1
        occ = present = resident | demand
        bases = []
        faults = demand
        while faults:  # stage one, lowest faulted big page first
            leaf = (faults & -faults).bit_length() - 1
            base = leaf - leaf % ppb
            bases.append(base)
            occ |= big_page << base
            faults &= ~(big_page << base)
        for base in bases:  # stage two
            occ = self._grow(occ, base)[0]
        bits = occ ^ present
        if uvmsan.enabled():
            if bits & resident:
                raise uvmsan.SanitizerError(
                    "UVMSAN[prefetch]: tree computed prefetch of resident pages"
                )
            if bits & demand:
                raise uvmsan.SanitizerError(
                    "UVMSAN[prefetch]: tree prefetch overlaps demand faults"
                )
        return bits

    def describe_tree(
        self, resident_leaves: np.ndarray, faulted_offsets: np.ndarray
    ) -> list[str]:
        """Human-readable per-level densities (used by the Fig. 6 demo)."""
        ppv = self.pages_per_vablock
        occ = np.asarray(resident_leaves, dtype=bool).copy()
        occ[np.asarray(faulted_offsets, dtype=np.int64)] = True
        lines = []
        size = 1
        level = 0
        while size <= ppv:
            counts = occ.reshape(-1, size).sum(axis=1)
            dens = ", ".join(
                f"{int(c)}/{size}" for c in counts[: min(len(counts), 16)]
            )
            suffix = " ..." if len(counts) > 16 else ""
            lines.append(f"level {level} (subtree size {size:>4}): {dens}{suffix}")
            size *= 2
            level += 1
        return lines
