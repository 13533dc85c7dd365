"""Reference oracles for the per-bin service helpers.

The density prefetcher and the PTE count run on every VABlock bin, so
they are written for low per-call cost (Python-int bitsets, run checks
on sorted pages).  The straightforward forms they replaced live here as
executable specifications, and every field of every result must match:

* :func:`reference_compute` is the slice-sum density-tree walk over
  numpy masks (Section IV-A),
* :func:`reference_effective_ptes` counts pages per 64 KB group with
  ``np.unique``.

Geometries span the flexible-granularity range: 16-512 leaves per
VABlock with big pages of 1-16 leaves.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import UvmDriver
from repro.core.prefetch import PrefetchDecision, TreePrefetcher
from repro.mem.address_space import AddressSpace
from repro.units import MiB, PAGE_SIZE


def reference_compute(
    pf: TreePrefetcher, resident_leaves: np.ndarray, faulted_offsets: np.ndarray
) -> PrefetchDecision:
    """Both prefetch stages on numpy masks, one slice sum per region test."""
    ppv = pf.pages_per_vablock
    ppb = pf.pages_per_big_page
    resident_leaves = np.asarray(resident_leaves, dtype=bool)
    faulted_offsets = np.asarray(faulted_offsets, dtype=np.int64)
    if faulted_offsets.size == 0:
        return PrefetchDecision(prefetch_offsets=np.empty(0, dtype=np.int64))

    demand = np.zeros(ppv, dtype=bool)
    demand[faulted_offsets] = True
    occ = resident_leaves | demand
    pending = np.zeros(ppv, dtype=bool)
    decision = PrefetchDecision(prefetch_offsets=np.empty(0, dtype=np.int64))

    for g in np.unique(faulted_offsets // ppb):
        lo, hi = int(g) * ppb, (int(g) + 1) * ppb
        pending[lo:hi] |= ~occ[lo:hi]
        occ[lo:hi] = True
    decision.upgraded = int(pending.sum())

    for leaf in np.sort(faulted_offsets):
        base = (int(leaf) // ppb) * ppb
        size = ppb
        while size < ppv:
            parent_size = size * 2
            parent_base = (base // parent_size) * parent_size
            count = int(occ[parent_base : parent_base + parent_size].sum())
            if count * 100 > pf.threshold * parent_size:
                base, size = parent_base, parent_size
                pending[base : base + size] |= ~occ[base : base + size]
                occ[base : base + size] = True
            else:
                break
        decision.region_sizes.append(size)
        decision.max_region = max(decision.max_region, size)

    prefetch_mask = pending & ~demand & ~resident_leaves
    decision.prefetch_offsets = np.flatnonzero(prefetch_mask).astype(np.int64)
    decision.tree_added = decision.count - decision.upgraded
    return decision


def reference_effective_ptes(pages: np.ndarray, ppb: int) -> int:
    """One PTE per full big-page group plus one per leftover page."""
    if pages.size == 0:
        return 0
    _, counts = np.unique(pages // ppb, return_counts=True)
    return int((counts == ppb).sum()) + int(counts[counts != ppb].sum())


def _mask_of(bits: int, n: int) -> np.ndarray:
    return np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)


@st.composite
def prefetch_case(draw):
    ppv = draw(st.sampled_from([16, 32, 64, 128, 256, 512]))
    ppb = draw(st.sampled_from([1, 2, 4, 8, 16]))
    threshold = draw(st.integers(min_value=1, max_value=100))
    full = (1 << ppv) - 1
    bits = draw(st.integers(min_value=0, max_value=full))
    # vary the density: sparse, uniform, dense, or a solid prefix/suffix
    shape = draw(st.sampled_from(["sparse", "uniform", "dense", "prefix", "suffix"]))
    other = draw(st.integers(min_value=0, max_value=full))
    if shape == "sparse":
        bits &= other
    elif shape == "dense":
        bits |= other
    elif shape in ("prefix", "suffix"):
        cut = draw(st.integers(min_value=0, max_value=ppv))
        bits = (1 << cut) - 1 if shape == "prefix" else full ^ ((1 << cut) - 1)
    resident = _mask_of(bits, ppv)

    leaves = st.integers(min_value=0, max_value=ppv - 1)
    faults = draw(st.lists(leaves, max_size=24))
    # several leaves in one big page
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        group = draw(st.integers(min_value=0, max_value=ppv // ppb - 1))
        offsets = st.integers(min_value=0, max_value=ppb - 1)
        faults += [group * ppb + o for o in draw(st.lists(offsets, min_size=1, max_size=8))]
    if draw(st.booleans()):
        # the service path: unique faults on non-resident leaves
        faults = sorted(set(faults))
        resident[faults] = False
    return TreePrefetcher(threshold, ppv, ppb), resident, np.array(faults, dtype=np.int64)


@given(prefetch_case())
@settings(max_examples=400, deadline=None)
def test_compute_matches_slice_sum_reference(case):
    pf, resident, faults = case
    before = resident.copy()
    got = pf.compute(resident, faults)
    want = reference_compute(pf, resident, faults)
    assert np.array_equal(resident, before)
    assert got.prefetch_offsets.dtype == want.prefetch_offsets.dtype
    assert np.array_equal(got.prefetch_offsets, want.prefetch_offsets)
    assert got.upgraded == want.upgraded
    assert got.tree_added == want.tree_added
    assert got.max_region == want.max_region
    assert got.region_sizes == want.region_sizes


@lru_cache(maxsize=None)
def _servicer(ppb: int):
    space = AddressSpace(big_page_size=ppb * PAGE_SIZE)
    space.malloc_managed(8 * MiB)
    return UvmDriver(space, streams=[]).servicer


@st.composite
def pte_case(draw):
    ppb = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n_pages = 4 * 512
    pages = set(draw(st.lists(st.integers(min_value=0, max_value=n_pages - 1), max_size=64)))
    # whole and nearly whole big pages
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        group = draw(st.integers(min_value=0, max_value=n_pages // ppb - 1))
        drop = draw(st.integers(min_value=0, max_value=1))
        pages.update(range(group * ppb, (group + 1) * ppb - drop))
    return ppb, np.array(sorted(pages), dtype=np.int64)


@given(pte_case())
@settings(max_examples=400, deadline=None)
def test_effective_ptes_matches_unique_count(case):
    ppb, pages = case
    got = _servicer(ppb)._effective_ptes(pages)
    assert got == reference_effective_ptes(pages, ppb)
