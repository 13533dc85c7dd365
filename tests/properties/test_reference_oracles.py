"""Reference oracles for the per-bin and per-phase hot paths.

The density prefetcher, the PTE count, the page-table updates and the
residency transitions run on every VABlock bin (the CPU-fault path runs
the last two too), and the wavefront selection, uTLB raise and stream
scan run on every GPU phase, so they are written for low per-call cost
(Python-int leaf bitsets stored per VABlock, a partition instead of a
full sort, a C scan).  The straightforward forms they replaced live
here as executable specifications, and every field of every result
must match:

* :func:`reference_compute` is the slice-sum density-tree walk over
  numpy masks (Section IV-A),
* :func:`reference_effective_ptes` counts pages per 64 KB group with
  ``np.unique``,
* :func:`reference_map_pages` / :func:`reference_unmap_pages` are the
  page-table updates over global page-index arrays,
* :func:`reference_make_resident`, :func:`reference_evict`,
  :func:`reference_invalidate_duplicates` and
  :func:`reference_migrate_to_host` are the residency transitions over
  page-indexed numpy arrays (:func:`reference_state`), compared with
  the bitset state through ``ResidencyState.page_arrays``,
* ``jitter_order(..., limit=k)`` is the full stable order cut at ``k``,
* :func:`reference_raise` is the per-entry raise / push / forget loop,
* :func:`reference_advance` is the per-access stream scan,
* the FLOP total is Python's left-to-right float sum.

Geometries span the flexible-granularity range: 16-512 leaves per
VABlock with big pages of 1-16 leaves.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import UvmDriver
from repro.core.prefetch import PrefetchDecision, TreePrefetcher
from repro.errors import SimulationError
from repro.gpu.soa import SoaStreams, advance_batch
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import bits_of, bits_of_pages, mask_of, unpack_rows
from repro.mem.page_table import MappingStats, PageTable
from repro.mem.residency import FLAG_PLANES, ResidencyState
from repro.sim.rng import SimRng
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
        return PrefetchDecision(prefetch_mask=np.zeros(ppv, dtype=bool))

    demand = np.zeros(ppv, dtype=bool)
    demand[faulted_offsets] = True
    occ = resident_leaves | demand
    pending = np.zeros(ppv, dtype=bool)
    decision = PrefetchDecision(prefetch_mask=np.zeros(ppv, dtype=bool))

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

    decision.prefetch_mask = pending & ~demand & ~resident_leaves
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
    assert got.prefetch_mask.dtype == want.prefetch_mask.dtype == np.bool_
    assert got.prefetch_mask.shape == want.prefetch_mask.shape == resident.shape
    assert np.array_equal(got.prefetch_mask, want.prefetch_mask)
    assert np.array_equal(got.prefetch_offsets, want.prefetch_offsets)
    assert got.upgraded == want.upgraded
    assert got.tree_added == want.tree_added
    assert got.max_region == want.max_region
    assert got.region_sizes == want.region_sizes


@lru_cache(maxsize=None)
def _servicer(ppb: int):
    space = AddressSpace(big_page_size=ppb * PAGE_SIZE)
    space.malloc_managed(8 * MiB)
    return UvmDriver(space).servicer


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
    servicer = _servicer(ppb)
    # big pages never straddle VABlocks: the per-block mask counts add up
    got = 0
    for leaves in bits_of_pages(pages, servicer.space.pages_per_vablock).values():
        got += servicer._effective_ptes(leaves, leaves.bit_count())
    assert got == reference_effective_ptes(pages, ppb)


# -- page tables ----------------------------------------------------------------


def reference_map_pages(mapped: np.ndarray, stats: MappingStats, pages) -> int:
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return 0
    was_mapped = mapped[pages]
    mapped[pages] = True
    stats.pages_mapped += int(pages.size)
    return int(pages.size - np.count_nonzero(was_mapped))


def reference_unmap_pages(mapped: np.ndarray, stats: MappingStats, pages) -> int:
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return 0
    if not mapped[pages].all():
        raise SimulationError("unmap of non-mapped pages")
    mapped[pages] = False
    stats.pages_unmapped += int(pages.size)
    return int(pages.size)


def _small_space(ppv: int, n_vablocks: int) -> AddressSpace:
    space = AddressSpace(
        big_page_size=min(16, ppv) * PAGE_SIZE, vablock_size=ppv * PAGE_SIZE
    )
    space.malloc_managed(n_vablocks * ppv * PAGE_SIZE)
    return space


@st.composite
def mapping_ops(draw):
    ppv = draw(st.sampled_from([16, 64, 512]))
    n_vablocks = 3
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["map", "unmap", "unmap_mapped"]))
        if draw(st.booleans()):
            # one VABlock's span, as the service path holds it
            vb = draw(st.integers(min_value=0, max_value=n_vablocks - 1))
            offsets = draw(st.lists(st.integers(0, ppv - 1), max_size=ppv, unique=True))
            ops.append((kind, [vb * ppv + o for o in offsets]))
        else:
            # unique pages in any order across VABlocks (the CPU-fault path)
            pages = st.integers(0, n_vablocks * ppv - 1)
            ops.append((kind, draw(st.lists(pages, max_size=2 * ppv, unique=True))))
    return ppv, n_vablocks, draw(st.sampled_from(["gpu", "host"])), ops


@given(mapping_ops())
@settings(max_examples=400, deadline=None)
def test_page_table_spans_match_index_arrays(case):
    """``PageTable.map``/``unmap`` on each VABlock's leaves of one block's
    span or of a scattered list, against the index-array updates."""
    ppv, n_vablocks, side, ops = case
    table = PageTable(_small_space(ppv, n_vablocks), side=side)
    mapped = np.full(ppv * n_vablocks, side == "host")
    stats = MappingStats()
    for kind, pages in ops:
        if kind == "unmap_mapped":
            # mostly-valid unmaps: restrict to what is mapped
            pages = [p for p in pages if mapped[p]]
        pages = np.array(pages, dtype=np.int64)
        for vb, leaves in bits_of_pages(pages, ppv).items():
            block_pages = pages[pages // ppv == vb]
            if kind == "map":
                assert table.map(vb, leaves) == reference_map_pages(mapped, stats, block_pages)
                continue
            try:
                want = reference_unmap_pages(mapped, stats, block_pages)
            except SimulationError:
                with pytest.raises(SimulationError, match="unmap of non-mapped"):
                    table.unmap(vb, leaves)
            else:
                assert table.unmap(vb, leaves) == want
        assert np.array_equal(unpack_rows([table.mapped], ppv).reshape(-1), mapped)
        assert table.stats == stats


# -- residency transitions -------------------------------------------------------

RESIDENCY_ARRAYS = (
    "resident",
    "writable",
    "duplicated",
    "remote_mapped",
    "dirty",
    "backed",
    "resident_count",
    "evict_count",
    "read_ok",
    "write_ok",
)


def reference_state(space: AddressSpace) -> SimpleNamespace:
    """The residency state as page- and block-indexed numpy arrays, the
    form the index-array transitions below update."""
    n_pages, n_vablocks = space.total_pages, space.total_vablocks
    pages = {name: np.zeros(n_pages, dtype=bool) for name in RESIDENCY_ARRAYS}
    pages["backed"] = np.zeros(n_vablocks, dtype=bool)
    pages["resident_count"] = np.zeros(n_vablocks, dtype=np.int32)
    pages["evict_count"] = np.zeros(n_vablocks, dtype=np.int64)
    return SimpleNamespace(space=space, pages_per_vablock=space.pages_per_vablock, **pages)


def _refresh_masks(state, pages: np.ndarray) -> None:
    state.read_ok[pages] = state.resident[pages] | state.remote_mapped[pages]
    state.write_ok[pages] = (
        state.resident[pages] & state.writable[pages]
    ) | state.remote_mapped[pages]


def reference_make_resident(state, pages, writing=False, writable=True, duplicated=False):
    """The index-array transition (flags: bools or masks aligned with pages)."""
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return 0
    ppv = state.pages_per_vablock
    vbs = pages // ppv
    if not state.backed[vbs].all():
        raise SimulationError("making pages resident in unbacked VABlocks")
    if state.remote_mapped[pages].any():
        raise SimulationError("migrating pages that are remote-mapped")
    writing_m = np.broadcast_to(np.asarray(writing, dtype=bool), pages.shape)
    writable_m = np.broadcast_to(np.asarray(writable, dtype=bool), pages.shape)
    duplicated_m = np.broadcast_to(np.asarray(duplicated, dtype=bool), pages.shape)
    if (writing_m & ~writable_m).any():
        raise SimulationError("writing through a read-only mapping")
    if (duplicated_m & writable_m).any():
        raise SimulationError("a duplicated copy cannot be writable")
    was_resident = state.resident[pages]
    state.resident[pages] = True
    state.writable[pages] |= writable_m
    state.duplicated[pages] = duplicated_m & ~state.writable[pages]
    state.dirty[pages[writing_m]] = True
    np.add.at(state.resident_count, pages[~was_resident] // ppv, 1)
    _refresh_masks(state, pages)
    return int(pages.size - np.count_nonzero(was_resident))


def reference_evict(state, vablock_id):
    """The index-array teardown: resident and dirty pages, then clear."""
    start, stop = state.space.page_span_of_vablock(vablock_id)
    res = state.resident[start:stop]
    resident_pages = np.flatnonzero(res) + start
    dirty_pages = np.flatnonzero(res & state.dirty[start:stop]) + start
    for name in ("resident", "writable", "duplicated", "dirty"):
        getattr(state, name)[start:stop] = False
    state.backed[vablock_id] = False
    state.resident_count[vablock_id] = 0
    state.evict_count[vablock_id] += 1
    _refresh_masks(state, np.arange(start, stop))
    return resident_pages, dirty_pages


def reference_invalidate_duplicates(state, pages: np.ndarray) -> int:
    """Host write: drop the (clean) GPU copies of the duplicated pages."""
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return 0
    dropping = pages[state.duplicated[pages]]
    if dropping.size == 0:
        return 0
    state.resident[dropping] = False
    state.duplicated[dropping] = False
    state.writable[dropping] = False
    np.add.at(state.resident_count, dropping // state.pages_per_vablock, -1)
    _refresh_masks(state, dropping)
    return int(dropping.size)


def reference_migrate_to_host(state, pages: np.ndarray) -> tuple[int, int]:
    """CPU fault: page-granular migration of the resident, non-duplicated
    pages; ``(migrated, dirty)``."""
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size == 0:
        return 0, 0
    moving = pages[state.resident[pages] & ~state.duplicated[pages]]
    if moving.size == 0:
        return 0, 0
    n_dirty = int(state.dirty[moving].sum())
    state.resident[moving] = False
    state.writable[moving] = False
    state.dirty[moving] = False
    np.add.at(state.resident_count, moving // state.pages_per_vablock, -1)
    _refresh_masks(state, moving)
    return int(moving.size), n_dirty


def _loaded(ref) -> ResidencyState:
    """A :class:`ResidencyState` holding the reference arrays' state."""
    state = ResidencyState(ref.space)
    ppv = ref.pages_per_vablock
    for block in state.blocks:
        span = slice(block.vablock_id * ppv, (block.vablock_id + 1) * ppv)
        for name in FLAG_PLANES:
            setattr(block, name, bits_of(getattr(ref, name)[span]))
        block.backed = bool(ref.backed[block.vablock_id])
        block.evictions = int(ref.evict_count[block.vablock_id])
    state.sync_masks(state.blocks)
    return state


def _same_residency(state: ResidencyState, ref) -> None:
    arrays = state.page_arrays()
    for name in RESIDENCY_ARRAYS:
        assert arrays[name].dtype == getattr(ref, name).dtype, name
        assert np.array_equal(arrays[name], getattr(ref, name)), name
    state.check_invariants()


#: flag modes of a make_resident call: the stock migration, the read-
#: mostly split, read-only copies, and combinations that must raise.
FLAG_MODES = ("migrate", "read_mostly", "read_only", "bad_write", "bad_dup")


def _flags(mode, draw_bool, writes):
    if mode == "migrate":
        return {"writing": writes if draw_bool() else bool(writes.any())}
    if mode == "read_mostly":
        return {"writing": writes, "writable": writes, "duplicated": ~writes}
    if mode == "read_only":
        return {"writable": False, "duplicated": writes if draw_bool() else True}
    if mode == "bad_write":
        return {"writing": True, "writable": ~writes if draw_bool() else False}
    return {"writable": True, "duplicated": writes if writes.any() else True}


def _history(draw, ppv, n_vablocks):
    """Index-array transitions that build a starting state."""
    leaf_lists = st.lists(st.integers(0, ppv - 1), min_size=1, max_size=ppv, unique=True)
    history = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        vb = draw(st.integers(min_value=0, max_value=n_vablocks - 1))
        offsets = sorted(draw(leaf_lists))
        writes = draw(st.lists(st.booleans(), min_size=len(offsets), max_size=len(offsets)))
        kind = draw(st.sampled_from(["migrate", "read_mostly", "remote", "evict"]))
        history.append((kind, vb, offsets, np.array(writes, dtype=bool)))
    return history


@st.composite
def residency_case(draw):
    ppv = draw(st.sampled_from([16, 64, 512]))
    n_vablocks = 3
    history = _history(draw, ppv, n_vablocks)
    vb = draw(st.integers(min_value=0, max_value=n_vablocks - 1))
    leaf_lists = st.lists(st.integers(0, ppv - 1), min_size=1, max_size=ppv, unique=True)
    offsets = sorted(draw(leaf_lists))
    writes = np.array(
        draw(st.lists(st.booleans(), min_size=len(offsets), max_size=len(offsets))),
        dtype=bool,
    )
    mode = draw(st.sampled_from(FLAG_MODES))
    flags = _flags(mode, lambda: draw(st.booleans()), writes)
    back = draw(st.booleans())
    return ppv, n_vablocks, history, (vb, offsets, flags, back)


def _replay_history(state, ppv, history):
    for kind, vb, offsets, writes in history:
        pages = np.array(offsets, dtype=np.int64) + vb * ppv
        if kind == "evict":
            if state.backed[vb]:
                reference_evict(state, vb)
            continue
        if kind == "remote":
            pages = pages[~state.resident[pages]]
            state.remote_mapped[pages] = True
            state.read_ok[pages] = state.write_ok[pages] = True
            continue
        pages_ok = ~state.remote_mapped[pages]
        pages, writes = pages[pages_ok], writes[pages_ok]
        if not state.backed[vb]:
            state.backed[vb] = True
        if kind == "migrate":
            reference_make_resident(state, pages, writing=writes)
        else:
            reference_make_resident(
                state, pages, writing=writes, writable=writes, duplicated=~writes
            )


def _leaf_flag(value, ppv, offsets) -> int:
    """A flag as the bitset a block transition takes: a bool is every
    leaf alike (-1 or 0), a mask aligned with ``offsets`` its leaves."""
    if np.ndim(value) == 0:
        return -1 if value else 0
    mask = np.zeros(ppv, dtype=bool)
    mask[offsets] = value
    return bits_of(mask)


@given(residency_case())
@settings(max_examples=400, deadline=None)
def test_make_resident_span_matches_index_arrays(case):
    ppv, n_vablocks, history, (vb, offsets, flags, back) = case
    ref = reference_state(_small_space(ppv, n_vablocks))
    _replay_history(ref, ppv, history)
    if back:
        ref.backed[vb] = True
    state = _loaded(ref)
    pages = np.array(offsets, dtype=np.int64) + vb * ppv
    leaves = sum(1 << o for o in offsets)
    leaf_flags = {k: _leaf_flag(v, ppv, offsets) for k, v in flags.items()}
    try:
        want = reference_make_resident(ref, pages, **flags)
    except SimulationError as exc:
        with pytest.raises(SimulationError, match=str(exc).split(" in ")[0]):
            state.make_resident(vb, leaves, **leaf_flags)
    else:
        assert state.make_resident(vb, leaves, **leaf_flags) == want
    _same_residency(state, ref)


@given(residency_case())
@settings(max_examples=300, deadline=None)
def test_evict_reports_the_leaves_the_index_arrays_find(case):
    ppv, n_vablocks, history, (vb, _offsets, _flags, _back) = case
    ref = reference_state(_small_space(ppv, n_vablocks))
    _replay_history(ref, ppv, history)
    state = _loaded(ref)
    if not ref.backed[vb]:
        with pytest.raises(SimulationError, match="evicting unbacked"):
            state.evict_vablock(vb)
        return
    resident, dirty = state.evict_vablock(vb)
    resident_pages, dirty_pages = reference_evict(ref, vb)
    start = vb * ppv
    assert np.array_equal(np.flatnonzero(mask_of(resident, ppv)) + start, resident_pages)
    assert np.array_equal(np.flatnonzero(mask_of(dirty, ppv)) + start, dirty_pages)
    _same_residency(state, ref)


@st.composite
def host_case(draw):
    ppv = draw(st.sampled_from([16, 64, 512]))
    n_vablocks = 3
    history = _history(draw, ppv, n_vablocks)
    pages = st.integers(0, n_vablocks * ppv - 1)
    touched = draw(st.lists(pages, max_size=2 * ppv, unique=True))
    return ppv, n_vablocks, history, np.array(touched, dtype=np.int64), draw(st.booleans())


@given(host_case())
@settings(max_examples=400, deadline=None)
def test_host_transitions_match_index_arrays(case):
    """A CPU fault on scattered pages, as the driver runs it: per touched
    VABlock, drop the duplicated leaves (host writes only), then migrate
    the resident leaves to the host; then sync the touched blocks' masks."""
    ppv, n_vablocks, history, pages, writes = case
    ref = reference_state(_small_space(ppv, n_vablocks))
    _replay_history(ref, ppv, history)
    state = _loaded(ref)
    touched = bits_of_pages(np.unique(pages), ppv)
    blocks = [state.blocks[vb] for vb in touched]
    if writes:
        dropped = [b.drop_duplicates(leaves) for b, leaves in zip(blocks, touched.values())]
        assert sum(d.bit_count() for d in dropped) == reference_invalidate_duplicates(ref, pages)
        for b, leaves in zip(blocks, dropped):
            assert not leaves & ~touched[b.vablock_id]
    moved = [b.migrate_to_host(leaves) for b, leaves in zip(blocks, touched.values())]
    state.sync_masks(blocks)
    n_moved = sum(m.bit_count() for m, _ in moved)
    n_dirty = sum(d.bit_count() for _, d in moved)
    assert (n_moved, n_dirty) == reference_migrate_to_host(ref, pages)
    assert all(not d & ~m for m, d in moved)
    _same_residency(state, ref)


# -- GPU phase: wavefront selection ------------------------------------------


@given(
    n=st.integers(min_value=0, max_value=4096),
    extra=st.integers(min_value=0, max_value=4104),
    window=st.sampled_from([0.0, 4.0, 204.8, 1e6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_jitter_order_limit_is_a_prefix_of_the_full_order(n, extra, window, seed):
    limit = extra % (n + 9)  # 0 .. n + 8
    cut, full = SimRng(seed), SimRng(seed)
    got = cut.jitter_order(n, window=window, limit=limit)
    want = full.jitter_order(n, window=window)[:limit]
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the same n normals were drawn either way
    assert cut.generator.random() == full.generator.random()


class _FixedNormals:
    """Generator stand-in whose normal draws are given integers."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def normal(self, loc, scale, size):
        assert size == self.values.size
        return self.values.copy()


@given(
    noise=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=64),
    extra=st.integers(min_value=0, max_value=72),
)
@settings(max_examples=300, deadline=None)
def test_jitter_order_limit_breaks_ties_by_lower_index(noise, extra):
    """Integer-valued keys tie often; a tie at the cut keeps the lower index."""
    n = len(noise)
    limit = extra % (n + 9)
    rng = SimRng(0)
    rng._gen = _FixedNormals(noise)
    got = rng.jitter_order(n, window=4.0, limit=limit)
    keys = np.arange(n, dtype=np.float64) + np.asarray(noise, dtype=np.float64)
    ranked = sorted(range(n), key=lambda i: (keys[i], i))
    assert got.tolist() == ranked[:limit]


# -- GPU phase: uTLB raise ---------------------------------------------------


def reference_raise(tlb: UTlbArray, gpcs, pages, budget: int):
    """The per-entry loop ``raise_batch`` replaces, in visit order."""
    push = np.zeros(len(pages), dtype=bool)
    coalesced = dropped = 0
    for i, (gpc, page) in enumerate(zip(gpcs, pages)):
        if not tlb.should_raise_gpc(gpc, page):
            coalesced += 1
        elif budget > 0:
            push[i] = True
            budget -= 1
        else:
            tlb.forget_gpc(gpc, page)
            dropped += 1
    return push, coalesced, dropped


def _same_tlb_state(a: UTlbArray, b: UTlbArray) -> None:
    # the arrays may be grown to different lengths; the pending cells match
    assert np.array_equal(np.flatnonzero(a._pending), np.flatnonzero(b._pending))


N_GPCS = 3


@st.composite
def raise_sequence(draw):
    """A few batches; repeated pairs, pre-pending pairs, growth mid-way."""
    pre = draw(
        st.lists(st.tuples(st.integers(0, N_GPCS - 1), st.integers(0, 40)), max_size=12)
    )
    batches = []
    for b in range(draw(st.integers(min_value=1, max_value=3))):
        # later batches may reach past the pending array's first extent
        hi = draw(st.sampled_from([40, 40, 3000, 9000])) if b else 40
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, N_GPCS - 1), st.integers(0, hi)), max_size=40
            )
        )
        pairs += draw(st.lists(st.sampled_from(pairs or pre or [(0, 0)]), max_size=10))
        pairs = draw(st.permutations(pairs))
        budget = draw(st.integers(min_value=0, max_value=len(pairs) + 1))
        batches.append((pairs, budget))
    return pre, batches


@given(raise_sequence())
@settings(max_examples=300, deadline=None)
def test_raise_batch_matches_per_entry_loop(case):
    pre, batches = case
    batched, looped = UTlbArray(N_GPCS, 2), UTlbArray(N_GPCS, 2)
    for gpc, page in pre:
        assert batched.should_raise_gpc(gpc, page) == looped.should_raise_gpc(gpc, page)
    for pairs, budget in batches:
        gpcs = np.array([g for g, _ in pairs], dtype=np.int64)
        pages = np.array([p for _, p in pairs], dtype=np.int64)
        got = batched.raise_batch(gpcs, pages, budget)
        want = reference_raise(looped, gpcs.tolist(), pages.tolist(), budget)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        _same_tlb_state(batched, looped)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["batch", "scalar", "forget", "replay"]),
            st.lists(st.tuples(st.integers(0, N_GPCS - 1), st.integers(0, 5000)), max_size=20),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=12,
    )
)
@settings(max_examples=300, deadline=None)
def test_replay_clears_every_pending_cell(ops):
    tlb = UTlbArray(N_GPCS, 2)
    for kind, pairs, budget in ops:
        if kind == "batch":
            tlb.raise_batch(
                np.array([g for g, _ in pairs], dtype=np.int64),
                np.array([p for _, p in pairs], dtype=np.int64),
                budget,
            )
        elif kind == "replay":
            tlb.on_replay()
        else:
            for gpc, page in pairs:
                if kind == "scalar":
                    tlb.should_raise_gpc(gpc, page)
                else:
                    tlb.forget_gpc(gpc, page)
    tlb.on_replay()
    assert not tlb._pending.any()


# -- GPU phase: stream scan --------------------------------------------------

#: stream lengths from empty and single-access spans to long resident runs
EDGE_LENGTHS = [0, 1, 63, 64, 65, 255, 256, 257, 8191, 8192, 8193]
N_PAGES = 32
#: a page no mask admits, and one only ``read_ok`` admits
MISSING_PAGE, READ_ONLY_PAGE = 0, 31


@st.composite
def scan_case(draw):
    streams = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        length = draw(st.sampled_from(EDGE_LENGTHS))
        # resident pages only; long streams come from a seeded generator
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
        if length <= 64:
            pages = np.array(
                draw(st.lists(st.integers(1, 30), min_size=length, max_size=length)),
                dtype=np.int64,
            )
        else:
            pages = rng.integers(1, 31, length)
        # at most one miss: first, last or somewhere along the span
        if length and draw(st.booleans()):
            at = draw(st.sampled_from([0, 62, 63, 64, 65, 319, 320, 321, length - 1]))
            pages[min(at, length - 1)] = draw(st.sampled_from([MISSING_PAGE, READ_ONLY_PAGE]))
        writes = rng.random(length) < 0.5 if draw(st.booleans()) else None
        streams.append((pages, writes))
    return streams, draw(st.booleans())


def reference_advance(pages, writes, pos: int, read_ok, write_ok):
    """One stream's scan, access by access from ``pos``: a load needs
    ``read_ok``, a store ``write_ok`` (``read_ok`` when that is None).
    Returns ``(position, page)`` of the first miss, or ``(len, None)``
    when the stream runs to completion."""
    for i in range(pos, len(pages)):
        store = writes is not None and write_ok is not None and writes[i]
        if not (write_ok if store else read_ok)[pages[i]]:
            return i, int(pages[i])
    return len(pages), None


@given(scan_case(), st.data())
@settings(max_examples=200, deadline=None)
def test_advance_batch_matches_per_stream_advance(case, data):
    streams, check_writes = case
    read_ok = np.ones(N_PAGES, dtype=bool)
    read_ok[MISSING_PAGE] = False
    write_ok = read_ok.copy()
    write_ok[READ_ONLY_PAGE] = False
    # the set flags a stream without a writes mask as all loads
    soa = SoaStreams(
        StreamSet(
            np.concatenate([pages for pages, _ in streams]),
            [len(pages) for pages, _ in streams],
            np.concatenate(
                [np.zeros(len(p), bool) if w is None else w for p, w in streams]
            ),
        )
    )
    assert soa.pages_flat.dtype == np.int32
    cursors = [0] * len(streams)
    for _ in range(2):  # the second pass resumes mid-stream after service
        # a phase visits some of the unfinished streams, in jittered
        # order: any order, and possibly none of them
        unfinished = [i for i in range(len(streams)) if soa.pos[i] < soa.end[i]]
        order = data.draw(st.permutations(unfinished))
        sel = np.array(order[: data.draw(st.integers(0, len(order)))], dtype=np.int64)
        before = soa.pos.copy()
        pos0, pos1, miss = advance_batch(
            soa, sel, read_ok, write_ok if check_writes else None
        )
        assert pos0.shape == pos1.shape == miss.shape == sel.shape
        for row, i in enumerate(sel.tolist()):
            pages, writes = streams[i]
            assert pos0[row] == soa.start[i] + cursors[i]
            cursors[i], page = reference_advance(
                pages, writes, cursors[i], read_ok, write_ok if check_writes else None
            )
            assert miss[row] == (-1 if page is None else page)
            assert pos1[row] == soa.start[i] + cursors[i]
        # a stream the phase did not visit keeps its cursor
        unvisited = np.setdiff1d(np.arange(len(streams)), sel)
        assert np.array_equal(soa.pos[unvisited], before[unvisited])
        # the driver services the misses: pages become resident and writable
        read_ok[:] = True
        write_ok[:] = True


# -- GPU phase: FLOP total ---------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        ),
        min_size=1,
        max_size=600,
    )
)
@settings(max_examples=300, deadline=None)
def test_flop_accumulate_is_the_left_to_right_sum(terms):
    retired = np.array([r for r, _ in terms], dtype=np.int64)
    flops = np.array([f for _, f in terms], dtype=np.float64)
    acc = 0.0
    for r, f in terms:
        acc += r * f
    got = float(np.add.accumulate(retired * flops)[-1])
    assert got.hex() == acc.hex()
