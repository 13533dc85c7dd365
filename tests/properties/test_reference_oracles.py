"""Reference oracles for the per-bin and per-phase hot paths.

The density prefetcher, the PTE count, the page-table updates and the
residency transitions run on every VABlock bin (the CPU-fault path runs
the last two too), and a whole GPU phase - wavefront selection, stream
scan, state marking, uTLB raise and fault-buffer write - runs as one C
call, so they are written for low per-call cost (Python-int leaf
bitsets stored per VABlock, a C kernel).  The straightforward forms
they replaced live here as executable specifications, and every field
of every result must match:

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
* the kernel's first ``k`` visited streams are ``jitter_order``'s full
  stable order cut at ``k``,
* :func:`reference_raise` is the per-entry raise / push / forget loop,
* :func:`reference_advance` is the per-access stream scan,
* :func:`reference_phase` is a whole phase as one Python loop: visit
  order, cursors, states, FLOP bits, counts, uTLB cells and the fault
  buffer's ring; the kernel also refuses each bad input before it
  changes anything,
* the FLOP total is Python's left-to-right float sum.

The kernel is driven through ``tests/gpuphase.py``, which also holds
the per-entry uTLB filter the raise is checked against.

Geometries span the flexible-granularity range: 16-512 leaves per
VABlock with big pages of 1-16 leaves.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.driver import UvmDriver
from repro.core.prefetch import PrefetchDecision, TreePrefetcher
from repro.errors import SimulationError
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.soa import DONE, RUNNABLE, STALLED, SoaStreams
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import bits_of, bits_of_pages, mask_of, unpack_rows
from repro.mem.page_table import MappingStats, PageTable
from repro.mem.residency import FLAG_PLANES, ResidencyState
from repro.sim.rng import SimRng
from repro.units import MiB, PAGE_SIZE
from tests.faultbuffer import push_fields
from tests.gpuphase import forget_gpc, raise_pairs, scan, should_raise_gpc, visit_order


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
    """The kernel visits the first ``limit`` streams of the full stable
    jitter order, from the same ``n`` normals ``jitter_order`` draws."""
    limit = extra % (n + 9)  # 0 .. n + 8
    cut, full = SimRng(seed), SimRng(seed)
    z = cut.jitter_noise(n, window) if window > 0 else np.zeros(n)
    got = visit_order(z, min(limit, n))
    want = full.jitter_order(n, window=window)[:limit]
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the same n normals were drawn either way
    assert cut.generator.random() == full.generator.random()


@given(
    noise=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=64),
    extra=st.integers(min_value=0, max_value=72),
)
@settings(max_examples=300, deadline=None)
def test_jitter_order_limit_breaks_ties_by_lower_index(noise, extra):
    """Integer-valued keys tie often; a tie at the cut keeps the lower index."""
    n = len(noise)
    limit = extra % (n + 9)
    got = visit_order(np.asarray(noise, dtype=np.float64), min(limit, n))
    keys = np.arange(n, dtype=np.float64) + np.asarray(noise, dtype=np.float64)
    ranked = sorted(range(n), key=lambda i: (keys[i], i))
    assert got.tolist() == ranked[:limit]


@given(
    n=st.integers(min_value=65, max_value=400),
    seed=st.integers(min_value=0, max_value=2**16),
    extra=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=100, deadline=None)
def test_crowded_keys_sort_by_key_then_index(n, seed, extra):
    """Keys that crowd into one integer bucket (here every key is 0,
    0.25, 0.5 or 0.75) leave the counting pass for the merge sort, with
    the same order."""
    limit = extra % (n + 1)
    frac = np.random.default_rng(seed).integers(0, 4, n) / 4
    z = frac - np.arange(n)
    got = visit_order(z, limit)
    ranked = sorted(range(n), key=lambda i: (frac[i], i))
    assert got.tolist() == ranked[:limit]


# -- GPU phase: uTLB raise ---------------------------------------------------


def reference_raise(tlb: UTlbArray, gpcs, pages, budget: int):
    """The per-entry raise / push / forget loop, in visit order."""
    push = np.zeros(len(pages), dtype=bool)
    coalesced = dropped = 0
    for i, (gpc, page) in enumerate(zip(gpcs, pages)):
        if not should_raise_gpc(tlb, gpc, page):
            coalesced += 1
        elif budget > 0:
            push[i] = True
            budget -= 1
        else:
            forget_gpc(tlb, gpc, page)
            dropped += 1
    return push, coalesced, dropped


def _same_tlb_state(a: UTlbArray, b: UTlbArray) -> None:
    # the arrays may be grown to different lengths; the pending cells match
    assert np.array_equal(np.flatnonzero(a.cells), np.flatnonzero(b.cells))


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
def test_phase_raise_matches_per_entry_loop(case):
    pre, batches = case
    batched, looped = UTlbArray(N_GPCS, 2), UTlbArray(N_GPCS, 2)
    for gpc, page in pre:
        assert should_raise_gpc(batched, gpc, page) == should_raise_gpc(looped, gpc, page)
    for pairs, budget in batches:
        gpcs = [g for g, _ in pairs]
        pages = [p for _, p in pairs]
        got = raise_pairs(batched, gpcs, pages, budget)
        want = reference_raise(looped, gpcs, pages, budget)
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
            raise_pairs(tlb, [g for g, _ in pairs], [p for _, p in pairs], budget)
        elif kind == "replay":
            tlb.on_replay()
        else:
            for gpc, page in pairs:
                if kind == "scalar":
                    should_raise_gpc(tlb, gpc, page)
                else:
                    forget_gpc(tlb, gpc, page)
    tlb.on_replay()
    assert not tlb.cells.any()


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
def test_phase_scan_matches_per_stream_advance(case, data):
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
        pos0, pos1, miss = scan(soa, sel, read_ok, write_ok if check_writes else None)
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


# -- GPU phase: the whole phase ----------------------------------------------

PHASE_PAGES = 12
SMS_PER_GPC = 2
#: per-access FLOPs: zero, and values whose sum depends on the order
PHASE_FLOPS = [0.0, 0.0, 1.0, 0.1, 1e16, 3.3e-7, 1.0 + 2.0**-30, 7e-3]


def reference_phase(soa, tlb, buf, active, z, k, read_ok, write_ok, now):
    """One phase as a Python loop: the RUNNABLE streams among ``active``,
    their stable jitter order cut at ``k``, the per-stream scan, the
    left-to-right FLOP add, DONE/STALLED marking, then the per-entry
    raise / push / drop in visit order onto the ring (``push_fields``
    writes at the tail, wrapping).  Returns ``(visited, [k, retired,
    done, stalled, pushed, coalesced, dropped], flops)``."""
    run_ids = [s for s in active if soa.state[s] == RUNNABLE]
    n = len(run_ids)
    order = np.argsort(np.arange(n) + np.asarray(z, dtype=np.float64), kind="stable")[:k]
    visited = [int(run_ids[i]) for i in order]
    retired = done = stalled = pushed = coalesced = dropped = 0
    flops = 0.0
    misses = []
    for s in visited:
        p = start = int(soa.pos[s])
        missed = None
        while p < soa.end[s]:
            page = int(soa.pages_flat[p])
            store = write_ok is not None and soa.writes_flat[p]
            if not (write_ok if store else read_ok)[page]:
                missed = page
                break
            p += 1
        soa.pos[s] = p
        retired += p - start
        if soa.flops[s]:
            flops += (p - start) * float(soa.flops[s])
        if missed is None:
            soa.state[s] = DONE
            done += 1
        else:
            soa.state[s] = STALLED
            stalled += 1
            misses.append((s, p, missed))
    for s, p, page in misses:
        sm = int(soa.sm_id[s])
        gpc = sm // tlb.sms_per_gpc % tlb.n_gpcs
        if not should_raise_gpc(tlb, gpc, page):
            coalesced += 1
        elif push_fields(
            buf, page, bool(soa.writes_flat[p]), now, gpc, gpc, int(soa.stream_ids[s]), sm
        ):
            pushed += 1
        else:
            forget_gpc(tlb, gpc, page)
            dropped += 1
    return visited, [k, retired, done, stalled, pushed, coalesced, dropped], flops


@st.composite
def phase_case(draw):
    n_streams = draw(st.integers(min_value=1, max_value=10))
    lengths = draw(st.lists(st.integers(0, 6), min_size=n_streams, max_size=n_streams))
    total = sum(lengths)
    pages = draw(st.lists(st.integers(0, PHASE_PAGES - 1), min_size=total, max_size=total))
    writes = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    flops = draw(st.lists(st.sampled_from(PHASE_FLOPS), min_size=n_streams, max_size=n_streams))
    # cursors anywhere along the span (a stream may resume mid-way or be at its end)
    offsets = [draw(st.integers(0, length)) for length in lengths]
    sms = draw(st.lists(st.integers(0, 4 * SMS_PER_GPC * N_GPCS), min_size=n_streams, max_size=n_streams))
    # the active streams in dispatch order, some of them stalled
    active = draw(st.permutations(range(n_streams)))
    active = active[: draw(st.integers(0, n_streams))]
    stalled = draw(st.lists(st.booleans(), min_size=len(active), max_size=len(active)))
    n = len(active) - sum(stalled)
    # integer-valued jitter ties often; real-valued jitter reorders widely
    jitter = st.one_of(
        st.integers(-3, 3).map(float), st.floats(-40.0, 40.0, allow_nan=False)
    )
    z = draw(st.lists(jitter, min_size=n, max_size=n))
    k = draw(st.one_of(st.just(n), st.integers(0, n)))
    read_ok = draw(st.lists(st.booleans(), min_size=PHASE_PAGES, max_size=PHASE_PAGES))
    write_ok = None
    if draw(st.booleans()):
        write_ok = [r and draw(st.booleans()) for r in read_ok]
    capacity = draw(st.integers(min_value=1, max_value=8))
    head = draw(st.integers(0, capacity - 1))
    # a full ring leaves no room (budget 0); a late head wraps the writes
    size = draw(st.one_of(st.just(capacity), st.integers(0, capacity)))
    pending = draw(
        st.lists(st.tuples(st.integers(0, N_GPCS - 1), st.integers(0, PHASE_PAGES - 1)), max_size=6)
    )
    return SimpleNamespace(
        pages=pages, lengths=lengths, writes=writes, flops=flops, offsets=offsets,
        sms=sms, active=active, stalled=stalled, z=z, k=k,
        read_ok=np.array(read_ok, dtype=bool),
        write_ok=None if write_ok is None else np.array(write_ok, dtype=bool),
        capacity=capacity, head=head, size=size, pending=pending,
        now=draw(st.integers(0, 10**12)),
    )


def _phase_state(case):
    """The streams, uTLB and ring a case starts from."""
    soa = SoaStreams(
        StreamSet(
            np.array(case.pages, dtype=np.int64), case.lengths,
            np.array(case.writes, dtype=bool), flops=case.flops,
        )
    )
    soa.pos[:] = soa.start + np.array(case.offsets, dtype=np.int64)
    soa.state[:] = RUNNABLE
    soa.state[[s for s, stalled in zip(case.active, case.stalled) if stalled]] = STALLED
    soa.sm_id[:] = case.sms
    tlb = UTlbArray(N_GPCS, SMS_PER_GPC)
    for gpc, page in case.pending:  # cells already pending
        should_raise_gpc(tlb, gpc, page)
    tlb.cover(PHASE_PAGES - 1)
    buf = FaultBuffer(capacity=case.capacity, ready_delay_ns=0)
    for _ in range(case.head):
        push_fields(buf, 0, False, 0, 0, 0, 0)
    buf.flush()
    for i in range(case.size):
        push_fields(buf, 100 + i, i % 2 == 0, 5, 1, 1, i, i)
    return soa, tlb, buf


def _kernel_phase(soa, tlb, buf, case, **override):
    """The case's phase through the kernel, taken in as the device does."""
    args = dict(
        z=np.array(case.z, dtype=np.float64), active=np.array(case.active, dtype=np.int64),
        k=case.k, read_ok=case.read_ok, write_ok=case.write_ok, cells=tlb.cells,
        head=buf.head, size=len(buf), now=case.now,
    )
    args.update(override)
    kernel = soa.bind(buf.ring, tlb.n_gpcs, tlb.sms_per_gpc, len(case.z))
    stats, flops = kernel.run(**args)
    n_push = stats[4]
    if n_push:
        tlb.note_raised(kernel.set_cells[:n_push].copy())
    buf.note_pushed(n_push, stats[6])
    return kernel.visited[: stats[0]].tolist(), stats, flops


RING_COUNTERS = ("total_enqueued", "total_dropped", "total_flushed", "high_watermark")


def _phase_bytes(soa, tlb, buf):
    """Everything a phase may change, as bytes."""
    return (
        soa.pos.tobytes(), soa.state.tobytes(), tlb.cells.tobytes(),
        *(field.tobytes() for field in buf.ring), buf.head, len(buf),
        *(getattr(buf, name) for name in RING_COUNTERS),
    )


@given(phase_case())
@settings(max_examples=400, deadline=None)
def test_phase_matches_loop_oracle(case):
    soa, tlb, buf = _phase_state(case)
    ref_soa, ref_tlb, ref_buf = _phase_state(case)
    got = _kernel_phase(soa, tlb, buf, case)
    want = reference_phase(
        ref_soa, ref_tlb, ref_buf, case.active, case.z, case.k,
        case.read_ok, case.write_ok, case.now,
    )
    assert got[0] == want[0]  # visit order
    assert got[1] == want[1]  # counts
    assert got[2].hex() == want[2].hex()  # the FLOP bits
    assert _phase_bytes(soa, tlb, buf) == _phase_bytes(ref_soa, ref_tlb, ref_buf)
    # the cells the phase set are the ones a replay clears
    tlb.on_replay()
    ref_tlb.on_replay()
    assert not tlb.cells.any() and not ref_tlb.cells.any()


def _visited(case, soa) -> list[int]:
    run_ids = [s for s in case.active if soa.state[s] == RUNNABLE]
    order = np.argsort(np.arange(len(run_ids)) + np.array(case.z), kind="stable")
    return [run_ids[i] for i in order[: case.k]]


def _refuse(case, kind, soa, tlb, buf):
    """Corrupt one input of the case's phase; returns run overrides."""
    if kind == "stream id":
        active = np.array(case.active, dtype=np.int64)
        active[case.now % active.size] = soa.n if case.now % 2 else -1
        return {"active": active}
    if kind == "runnable count":
        return {"z": np.zeros(len(case.z) + (1 if case.now % 2 else -1))}
    if kind == "span":
        last = _visited(case, soa)[-1]
        soa.pos[last] = soa.end[last] + 1
        return {}
    if kind == "mask page":
        return {"read_ok": np.ones(0, dtype=bool), "write_ok": None}
    if kind == "sm":
        soa.sm_id[:] = -1
        return {}
    if kind == "cell page":
        return {"cells": np.zeros(N_GPCS, dtype=bool)}  # one page of cells
    if kind == "ring head":
        return {"head": buf.capacity if case.now % 2 else -1}
    return {"size": buf.capacity + 1 if case.now % 2 else -1}


REFUSALS = [
    "stream id", "runnable count", "span", "mask page", "sm", "cell page",
    "ring head", "ring size",
]


@given(phase_case(), st.sampled_from(REFUSALS))
@settings(max_examples=400, deadline=None)
def test_phase_refuses_bad_input_and_changes_nothing(case, kind):
    soa, tlb, buf = _phase_state(case)
    visited = _visited(case, soa)
    if kind == "stream id":
        assume(case.active)
    if kind == "runnable count":
        assume(case.now % 2 or case.z)
    if kind in ("span", "mask page"):
        assume(any(soa.pos[s] < soa.end[s] for s in visited))
    if kind in ("sm", "cell page"):
        # at least one visited stream misses (on a page past the first)
        ref_soa, ref_tlb, ref_buf = _phase_state(case)
        reference_phase(
            ref_soa, ref_tlb, ref_buf, case.active, case.z, case.k,
            case.read_ok, case.write_ok, case.now,
        )
        missed = [
            int(ref_soa.pages_flat[ref_soa.pos[s]])
            for s in visited
            if ref_soa.state[s] == STALLED
        ]
        assume(missed and (kind == "sm" or max(missed) > 0))
    override = _refuse(case, kind, soa, tlb, buf)
    before = _phase_bytes(soa, tlb, buf)
    with pytest.raises(SimulationError, match="GPU phase: "):
        _kernel_phase(soa, tlb, buf, case, **override)
    assert _phase_bytes(soa, tlb, buf) == before


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
