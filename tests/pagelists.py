"""Page-list adapters over the span-form residency transitions.

``ResidencyState.make_resident``, ``collapse_duplicates`` and
``map_remote`` take one VABlock and a boolean mask over its leaves, the
form the per-VABlock service path holds.  Tests state their set-ups as
global page lists; these helpers split a list by VABlock (per-page flag
arrays aligned with it) and call the span form once per block, summing
the returned counts.
"""

from __future__ import annotations

import numpy as np


def leaf_masks(space, pages):
    """``(vablock_id, leaf mask)`` for each VABlock that the unique
    ``pages`` touch, in ascending block order (one sort, one scatter)."""
    pages = np.asarray(pages, dtype=np.int64)
    order = np.argsort(pages, kind="stable")
    ppv = space.pages_per_vablock
    vablocks = pages[order] // ppv
    first = np.ones(vablocks.size, dtype=bool)
    np.not_equal(vablocks[1:], vablocks[:-1], out=first[1:])
    masks = np.zeros((int(np.count_nonzero(first)), ppv), dtype=bool)
    masks[np.cumsum(first) - 1, pages[order] % ppv] = True
    return zip(vablocks[first].tolist(), masks)


def per_block(state, pages, *flags):
    """Yield ``(vablock_id, leaves, *leaf_flags)`` for each VABlock that
    the unique ``pages`` touch; a flag is a bool or an array aligned with
    ``pages``."""
    pages = np.asarray(pages, dtype=np.int64)
    ppv = state.pages_per_vablock
    flag_masks = []
    for flag in flags:
        if np.ndim(flag) == 0:
            flag_masks.append(bool(flag))
            continue
        mask = np.zeros(state.resident.size, dtype=bool)
        mask[pages] = np.asarray(flag, dtype=bool)
        flag_masks.append(mask.reshape(-1, ppv))
    for vb, leaves in leaf_masks(state.space, pages):
        yield (vb, leaves, *(f if isinstance(f, bool) else f[vb] for f in flag_masks))


def make_resident(state, pages, writing=False, writable=True, duplicated=False) -> int:
    return sum(
        state.make_resident(vb, leaves, writing=w, writable=wr, duplicated=d)
        for vb, leaves, w, wr, d in per_block(state, pages, writing, writable, duplicated)
    )


def collapse_duplicates(state, pages) -> int:
    return sum(
        state.collapse_duplicates(vb, leaves) for vb, leaves in per_block(state, pages)
    )


def map_remote(state, pages) -> int:
    return sum(state.map_remote(vb, leaves) for vb, leaves in per_block(state, pages))
