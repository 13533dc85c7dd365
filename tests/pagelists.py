"""Page-list set-ups over the stored per-VABlock leaf bitsets.

The residency state (one ``BlockLeaves`` per VABlock) and the page
tables (one mapped bitset per VABlock) change through per-block
transitions that take leaf bitsets.  Tests state their set-ups as global
page lists; these helpers split a list by VABlock (per-page flag arrays
aligned with it), run the transition once per block and sum the
returned counts.  The residency helpers then rewrite the touched
blocks' page masks, as a fault batch does when it closes.
:func:`arrays` reads the state back as page-indexed arrays.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.mem.leafbits import bits_of_pages, unpack_rows
from repro.mem.residency import BlockLeaves


def per_block(state, pages, *flags):
    """Yield ``(block, leaves, *leaf_flags)`` for each VABlock that the
    unique ``pages`` touch, in ascending block order; a flag is a bool
    (every leaf alike) or an array aligned with ``pages``."""
    pages = np.asarray(pages, dtype=np.int64)
    ppv = state.pages_per_vablock
    flag_bits = []
    for flag in flags:
        if np.ndim(flag) == 0:
            flag_bits.append(-1 if flag else 0)
        else:
            flag_bits.append(bits_of_pages(pages[np.asarray(flag, dtype=bool)], ppv))
    for vb, leaves in bits_of_pages(pages, ppv).items():
        yield (
            state.blocks[vb],
            leaves,
            *(f if isinstance(f, int) else f.get(vb, 0) for f in flag_bits),
        )


def _transition(state, pages, method, *flags):
    touched, out = [], []
    for block, *args in per_block(state, pages, *flags):
        touched.append(block)
        out.append(method(block, *args))
    state.sync_masks(touched)
    return out


def back(state, *vablocks) -> None:
    """Reserve GPU backing for ``vablocks``."""
    for vb in vablocks:
        state.blocks[vb].back()


def make_resident(state, pages, writing=False, writable=True, duplicated=False) -> int:
    return sum(
        _transition(state, pages, BlockLeaves.make_resident, writing, writable, duplicated)
    )


def collapse_duplicates(state, pages) -> int:
    return sum(_transition(state, pages, BlockLeaves.collapse_duplicates))


def map_remote(state, pages) -> int:
    return sum(_transition(state, pages, BlockLeaves.map_remote))


def drop_duplicates(state, pages) -> int:
    """Host write: the number of duplicated pages dropped."""
    dropped = _transition(state, pages, BlockLeaves.drop_duplicates)
    return sum(leaves.bit_count() for leaves in dropped)


def migrate_to_host(state, pages) -> tuple[int, int]:
    """CPU fault: ``(moved, dirty)`` page counts."""
    moved = _transition(state, pages, BlockLeaves.migrate_to_host)
    return (
        sum(leaves.bit_count() for leaves, _ in moved),
        sum(dirty.bit_count() for _, dirty in moved),
    )


def map_pages(table, pages) -> int:
    """Map the unique ``pages``; the number newly mapped."""
    ppv = table.space.pages_per_vablock
    return sum(
        table.map(vb, leaves)
        for vb, leaves in bits_of_pages(np.asarray(pages, dtype=np.int64), ppv).items()
    )


def unmap_pages(table, pages) -> int:
    """Unmap the unique ``pages``; the number unmapped."""
    ppv = table.space.pages_per_vablock
    return sum(
        table.unmap(vb, leaves)
        for vb, leaves in bits_of_pages(np.asarray(pages, dtype=np.int64), ppv).items()
    )


def mapped(table) -> np.ndarray:
    """The table's mapped bits as one boolean array over every page."""
    return unpack_rows([table.mapped], table.space.pages_per_vablock).reshape(-1)


def arrays(state) -> SimpleNamespace:
    """The residency state as its page- and block-indexed arrays
    (``ResidencyState.page_arrays``), by attribute."""
    return SimpleNamespace(**state.page_arrays())
