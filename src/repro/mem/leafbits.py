"""Leaf bitsets: a VABlock's per-page flags as one Python int.

Bit ``i`` of a bitset is leaf (page) ``i`` of its VABlock.  The residency
state and the page tables store one bitset per flag and VABlock (a mask
test is one ``&``, a count one ``bit_count()``).  These helpers convert
at the edges: :func:`bits_of` and :func:`mask_of` between one bitset
and its boolean leaf mask, :func:`bits_of_pages` from a list of global
pages to the bitsets of the VABlocks it touches, and :func:`unpack_rows`
from many bitsets to boolean rows, to write the page masks the GPU
scans.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def bits_of(mask: np.ndarray) -> int:
    """A boolean leaf mask as a bitset (bit i is ``mask[i]``)."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def mask_of(bits: int, n_leaves: int) -> np.ndarray:
    """The boolean leaf mask of a bitset (below ``n_leaves``)."""
    if not bits:
        return np.zeros(n_leaves, dtype=bool)
    raw = np.frombuffer(bits.to_bytes((n_leaves + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_leaves, bitorder="little").view(bool)


def bits_of_pages(pages: np.ndarray, width: int) -> dict[int, int]:
    """``{vablock: leaves}`` for the unique global ``pages``, VABlocks of
    ``width`` leaves, in ascending block order (one scatter, one pack)."""
    vablocks, leaves = np.divmod(np.asarray(pages, dtype=np.int64), width)
    touched = np.unique(vablocks)
    rows = np.zeros((touched.size, width), dtype=bool)
    rows[np.searchsorted(touched, vablocks), leaves] = True
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return {
        vb: int.from_bytes(row.tobytes(), "little")
        for vb, row in zip(touched.tolist(), packed)
    }


def unpack_rows(bits: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """The boolean leaf rows of bitsets: ``out[p, i]`` is the mask of
    ``bits[p][i]`` (every plane holds the same number of bitsets, each
    in ``[0, 2**width)``)."""
    step = (width + 7) // 8
    raw = b"".join(row.to_bytes(step, "little") for plane in bits for row in plane)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(bits), -1, step)
    return np.unpackbits(rows, axis=-1, count=width, bitorder="little").view(bool)
