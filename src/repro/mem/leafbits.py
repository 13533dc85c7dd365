"""Leaf bitsets: a VABlock's per-page flags as one Python int.

Bit ``i`` of a bitset is leaf (page) ``i`` of its VABlock.  The fault
servicer decides on bitsets (a mask test is one ``&``, a count one
``bit_count()``) and moves them to and from the numpy state a batch at
a time: :func:`gather_rows` reads the rows of some VABlocks from several
page-indexed boolean arrays in one pass, and :func:`unpack_rows` turns
bitsets back into boolean rows to write.
"""

from __future__ import annotations

from itertools import repeat
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


def gather_rows(
    planes: Sequence[np.ndarray], vablocks: np.ndarray, width: int
) -> list[list[int]]:
    """Per plane, the bitsets of the rows ``vablocks`` of that
    page-indexed array seen as rows of ``width`` leaves."""
    rows = np.stack([plane.reshape(-1, width)[vablocks] for plane in planes])
    packed = np.packbits(rows, axis=-1, bitorder="little")
    # one bytes object per row (a fixed-width bytes view drops trailing
    # zero bytes, which are the high bytes of a little-endian number)
    raw = packed.view(f"S{packed.shape[-1]}").ravel().tolist()
    flat = list(map(int.from_bytes, raw, repeat("little")))
    k = len(vablocks)
    return [flat[j * k : (j + 1) * k] for j in range(len(planes))]


def unpack_rows(bits: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """The boolean leaf rows of bitsets: ``out[p, i]`` is the mask of
    ``bits[p][i]`` (every plane holds the same number of bitsets, each
    in ``[0, 2**width)``); the inverse of :func:`gather_rows`."""
    step = (width + 7) // 8
    raw = b"".join(row.to_bytes(step, "little") for plane in bits for row in plane)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(bits), -1, step)
    return np.unpackbits(rows, axis=-1, count=width, bitorder="little").view(bool)
