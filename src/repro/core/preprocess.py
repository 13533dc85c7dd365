"""Fault pre-processing: duplicate filtering and VABlock binning.

Section III-C: during pre-processing the driver "stores page fault
information read from the GPU fault buffer and sorts them locally ...
per batch, the driver groups page faults based on VABlocks and services
the faults".  Binning is what enables the bulk-servicing optimizations
of Section III-D (coalesced transfers, shared allocation/staging), and
duplicate filtering is where the Batch (no-flush) policy pays for its
stale entries (Fig. 5's enlarged pre-processing component).

Two kinds of duplicates are filtered here:

* *stale* entries whose page is already resident (serviced by an earlier
  batch before the entry was read - only possible when the buffer was
  not flushed),
* *intra-batch* repeats of the same page from different uTLBs or
  re-raised after a mid-batch replay (Block policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import FaultBatch
from repro.mem.residency import ResidencyState


@dataclass
class VABlockBin:
    """Unique non-resident faulted pages of one VABlock, sorted."""

    vablock_id: int
    pages: np.ndarray  # global page indices, ascending, unique
    writes: np.ndarray  # aligned boolean: any faulting access was a write
    #: ground-truth stream ids per page (analysis/extensions only).
    stream_ids: np.ndarray
    #: originating SM per page (the Section VI-B what-if origin info).
    sm_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.pages.size)


@dataclass
class PreprocessedBatch:
    """A batch after sorting/binning, ready for the service stage."""

    bins: list[VABlockBin] = field(default_factory=list)
    n_read: int = 0
    n_duplicate: int = 0
    #: per-entry duplicate flag aligned with the raw batch order (stale
    #: or intra-batch repeat), used by the trace recorder.
    entry_duplicate: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=bool)
    )

    @property
    def n_unique(self) -> int:
        return sum(len(b) for b in self.bins)


def preprocess_batch(
    batch: FaultBatch,
    residency: ResidencyState,
) -> PreprocessedBatch:
    """Filter duplicates and bin a raw batch by VABlock.

    Bins come out in ascending VABlock order (the driver sorts batches),
    with pages ascending within each bin.
    """
    out = PreprocessedBatch(n_read=len(batch))
    if not len(batch):
        return out

    # the batch already holds parallel field arrays (the driver's
    # host-side fault cache) - no per-entry extraction passes
    pages = batch.page
    writes = batch.is_write
    streams = batch.stream_id
    sms = batch.sm_id

    # Stale duplicates: the access is already satisfiable when the batch
    # is processed (reads need read_ok; writes need write_ok, so a write
    # fault on a resident-but-read-only duplicated page is NOT stale -
    # it is a permission-upgrade the service stage must handle).
    stale = np.where(writes, residency.write_ok[pages], residency.read_ok[pages])
    keep_idx = np.flatnonzero(~stale)
    n_stale = int(pages.size - keep_idx.size)
    pages, writes = pages[keep_idx], writes[keep_idx]
    streams, sms = streams[keep_idx], sms[keep_idx]

    # Intra-batch duplicates: keep one service per page (its first
    # entry's stream and SM), OR the write intent (an upgrade to write
    # permission must still happen).
    order = np.argsort(pages, kind="stable")
    sorted_pages = pages[order]
    is_first = np.empty(sorted_pages.shape, dtype=bool)
    is_first[:1] = True
    np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=is_first[1:])
    starts = np.flatnonzero(is_first)
    first_idx = order[starts]
    uniq_pages = sorted_pages[starts]
    n_intra = int(pages.size - uniq_pages.size)
    out.n_duplicate = n_stale + n_intra

    entry_dup = stale.copy()
    intra_dup = np.ones(pages.shape, dtype=bool)
    intra_dup[first_idx] = False
    entry_dup[keep_idx] = intra_dup
    out.entry_duplicate = entry_dup

    if uniq_pages.size == 0:
        return out
    uniq_writes = np.logical_or.reduceat(writes[order], starts)
    uniq_streams = streams[first_idx]
    uniq_sms = sms[first_idx]

    ppv = residency.pages_per_vablock
    vbs = uniq_pages // ppv
    # uniq_pages is sorted, hence vbs is sorted: cut on boundaries.
    cuts = (np.flatnonzero(vbs[1:] != vbs[:-1]) + 1).tolist()
    los = [0, *cuts]
    for vb, lo, hi in zip(vbs[los].tolist(), los, [*cuts, int(uniq_pages.size)]):
        out.bins.append(
            VABlockBin(
                vablock_id=vb,
                pages=uniq_pages[lo:hi],
                writes=uniq_writes[lo:hi],
                stream_ids=uniq_streams[lo:hi],
                sm_ids=uniq_sms[lo:hi],
            )
        )
    return out
