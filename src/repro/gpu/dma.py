"""The DMA/copy-engine model for host-device transfers.

Fault servicing ends with the driver issuing copy commands that the GPU's
copy engines execute over the interconnect (Fig. 2 step 3).  The model
captures what dominates transfer cost in practice:

* a fixed per-transfer setup (command submission, doorbell, engine
  launch) - this is why the driver coalesces contiguous pages into as few
  transfers as possible and why "a batch containing fewer fully faulted
  VABlocks takes much less time" (Section III-D),
* wire time proportional to bytes at the interconnect bandwidth.

The engine also keeps lifetime transfer statistics: total H2D/D2H bytes
moved is the quantity behind the paper's "504 GB moved for a 32 GB random
problem" observation (Section V-A3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.costmodel import CostModel


@dataclass
class DmaStats:
    """Lifetime transfer totals."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_transfers: int = 0
    d2h_transfers: int = 0
    #: injected-failure retries (chaos only; always 0 in clean runs).
    #: Retries re-send on the wire but do not inflate the byte totals -
    #: those model the *payload* the paper's "bytes moved" numbers count.
    chaos_retries: int = 0

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes


class DmaEngine:
    """Cost + accounting for host-device copies."""

    def __init__(self, cost: CostModel, page_size: int, chaos=None) -> None:
        self.cost = cost
        self.page_size = page_size
        self.stats = DmaStats()
        #: chaos injector (None unless model-level injection is armed);
        #: same zero-cost sentinel pattern as UVMSAN.
        self.chaos = chaos

    def _chaos_transfer_ns(self, nbytes: int, transfers: int) -> int:
        """Extra ns from an injected transfer failure (0 when inert).

        A fired ``model.dma_transfer_fail`` costs ``failures`` full
        re-issues of the transfer, modelling the driver's bounded
        in-engine retry; failures beyond ``max_retries`` escalate to
        :class:`~repro.chaos.injector.ChaosTransferError` (the attempt
        is then retried at the job level).
        """
        if self.chaos is None:
            return 0
        from repro.chaos.injector import ChaosTransferError
        from repro.chaos.plan import MODEL_DMA_FAIL

        spec = self.chaos.fire(MODEL_DMA_FAIL)
        if spec is None:
            return 0
        failures = int(spec.args.get("failures", 1))
        max_retries = int(spec.args.get("max_retries", 3))
        if failures > max_retries:
            raise ChaosTransferError(
                f"chaos: DMA transfer failed {failures} times "
                f"(in-driver retry bound {max_retries})"
            )
        self.stats.chaos_retries += failures
        return failures * self.cost.dma_transfer_ns(nbytes, transfers=transfers)

    def h2d_pages(self, n_pages: int, staging_chunk_bytes: int = 2 << 20) -> int:
        """Copy ``n_pages`` host pages to the device; returns simulated ns.

        The driver stages scattered source pages into contiguous staging
        buffers before the copy, so scattered pages within one service do
        NOT each pay a transfer setup: one chunked transfer per
        ``staging_chunk_bytes`` is issued (the per-page staging cost is
        charged separately by the servicer), and only the page count
        matters.  This is the coalescing that makes dense VABlock bins
        cheap - the per-*bin* setup is what scattered batches multiply.
        """
        if n_pages <= 0:
            return 0
        nbytes = n_pages * self.page_size
        transfers = max(1, -(-nbytes // staging_chunk_bytes))
        self.stats.h2d_bytes += nbytes
        self.stats.h2d_transfers += transfers
        ns = self.cost.dma_transfer_ns(nbytes, transfers=transfers)
        if self.chaos is not None:
            ns += self._chaos_transfer_ns(nbytes, transfers)
        return ns

    def d2h_pages(self, n_pages: int, staging_chunk_bytes: int = 2 << 20) -> int:
        """Copy ``n_pages`` device pages back to the host (eviction
        write-back, CPU faults), staged in chunks like :meth:`h2d_pages`."""
        if n_pages <= 0:
            return 0
        nbytes = n_pages * self.page_size
        transfers = max(1, -(-nbytes // staging_chunk_bytes))
        self.stats.d2h_bytes += nbytes
        self.stats.d2h_transfers += transfers
        ns = self.cost.dma_transfer_ns(nbytes, transfers=transfers)
        if self.chaos is not None:
            ns += self._chaos_transfer_ns(nbytes, transfers)
        return ns
