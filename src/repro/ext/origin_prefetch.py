"""Fault-origin stream prefetching (paper Section VI-B).

"Another level of information that offers SM ID, logical thread ID, or
related information sufficient to pinpoint a specific area of execution
... could open the door for existing prefetching methods from
literature."

This what-if predictor assumes that richer hardware: each fault carries
its originating stream (the simulator's ground truth, which the stock
driver policies never read).  A classic stride detector runs per origin:
when an origin's successive faulted pages advance by a stable stride,
the predictor fetches ``depth`` strides ahead (clamped to the serviced
VABlock, since physical backing is per-block).

It deliberately has *no* density stage, so comparing it against the
tree prefetcher isolates what origin information alone buys: precise
per-stream lead, but no block-saturation inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import PAGES_PER_VABLOCK


@dataclass
class _OriginState:
    last_page: int
    stride: int = 0
    confirmations: int = 0


class OriginStreamPrefetcher:
    """Per-origin stride detection over the fault stream."""

    def __init__(
        self,
        pages_per_big_page: int = 16,
        depth: int = 8,
        min_confirmations: int = 1,
        max_origins: int = 65536,
        pages_per_vablock: int = PAGES_PER_VABLOCK,
    ) -> None:
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if min_confirmations < 1:
            raise ConfigurationError("min_confirmations must be >= 1")
        self.pages_per_big_page = pages_per_big_page
        self.pages_per_vablock = pages_per_vablock
        self.depth = depth
        self.min_confirmations = min_confirmations
        self.max_origins = max_origins
        self._origins: dict[int, _OriginState] = {}
        self.predictions = 0

    def _observe(self, origin: int, page: int) -> _OriginState:
        state = self._origins.get(origin)
        if state is None:
            if len(self._origins) >= self.max_origins:
                self._origins.clear()  # crude table reset under pressure
            state = _OriginState(last_page=page)
            self._origins[origin] = state
            return state
        stride = page - state.last_page
        if stride != 0 and stride == state.stride:
            state.confirmations += 1
        else:
            state.stride = stride
            state.confirmations = 0 if stride == 0 else 1
        state.last_page = page
        return state

    def prefetch_bits(self, resident: int, demand: int, vbin, start: int) -> int:
        """Predict ahead for each origin with a confirmed stride.

        The origin is the faulting SM: the granularity Section VI-B says
        the hardware could plausibly expose ("SM ID, logical thread ID,
        or related information sufficient to pinpoint a specific area of
        execution").  Returns a leaf bitset of the bin's VABlock (first
        page ``start``, ``resident`` and ``demand`` leaf bitsets), like
        the tree prefetcher.
        """
        stop = start + self.pages_per_vablock
        predicted = 0
        for page, origin in zip(vbin.pages.tolist(), vbin.sm_ids.tolist()):
            state = self._observe(origin, page)
            if state.stride == 0 or state.confirmations < self.min_confirmations:
                continue
            for k in range(1, self.depth + 1):
                target = page + k * state.stride
                if not start <= target < stop:
                    break  # backing is per-VABlock; stop at the edge
                predicted |= 1 << (target - start)
        bits = predicted & ~(resident | demand)
        self.predictions += bits.bit_count()
        return bits
