"""Access-counter-triggered migration of hot remote pages.

Volta's access counters do more than inform eviction: the real driver
uses **access counter notifications** to migrate pages that the GPU
keeps touching *remotely* (sysmem mappings) into local memory - the
second half of the Section VI-B story ("this information could also
potentially be used for better prefetching inference, assuming the
additional data access and transfer does not have prohibitive
overhead").

The controller watches per-VABlock access counters for blocks holding
remote mappings; when a block accumulates ``promote_threshold`` remote
touches since it was last examined, its remote pages are promoted to
resident local copies (one bulk migration), trading a one-time transfer
for HBM-speed re-touches.  Hysteresis: a block is only promoted once
per ``cooldown`` examinations, so a thrashing-pinned block cannot
ping-pong back and forth with the thrashing detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class CounterMigrationController:
    """Promote remote-mapped VABlocks that the GPU keeps touching."""

    #: remote touches of one block between examinations that trigger
    #: promotion (the access-counter notification granularity).
    promote_threshold: int = 2048
    #: examinations to skip after a promotion decision for a block
    #: (hysteresis against pin/promote ping-pong).
    cooldown: int = 4

    def __post_init__(self) -> None:
        if self.promote_threshold < 1:
            raise ConfigurationError("promote_threshold must be >= 1")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")
        self._baseline: dict[int, int] = {}
        self._cooldown: dict[int, int] = {}
        self.promotions = 0

    def candidates(self, access_counters: np.ndarray, blocks) -> list[int]:
        """VABlocks whose remote traffic since last check earns promotion
        (``blocks`` are the residency's blocks, in VABlock order)."""
        hot: list[int] = []
        for vb in (b.vablock_id for b in blocks if b.remote_mapped):
            if self._cooldown.get(vb, 0) > 0:
                self._cooldown[vb] -= 1
                continue
            seen = int(access_counters[vb])
            base = self._baseline.setdefault(vb, seen)
            if seen - base >= self.promote_threshold:
                hot.append(vb)
                self._baseline[vb] = seen
                self._cooldown[vb] = self.cooldown
        return hot

    def note_promotion(self, vablock_id: int) -> None:
        self.promotions += 1
        self._cooldown[vablock_id] = self.cooldown
