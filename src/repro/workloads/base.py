"""Workload abstraction.

A workload knows how to (a) allocate its managed ranges into an
:class:`~repro.mem.address_space.AddressSpace` and (b) emit the warp
streams whose page accesses the GPU will execute, one
:class:`~repro.gpu.warp.StreamSet` per kernel.  Both happen in
:meth:`Workload.build`, which returns a :class:`WorkloadBuild`.

Conventions:

* element indices are converted to *global page indices* via the range's
  ``start_page`` plus byte arithmetic - workloads never hand-compute
  raw addresses;
* a set's ``writes`` flags mark stores (dirty pages must migrate back on
  eviction, Section V-A1); a read-only stream's flags are all False;
* a build emits whole arrays where the pattern allows, and otherwise
  appends each stream's parts to a
  :class:`~repro.gpu.warp.StreamSetBuilder`, which concatenates once;
* workloads are deterministic given the forked rng the builder receives.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace, ManagedRange
from repro.sim.rng import SimRng
from repro.units import human_size


@dataclass
class HostAccess:
    """CPU-side touches of managed data between kernel launches.

    Real UVM ports hit this constantly: the host inspects results,
    finalizes a reduction, or fills boundaries between kernels; each
    touch of a GPU-resident page takes a *CPU* page fault and migrates
    the page back, so the next kernel re-faults it - the ping-pong that
    keeps iterative solvers' fault counts high.  ``writes`` marks host
    stores (the GPU copy is stale either way; writes matter for
    host-side dirty tracking symmetry).
    """

    pages: np.ndarray
    writes: bool = False


@dataclass
class KernelPhase:
    """One kernel launch, optionally preceded by host-side accesses."""

    streams: StreamSet
    host_before: Optional[HostAccess] = None


@dataclass
class WorkloadBuild:
    """The product of building a workload against an address space.

    Simple workloads fill ``streams`` (a single kernel); multi-kernel
    applications with host interaction fill ``phases`` instead and leave
    ``streams`` None.  :attr:`kernels` lists every kernel's set either way.
    """

    streams: Optional[StreamSet]
    ranges: dict[str, ManagedRange] = field(default_factory=dict)
    phases: Optional[list[KernelPhase]] = None

    @classmethod
    def from_phases(
        cls, phases: list[KernelPhase], ranges: dict[str, ManagedRange]
    ) -> "WorkloadBuild":
        return cls(streams=None, ranges=ranges, phases=phases)

    @property
    def kernels(self) -> list[StreamSet]:
        """Every kernel's streams, in launch order."""
        if self.phases is None:
            return [self.streams]
        return [phase.streams for phase in self.phases]

    @property
    def total_accesses(self) -> int:
        return sum(streams.total for streams in self.kernels)


class Workload(abc.ABC):
    """Base class for page-level workload generators."""

    #: registry key and display name (paper Table I row label).
    name: str = "workload"

    @abc.abstractmethod
    def required_bytes(self) -> int:
        """Total managed bytes the workload will allocate."""

    @abc.abstractmethod
    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        """Allocate ranges and emit warp streams."""

    # -- helpers for subclasses ---------------------------------------------------
    @staticmethod
    def pages_of_elements(
        rng_range: ManagedRange,
        element_indices: np.ndarray,
        element_bytes: int,
        page_size: int,
    ) -> np.ndarray:
        """Global pages touched by element indices (duplicates preserved).

        Consecutive accesses to the same page are collapsed to a single
        touch - a warp re-touching the page it just used never re-walks
        the TLB, and the driver could never observe the repetition.
        """
        if element_bytes <= 0:
            raise ConfigurationError("element_bytes must be positive")
        element_indices = np.asarray(element_indices, dtype=np.int64)
        pages = rng_range.start_page + (element_indices * element_bytes) // page_size
        if pages.size and (
            pages.min() < rng_range.start_page or pages.max() >= rng_range.end_page_aligned
        ):
            raise ConfigurationError(
                f"element accesses escape range {rng_range.name!r}"
            )
        return _dedup_consecutive(pages)

    def describe(self) -> str:
        return f"{self.name} ({human_size(self.required_bytes())} managed)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def _dedup_consecutive(pages: np.ndarray) -> np.ndarray:
    """Collapse runs of identical consecutive page touches."""
    if pages.size <= 1:
        return pages
    keep = np.empty(pages.shape, dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]


def chunk_indices(n: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``[start, stop)`` chunks of size ``chunk``."""
    if chunk <= 0:
        raise ConfigurationError("chunk must be positive")
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
