"""Exception hierarchy for the UVM reproduction library.

Every error raised by ``repro`` derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class AddressError(ReproError):
    """An address fell outside any managed range or was misaligned."""


class AllocationError(ReproError):
    """The managed-memory allocator could not satisfy a request."""


class OutOfDeviceMemoryError(AllocationError):
    """GPU physical memory is exhausted and nothing is evictable.

    In the real driver this manifests as an allocation failure from the
    PMA; in the simulator it indicates the configured device is too small
    for the working set even with eviction (e.g. a single VABlock larger
    than device memory).
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No runnable work remains but warp streams are still unfinished.

    Raised when every remaining warp is stalled and the driver has no
    pending faults to service - this indicates a lost wakeup in a policy
    implementation and should never occur with the stock policies.
    """


class TraceError(ReproError):
    """A trace query or export operation was invalid."""


class ChaosError(SimulationError):
    """A deliberately injected fault (see :mod:`repro.chaos`).

    Raised when an injected failure exhausts its modelled recovery path
    (e.g. a DMA transfer that keeps failing past the in-driver retry
    bound).  The serve supervisor treats it as an infrastructure
    failure - retryable - rather than a deterministic job error, because
    the chaos plan bounds how many attempts it perturbs.
    """


class CheckpointError(ReproError):
    """A simulation checkpoint could not be written or restored."""


class JournalError(ReproError):
    """The write-ahead job journal could not be written or replayed.

    Replay itself is tolerant (a torn tail is truncated, not raised);
    this error covers I/O failures of the journal file - an unwritable
    directory, a failed compaction rename - that make durability
    guarantees impossible to uphold.
    """


class CorruptResultError(ReproError):
    """A stored result failed its integrity check and was quarantined.

    The entry has been moved aside (``<store>/quarantine/``) so the key
    reads as a miss afterwards; re-submitting the same spec recomputes
    and re-stores it.
    """
