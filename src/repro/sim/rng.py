"""Seeded randomness for deterministic simulations.

The GPU's block scheduler and fault-arrival interleaving are
nondeterministic on real hardware (Section IV-B: "there is no fixed
ordering due to the nondeterminism of the GPU parallelism").  The
simulator reproduces that *statistically* while remaining bit-for-bit
reproducible under a fixed seed: every stochastic choice flows through a
single :class:`SimRng`, and derived generators are forked with stable
stream names so adding randomness in one component never perturbs another.

Draws stay here even where their use moved to C: a GPU phase's visit
order is keyed by :meth:`SimRng.jitter_noise` (numpy's normals, one per
runnable stream) and sorted in the phase kernel (:mod:`repro.gpu.ckernel`),
the same keys :meth:`SimRng.jitter_order` sorts with numpy.
"""

from __future__ import annotations

import zlib

import numpy as np


class SimRng:
    """A named tree of deterministic numpy generators."""

    def __init__(self, seed: int = 0x5EED, name: str = "root") -> None:
        self.seed = int(seed) & 0xFFFFFFFF
        self.name = name
        self._gen = np.random.default_rng(self.seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for vectorized draws)."""
        return self._gen

    def fork(self, stream: str) -> "SimRng":
        """Derive an independent generator for component ``stream``.

        The child seed mixes the parent seed with a CRC of the stream name,
        so e.g. ``rng.fork("scheduler")`` is stable across runs and
        independent of draw order elsewhere.
        """
        mix = zlib.crc32(stream.encode("utf-8"))
        child_seed = (self.seed * 0x9E3779B1 + mix) & 0xFFFFFFFF
        return SimRng(child_seed, name=f"{self.name}/{stream}")

    # -- convenience wrappers ------------------------------------------------
    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integers in ``[low, high)``."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n_or_array):
        """A random permutation of ``range(n)`` or of an array."""
        return self._gen.permutation(n_or_array)

    def shuffle(self, array) -> None:
        """In-place shuffle."""
        self._gen.shuffle(array)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform floats in ``[low, high)``."""
        return self._gen.uniform(low, high, size=size)

    def jitter_noise(self, n: int, sigma: float) -> np.ndarray:
        """The ``n`` normal draws (standard deviation ``sigma``) that jitter
        an index order: index ``i`` is keyed ``i + noise[i]``.

        :meth:`jitter_order` sorts those keys here; the GPU phase kernel
        (:mod:`repro.gpu.ckernel`) keys its runnable streams the same way
        and sorts in C, so these draws are all of a phase's randomness.
        """
        return self._gen.normal(0.0, max(sigma, 1e-9), size=n)

    def jitter_order(
        self, n: int, strength: float = 0.15, window: float | None = None
    ) -> np.ndarray:
        """Indices ``0..n-1`` in *mostly* ascending order with local jitter.

        Models the GPU block scheduler's preference for lower-numbered
        blocks combined with nondeterministic dispatch (Fig. 7 "regular"
        pattern).  ``strength`` is the jitter amplitude as a fraction of
        ``n``; pass ``window`` to use an *absolute* jitter amplitude
        instead (physical reorder windows - e.g. SM occupancy - do not
        grow with grid size).  0 gives the identity order.  Ties keep
        the lower index (a stable sort of :meth:`jitter_noise`'s keys).
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        sigma = float(window) if window is not None else strength * n
        if sigma <= 0:
            return np.arange(n, dtype=np.int64)
        keys = np.arange(n, dtype=np.float64)
        keys += self.jitter_noise(n, sigma)
        return np.argsort(keys, kind="stable").astype(np.int64, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRng(seed={self.seed:#010x}, name={self.name!r})"
