"""Seeded randomness for deterministic simulations.

The GPU's block scheduler and fault-arrival interleaving are
nondeterministic on real hardware (Section IV-B: "there is no fixed
ordering due to the nondeterminism of the GPU parallelism").  The
simulator reproduces that *statistically* while remaining bit-for-bit
reproducible under a fixed seed: every stochastic choice flows through a
single :class:`SimRng`, and derived generators are forked with stable
stream names so adding randomness in one component never perturbs another.
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

    def jitter_order(
        self,
        n: int,
        strength: float = 0.15,
        window: float | None = None,
        limit: int | None = None,
    ) -> np.ndarray:
        """Indices ``0..n-1`` in *mostly* ascending order with local jitter.

        Models the GPU block scheduler's preference for lower-numbered
        blocks combined with nondeterministic dispatch (Fig. 7 "regular"
        pattern).  ``strength`` is the jitter amplitude as a fraction of
        ``n``; pass ``window`` to use an *absolute* jitter amplitude
        instead (physical reorder windows - e.g. SM occupancy - do not
        grow with grid size).  0 gives the identity order.

        ``limit`` keeps only the first ``limit`` entries of that order.
        The same ``n`` normals are drawn either way, so later draws do
        not depend on it; a partition finds the cut (ties at the cut go
        to the lower index, as in the stable order) and only the
        survivors are sorted.
        """
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        k = n if limit is None else max(0, min(int(limit), n))
        sigma = float(window) if window is not None else strength * n
        if sigma <= 0:
            return np.arange(k, dtype=np.int64)
        keys = np.arange(n, dtype=np.float64)
        keys += self._gen.normal(0.0, max(sigma, 1e-9), size=n)
        if k == n:
            return np.argsort(keys, kind="stable").astype(np.int64, copy=False)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        cut = np.partition(keys, k - 1)[k - 1]
        # every key below the cut plus every tie at it, ascending by index
        cand = np.flatnonzero(keys <= cut)
        top = np.argsort(keys[cand], kind="stable")[:k]
        return cand[top].astype(np.int64, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRng(seed={self.seed:#010x}, name={self.name!r})"
