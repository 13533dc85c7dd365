"""Thread-safe, size-bounded in-memory LRU result cache (the hot tier).

The serve layer stores results in a durable-but-slow place: the
content-addressed :class:`~repro.serve.store.ResultStore` (JSON +
checksum verification per read).  Repeat submissions and dashboard
polling re-read the same handful of keys constantly, so the service
puts this tier above it: a byte-bounded LRU mapping content keys to
already-validated values.

Design points:

* **Thread-safe** - one lock around the ordered map; the HTTP handler
  threads and the service supervisor share one instance safely.
* **Size-bounded** - entries are charged their (estimated) payload
  bytes; inserting past ``max_bytes`` evicts least-recently-used
  entries first.  A single value larger than the whole budget is
  rejected outright (counted in ``stats().rejected``) rather than
  wiping the cache.
* **Negative-entry protection** - ``None`` is not a cacheable value, by
  construction: callers memoize only *validated* results (documents
  that passed their checksum), so a corrupt/quarantined store entry can
  never be served from memory.
  :meth:`LruCache.put` raises on ``None`` to keep that invariant
  obvious at the call site.
* **Copy-out for documents** - plain dict values are shallow-copied on
  ``get`` so callers mutating the returned document (adding job ids,
  HTTP envelopes) cannot poison the cached copy.

``max_bytes == 0`` disables the cache: gets miss without counting,
puts are dropped, so a disabled tier reports all-zero statistics
instead of a misleading 0% hit rate.
"""

from __future__ import annotations

import json
import pickle
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError


def estimate_size(value: Any) -> int:
    """Best-effort payload size in bytes, for eviction accounting.

    JSON-serializable documents are charged their canonical JSON length
    (what the store would write); everything else falls back to pickle
    length, then to ``sys.getsizeof``.  Exactness is not required -
    the bound only needs to scale with real memory use.
    """
    try:
        return len(json.dumps(value, sort_keys=True, separators=(",", ":")))
    except (TypeError, ValueError):
        pass
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(value)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`LruCache`."""

    hits: int
    misses: int
    evictions: int
    rejected: int
    entries: int
    size_bytes: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


class LruCache:
    """Byte-bounded, thread-safe LRU map from content key to value."""

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ConfigurationError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._size = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    # -- access ---------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The cached value (refreshed to most-recently-used) or None."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            value = entry[0]
        if isinstance(value, dict):
            return dict(value)
        return value

    def put(self, key: str, value: Any, size_bytes: Optional[int] = None) -> bool:
        """Insert (or refresh) ``key``; returns False when rejected.

        ``None`` is rejected loudly: a miss must stay a miss, so
        corrupt/absent results are never memoized (negative-entry
        protection).
        """
        if value is None:
            raise ConfigurationError(
                "None is not cacheable: negative entries must not be memoized"
            )
        if not self.enabled:
            return False
        size = int(size_bytes) if size_bytes is not None else estimate_size(value)
        if isinstance(value, dict):
            value = dict(value)  # private copy: caller mutations stay out
        with self._lock:
            if size > self.max_bytes:
                self._rejected += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._size -= old[1]
            self._entries[key] = (value, size)
            self._size += size
            while self._size > self.max_bytes and len(self._entries) > 1:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._size -= evicted_size
                self._evictions += 1
            # the newest entry alone may still exceed the budget when a
            # smaller live entry was just refreshed; evict it too rather
            # than run over the bound.
            if self._size > self.max_bytes:
                self._entries.popitem(last=False)
                self._size = 0
                self._evictions += 1
                return False
            return True

    def discard(self, key: str) -> None:
        """Drop ``key`` if present (store quarantine / invalidation)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._size -= entry[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size = 0

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Presence probe; does *not* refresh recency or count a probe."""
        with self._lock:
            return key in self._entries

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._size

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                rejected=self._rejected,
                entries=len(self._entries),
                size_bytes=self._size,
                max_bytes=self.max_bytes,
            )
