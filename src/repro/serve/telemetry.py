"""Streaming per-job telemetry for the simulation service.

Built on the same accumulators the simulator itself uses
(:class:`~repro.sim.stats.CounterSet` for monotonic counters,
:class:`~repro.sim.stats.CategoryTimer` for wall-time attribution), plus
a bounded latency reservoir summarized with
:class:`~repro.sim.stats.LatencyStats` and an append-only event log with
monotonically increasing sequence numbers so clients can stream job
transitions incrementally (``GET /events?since=N``).

All methods are thread-safe: the HTTP handler threads and the
supervisor thread share one instance.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Optional

from repro.sim.stats import CategoryTimer, CounterSet, LatencyStats

# counter names (one place, so tests and docs can't drift)
JOBS_SUBMITTED = "jobs.submitted"
JOBS_COMPLETED = "jobs.completed"
JOBS_FAILED = "jobs.failed"
JOBS_CANCELLED = "jobs.cancelled"
JOBS_RETRIED = "jobs.retried"
JOBS_TIMED_OUT = "jobs.timed_out"
CACHE_HITS_STORE = "cache.hits.store"
CACHE_HITS_SWEEP = "cache.hits.sweep"
#: result reads the store answered with a verified document (submit
#: probes, journal replay and fetches alike).
CACHE_DISK_HITS = "cache.disk_hits"
#: result fetches of a done job that found no stored document.
CACHE_MISSES = "cache.misses"
SIMULATIONS_RUN = "simulations.run"
WORKER_DEATHS = "workers.deaths"
WORKER_RESPAWNS = "workers.respawns"
#: chaos attempts reported by workers (injected-fault probes; retried).
CHAOS_INJECTIONS = "chaos.injections"
#: completed attempts that restored from a mid-run checkpoint.
JOBS_RESUMED = "jobs.resumed"
#: corrupt store entries detected and moved to quarantine/ on read.
RESULTS_QUARANTINED = "results.quarantined"
#: submissions rejected by admission control (queue above watermark).
QUEUE_SHED = "queue.shed"
#: jobs terminally quarantined by the poison-job circuit breaker.
JOBS_POISONED = "jobs.poisoned"
#: jobs reconstructed from the write-ahead journal at startup.
JOBS_JOURNAL_REPLAYED = "jobs.journal_replayed"
#: journal compactions (startup after replay, graceful drain).
JOURNAL_COMPACTIONS = "journal.compactions"
#: store entries exported to a migrating peer shard.
STORE_EXPORTS = "store.exports"
#: store entries imported (checksum-verified) from a peer shard.
STORE_IMPORTS = "store.imports"

# fleet-gateway counters (namespaced ``fleet.`` so they can never
# collide with shard counters in the gateway's /metrics aggregate)
#: submissions accepted and routed to a shard by the gateway.
FLEET_JOBS_ROUTED = "fleet.jobs_routed"
#: requests served by a shard other than their ring-primary (shed,
#: quarantined, or dead primary), plus failover re-submissions.
FLEET_REROUTES = "fleet.reroutes"
#: shard transitions into the quarantined DOWN state.
FLEET_SHARD_DOWN = "fleet.shard_down"
#: shard transitions back to UP after quarantine.
FLEET_SHARD_RECOVERED = "fleet.shard_recovered"
#: health probes issued (every shard, every probe tick).
FLEET_PROBES = "fleet.probes"
#: jobs re-submitted to a surviving shard after their shard went down.
FLEET_FAILOVERS = "fleet.failovers"
#: /healthz code_version disagreements observed between shards.
FLEET_VERSION_MISMATCH = "fleet.version_mismatch"
#: /fleet/join announcements accepted into the membership table.
FLEET_JOINS = "fleet.joins"
#: /fleet/join announcements rejected (version skew, name conflict).
FLEET_JOINS_REJECTED = "fleet.joins_rejected"
#: /fleet/leave departures accepted (graceful drains).
FLEET_LEAVES = "fleet.leaves"
#: probation members promoted to full ring members (post-migration).
FLEET_MEMBERS_PROMOTED = "fleet.members_promoted"
#: membership epoch bumps observed by this gateway (own or applied).
FLEET_EPOCH_BUMPS = "fleet.epoch_bumps"
#: remote membership views applied by a follower (higher epoch won).
FLEET_VIEWS_APPLIED = "fleet.views_applied"
#: arc migrations started (one per join/leave that remaps keys).
FLEET_MIGRATIONS_STARTED = "fleet.migrations_started"
#: arc migrations that ran to completion and flipped routing.
FLEET_MIGRATIONS_COMPLETED = "fleet.migrations_completed"
#: result entries copied old-owner -> new-owner, checksum verified.
FLEET_KEYS_MIGRATED = "fleet.keys_migrated"
#: migration keys skipped (source died mid-copy; recompute covers them).
FLEET_MIGRATION_KEY_SKIPS = "fleet.migration_key_skips"
#: result reads answered from the counterpart owner of a migrating arc.
FLEET_DOUBLE_READS = "fleet.double_reads"
#: foreign gateway ids reconstructed from shard job tables (failover).
FLEET_JOBS_ADOPTED = "fleet.jobs_adopted"
#: lease-expiry elections this gateway won (follower -> acting primary).
FLEET_ELECTIONS_WON = "fleet.elections_won"
#: acting primaries that stepped down after seeing a higher-epoch view.
FLEET_DEMOTIONS = "fleet.demotions"
#: membership mutations refused while this primary was fenced (no
#: follower lease renewal within the TTL).
FLEET_FENCED_REJECTS = "fleet.fenced_rejects"
#: lease renewals recorded from follower view polls.
FLEET_LEASE_RENEWALS = "fleet.lease_renewals"
#: syncing members whose stalled migration the prober respawned.
FLEET_MIGRATIONS_RESPAWNED = "fleet.migrations_respawned"


class Telemetry:
    """Thread-safe counters, timers, latency samples, and an event log."""

    def __init__(self, max_events: int = 10_000, max_samples: int = 4096) -> None:
        self._lock = threading.Lock()
        self.counters = CounterSet()
        self.timer = CategoryTimer()
        self._latency_ns: deque[float] = deque(maxlen=max_samples)
        self._events: deque[dict[str, Any]] = deque(maxlen=max_events)
        self._seq = 0
        self._started_at = time.time()

    # -- recording ------------------------------------------------------------
    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters.add(name, value)

    def charge(self, path: str, duration_ns: float) -> None:
        with self._lock:
            self.timer.charge(path, max(0, round(duration_ns)))

    def observe_latency(self, latency_ns: float) -> None:
        with self._lock:
            self._latency_ns.append(float(latency_ns))

    def event(self, job_id: str, state: str, **detail: Any) -> int:
        """Append a job transition to the stream; returns its sequence number."""
        with self._lock:
            self._seq += 1
            self._events.append(
                {
                    "seq": self._seq,
                    "t": time.time(),
                    "job_id": job_id,
                    "state": state,
                    **detail,
                }
            )
            return self._seq

    # -- reading --------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of one counter (0 when never counted)."""
        with self._lock:
            return self.counters.get(name)

    def events_since(self, since: int, limit: int = 1000) -> list[dict[str, Any]]:
        """Events with ``seq > since``, oldest first (bounded by ``limit``)."""
        with self._lock:
            return [e for e in self._events if e["seq"] > since][:limit]

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def snapshot(self, gauges: Optional[dict[str, Any]] = None) -> dict[str, Any]:
        """One JSON-safe metrics document (the ``/metrics`` payload)."""
        with self._lock:
            counters = self.counters.as_dict()
            timers = self.timer.as_dict()
            latency = LatencyStats.from_samples(self._latency_ns)
            seq = self._seq
            uptime = time.time() - self._started_at
        hits = counters.get(CACHE_HITS_STORE, 0) + counters.get(CACHE_HITS_SWEEP, 0)
        sims = counters.get(SIMULATIONS_RUN, 0)
        return {
            "uptime_s": uptime,
            "counters": counters,
            "timers_ns": timers,
            "gauges": dict(gauges or {}),
            "job_latency": latency.as_dict(),
            "cache_hit_rate": hits / (hits + sims) if (hits + sims) else 0.0,
            "last_event_seq": seq,
        }
