"""The fleet gateway: a consistent-hash sharded tier over the serve layer.

:class:`FleetGateway` fronts N independent :class:`~repro.serve.service.
SimulationService` shards - each with its own journal and result store
- and speaks the *same* JSON-over-HTTP surface as a single service, so
:class:`~repro.serve.client.ServiceClient` (and every CLI verb) works
unmodified against a gateway URL.

Routing: a submission's :meth:`~repro.serve.jobs.JobSpec.spec_digest`
(the spec's content hash - deterministic, cheap, identical in every
process) lands on a :class:`~repro.fleet.ring.HashRing` with virtual
nodes, so each shard owns ~1/N of the key space and membership changes
remap only ~1/N of the keys.  All requests for one content key hit one
shard, which is what makes the shard-local result stores behave like
one fleet-wide cache.

Health: a background prober sweeps every shard's ``/readyz``:

* a shard that answers **503** (shedding/draining) is *alive* but
  paced - it is skipped for new submissions until its ``Retry-After``
  gate expires, and submissions it sheds re-route to the next ring
  replica immediately,
* a shard that stops answering is quarantined **DOWN** after
  ``down_after_probes`` consecutive failures and rejoins only after
  ``recover_after_probes`` consecutive ready answers,
* when a shard goes DOWN the gateway **fails over**: every accepted job
  mapped to it whose outcome the client still needs is re-submitted to
  the next replica.  Job specs are content-addressed and simulations
  deterministic, so a re-run lands a bit-identical result - accepted
  jobs are never lost, merely recomputed.

The gateway keeps its job table in memory only: shards are the durable
tier (write-ahead journals, atomic stores), the gateway is a stateless
router plus a routing table that can be rebuilt by resubmitting.
Gateway job ids embed the spec digest (``gw-<digest16>-<seq>``), so a
*different* gateway instance handed an id it never minted can **adopt**
the job: walk the digest's ring preference, find the shard-side job by
digest, and reconstruct the routing entry - which is what lets clients
fail over between replicated gateways mid-job.

Membership is **elastic** (see :mod:`repro.fleet.membership`): shards
announce themselves via ``POST /fleet/join``, survive a probation
window of healthy probes, get their ring arc migrated over
(:mod:`repro.fleet.migrate`), and only then join routing; graceful
``POST /fleet/leave`` runs the same migration outward before the
member drops off the ring.  The membership view is journaled (a
restarted gateway replays the fleet) and replicated: a follower
gateway started with ``follow=<primary>`` tails ``GET /fleet/view``
long-polls and applies any higher-epoch view, so two gateways never
disagree on routing.

The gateway tier is **self-healing** (see :mod:`repro.fleet.election`):
the acting primary stamps a monotonic-TTL lease into every view it
publishes, a follower whose lease expires (plus ``election_probes``
failed fetches) promotes itself - epoch-jumping its own fsync'd journal
past the old primary's reserved bound and resuming any replicated
in-flight migration from its cursor - and a returning ex-primary
demotes the moment it observes the higher epoch.  ``GET
/fleet/elections`` serves the audit trail proving exactly one acting
primary minted epochs in any range.

``/metrics`` aggregates the fleet: summed per-shard counters and
numeric gauges, per-shard breakdowns, and gateway-level ``fleet.*``
counters (reroutes, shard_down, failovers, joins, migrations, adopted
jobs) plus ring-balance/epoch gauges and the migration audit trail.
"""

from __future__ import annotations

import enum
import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from typing import Any, Callable, Mapping, Optional
from urllib.parse import parse_qs, quote, urlparse

from repro.chaos.network import network_injector
from repro.errors import ConfigurationError, ReproError
from repro.experiments.runner import code_version
from repro.fleet.election import ElectionState, Role
from repro.fleet.membership import FleetMembership, MemberState
from repro.fleet.migrate import (
    MigrationTask,
    Migrator,
    in_flight_from_entries,
    pending_from_snapshot,
    snapshot_in_flight,
)
from repro.fleet.registry import GatewayConfig, ShardSpec
from repro.fleet.ring import HashRing
from repro.serve import telemetry as tm
from repro.serve.client import (
    ServiceClient,
    ServiceClientError,
    ServiceOverloadedError,
)
from repro.serve.jobs import JobSpec
from repro.serve.service import AdmissionError
from repro.serve.telemetry import Telemetry
from repro.serve.wire import JsonRequestHandler

logger = logging.getLogger("repro.fleet")

#: job states after which a shard-side job will never change again.
_TERMINAL = ("done", "failed", "cancelled", "poisoned")
#: terminal states that must NOT be recomputed on failover: a failure
#: is deterministic and a cancellation is a client decision.
_NO_FAILOVER = ("failed", "cancelled", "poisoned")


class FleetUnavailableError(AdmissionError):
    """No shard can accept the submission right now (HTTP 503).

    Same contract as the service's admission errors: nothing was
    created anywhere, the request is safe to retry verbatim after the
    advertised delay.
    """

    status = 503


class ShardState(str, enum.Enum):
    """The prober's verdict on one shard."""

    #: answering ready probes; full routing member.
    UP = "up"
    #: alive but answering 503 (shedding/draining); skipped for new
    #: submissions until its Retry-After gate expires.
    SHEDDING = "shedding"
    #: quarantined: stopped answering probes/requests entirely.
    DOWN = "down"


class ShardHandle:
    """Mutable runtime state of one shard (guarded by the gateway lock)."""

    def __init__(self, spec: ShardSpec, client: ServiceClient) -> None:
        self.spec = spec
        self.client = client
        #: optimistic: the first probe sweep corrects this immediately.
        self.state = ShardState.UP
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        #: monotonic gate while SHEDDING (honours the shard's Retry-After).
        self.not_before = 0.0
        self.code_version: Optional[str] = None
        self.last_error: Optional[str] = None


@dataclass
class GatewayJob:
    """The gateway's routing entry for one accepted submission."""

    gateway_id: str
    #: the verbatim client payload - what a failover re-submits.
    payload: dict[str, Any]
    #: spec content digest; the ring routing key.
    key: str
    #: current shard (None while orphaned awaiting re-route).
    shard_name: Optional[str]
    shard_job_id: Optional[str]
    submitted_at: float = 0.0
    #: cached terminal record (a terminal shard job never changes).
    last_record: Optional[dict[str, Any]] = None
    #: the result document was successfully returned to a client.
    served_result: bool = False
    #: times this job was re-submitted after losing its shard.
    failovers: int = 0
    workload: str = ""


class FleetGateway:
    """Consistent-hash routing gateway over an elastic shard membership."""

    def __init__(
        self,
        config: GatewayConfig,
        journal_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.config = config
        self.telemetry = Telemetry()
        self.code_version = code_version()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        #: woken on every membership epoch bump (the /fleet/view long-poll).
        self._view_cond = threading.Condition()
        #: lease/election state machine; created before the membership
        #: table so seed mutations land in the minted-epoch audit.
        self._election = ElectionState(
            name=config.gateway_name or "gateway",
            role=Role.FOLLOWER if config.follow else Role.PRIMARY,
            advertise_url=config.advertise_url,
            lease_ttl_s=config.lease_ttl_s,
            election_probes=config.election_probes,
            epoch_reserve=config.epoch_reserve,
            now=time.monotonic(),
        )
        if config.follow:
            self._election.acting_url = config.follow
        #: the single source of truth for who is in the fleet; the static
        #: config shards seed the first epoch of a fresh journal.
        self.membership = FleetMembership(
            config.membership_journal,
            seeds=config.shards,
            on_append=journal_hook,
            on_epoch=self._election.note_minted,
        )
        self._shards: dict[str, ShardHandle] = {}
        self._ring = HashRing((), vnodes=config.vnodes)
        self._sync_handles_locked()
        self._jobs: dict[str, GatewayJob] = {}
        self._seq = itertools.count(1)
        self._prober: Optional[threading.Thread] = None
        self._replication: Optional[threading.Thread] = None
        #: url -> client used by the replication thread (follower polls
        #: and primary peer-watch); cached so hint-chasing is cheap.
        self._replication_clients: dict[str, ServiceClient] = {}
        #: latest in-flight migration snapshot replicated from the
        #: acting primary's view - what a promotion resumes from.
        self._replicated_inflight: list[dict[str, Any]] = []
        #: node -> monotonic gate before which the prober must not
        #: respawn that member's stalled migration again.
        self._respawn_at: dict[str, float] = {}
        #: version sets already warned about (warn once per combination).
        self._warned_versions: set[frozenset] = set()
        #: serializes arc migrations (overlapping ring deltas compose badly).
        self._migration_sem = threading.Lock()
        #: mid -> in-flight MigrationTask (readiness + double-read checks).
        self._live_migrations: dict[str, MigrationTask] = {}
        #: completed migration audit documents, oldest first.
        self._migration_audits: list[dict[str, Any]] = []
        #: (from_ring, to_ring) of every migration this process saw -
        #: the double-read candidates for keys caught in a handoff.
        self._migration_rings: list[tuple[HashRing, HashRing]] = []
        #: migrations recovered from the journal, resumed by start().
        self._pending_resume = in_flight_from_entries(
            self.membership.extra_entries
        )
        for member in self.membership.members():
            if member.state is MemberState.SYNCING and not any(
                p["node"] == member.name for p in self._pending_resume
            ):
                # killed between the SYNCING transition and the start
                # record: the migration never began, begin it afresh.
                self._pending_resume.append(
                    {
                        "mid": f"join:{member.name}:e{member.epoch}",
                        "kind": "join",
                        "node": member.name,
                        "done_keys": set(),
                    }
                )
        #: 503 on /readyz until the replayed fleet's migrations resume.
        self._resuming = bool(self._pending_resume)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "FleetGateway":
        for pending in self._pending_resume:
            self._spawn_migration(
                pending["kind"],
                pending["node"],
                done_keys=pending["done_keys"],
                mid=pending["mid"],
            )
        self._pending_resume = []
        self._resuming = False
        self.probe_once()  # synchronous first sweep: honest initial states
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-fleet-prober", daemon=True
        )
        self._prober.start()
        # always started: as a follower it tails the acting primary's
        # view (and promotes on lease expiry); as a primary it watches
        # peers and known replicas for a higher-epoch rival (demotion).
        self._replication = threading.Thread(
            target=self._replication_loop,
            name="repro-fleet-replication",
            daemon=True,
        )
        self._replication.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        with self._view_cond:
            self._view_cond.notify_all()
        for thread in (self._prober, self._replication):
            if thread is not None:
                thread.join(timeout=timeout)
        for client in [h.client for h in self._handles()] + list(
            self._replication_clients.values()
        ):
            client.close()
        self.membership.close()

    def __enter__(self) -> "FleetGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- elastic membership ---------------------------------------------------
    def _sync_handles_locked(self) -> None:
        """Reconcile shard handles + ring with the membership table.

        Handles exist for every non-LEFT member (probation members are
        probed, syncing members are migration endpoints) but the ring
        carries only ACTIVE members - the routing flip *is* the ACTIVE
        transition.
        """
        routable = {m.name: m for m in self.membership.routable()}
        for name, member in routable.items():
            handle = self._shards.get(name)
            if handle is None or handle.spec.url != member.url:
                if handle is not None:
                    handle.client.close()
                self._shards[name] = ShardHandle(
                    ShardSpec(name, member.url),
                    ServiceClient(
                        member.url,
                        timeout_s=self.config.read_timeout_s,
                        connect_timeout_s=self.config.connect_timeout_s,
                        retries=0,
                    ),
                )
        for name in [n for n in self._shards if n not in routable]:
            self._shards.pop(name).client.close()
        active = set(self.membership.active_names())
        if active != set(self._ring.nodes):
            self._ring = HashRing(active, vnodes=self.config.vnodes)

    def _handles(self) -> list[ShardHandle]:
        with self._lock:
            return list(self._shards.values())

    def _client_for(self, name: str) -> Optional[ServiceClient]:
        with self._lock:
            handle = self._shards.get(name)
        return None if handle is None else handle.client

    def _notify_view(self) -> None:
        with self._view_cond:
            self._view_cond.notify_all()

    def _primary_hint(self) -> dict[str, Any]:
        """The 503 body a non-primary answers membership requests with.

        The ``primary`` URL comes from the *latest adopted view's
        lease* (falling back to the static ``follow`` config before
        first contact), so an announcer chasing the hint lands on the
        post-election acting primary, not on whoever this gateway was
        originally configured to follow.
        """
        lease = self._election.last_lease or {}
        return {
            "error": "this gateway is not the acting primary; "
            "announce to the primary",
            "primary": self._election.acting_url
            or lease.get("url")
            or self.config.follow,
            "primary_name": lease.get("holder"),
            "role": self._election.role.value,
            "epoch": self.membership.epoch,
        }

    def _fenced_body(self) -> dict[str, Any]:
        """The 503 body a fenced primary answers membership requests with."""
        self.telemetry.count(tm.FLEET_FENCED_REJECTS)
        return {
            "error": "primary is fenced (no follower lease renewal within "
            "the TTL); membership is frozen pending re-contact",
            "fenced": True,
            "epoch": self.membership.epoch,
        }

    def join(self, payload: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """Handle one ``POST /fleet/join``; returns (status, body).

        Idempotent: a member re-announcing its current identity gets
        its current state back without an epoch bump, which is what
        lets shards re-announce on a timer to heal gateway restarts.
        """
        if not self._election.is_primary():
            return 503, self._primary_hint()
        if not self._election.may_mint(
            self.membership.epoch + 1, time.monotonic()
        ):
            return 503, self._fenced_body()
        name = str(payload.get("shard_name", ""))
        url = str(payload.get("url", ""))
        joiner_version = payload.get("code_version")
        try:
            spec = ShardSpec(name, url)  # validates + normalizes
        except ConfigurationError as exc:
            self.telemetry.count(tm.FLEET_JOINS_REJECTED)
            return 400, {"error": str(exc)}
        with self._lock:
            existing = self.membership.get(spec.name)
            if (
                existing is not None
                and existing.url == spec.url
                and existing.state is not MemberState.LEFT
            ):
                return 200, {
                    "shard_name": spec.name,
                    "state": existing.state.value,
                    "epoch": self.membership.epoch,
                }
            for member in self.membership.routable():
                if member.url == spec.url and member.name != spec.name:
                    self.telemetry.count(tm.FLEET_JOINS_REJECTED)
                    return 409, {
                        "error": f"url {spec.url} already registered as "
                        f"shard {member.name!r}"
                    }
            fleet_versions = {
                h.code_version
                for h in self._shards.values()
                if h.code_version
                and self.membership.get(h.spec.name) is not None
                and self.membership.get(h.spec.name).state
                is MemberState.ACTIVE
            } or {self.code_version}
            if (
                joiner_version is not None
                and joiner_version not in fleet_versions
                and not self.config.allow_version_skew
            ):
                self.telemetry.count(tm.FLEET_JOINS_REJECTED)
                self.telemetry.event(
                    "fleet",
                    "join_rejected",
                    shard=spec.name,
                    reason="version skew",
                    joiner=joiner_version,
                    fleet=sorted(fleet_versions),
                )
                return 403, {
                    "error": f"code_version {joiner_version!r} does not match "
                    f"the fleet ({sorted(fleet_versions)}); results would not "
                    "be cache-compatible (pass --allow-version-skew to admit)"
                }
            self.membership.upsert(
                spec.name,
                spec.url,
                code_version=joiner_version,
                state=MemberState.PROBATION,
            )
            self._sync_handles_locked()
            epoch = self.membership.epoch
        self.telemetry.count(tm.FLEET_JOINS)
        self.telemetry.count(tm.FLEET_EPOCH_BUMPS)
        self.telemetry.event(
            "fleet", "member_joined", shard=spec.name, url=spec.url, epoch=epoch
        )
        logger.info("shard %s (%s) joined on probation", spec.name, spec.url)
        self._notify_view()
        return 202, {
            "shard_name": spec.name,
            "state": MemberState.PROBATION.value,
            "epoch": epoch,
            "probation_probes": self.config.probation_probes,
        }

    def leave(self, payload: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """Handle one ``POST /fleet/leave`` (graceful drain)."""
        if not self._election.is_primary():
            return 503, self._primary_hint()
        if not self._election.may_mint(
            self.membership.epoch + 1, time.monotonic()
        ):
            return 503, self._fenced_body()
        name = str(payload.get("shard_name", ""))
        with self._lock:
            member = self.membership.get(name)
            if member is None:
                return 404, {"error": f"unknown shard {name!r}"}
            if member.state is MemberState.LEFT:
                return 200, {"shard_name": name, "state": "left"}
            on_ring = name in self._ring.nodes and len(self._ring) > 1
            if not on_ring:
                # probation/syncing member, or the last shard standing:
                # nothing to migrate off the ring, drop it immediately.
                self.membership.set_state(name, MemberState.LEFT)
                self._sync_handles_locked()
        self.telemetry.count(tm.FLEET_LEAVES)
        self.telemetry.count(tm.FLEET_EPOCH_BUMPS)
        self.telemetry.event("fleet", "member_leaving", shard=name, migrate=on_ring)
        self._notify_view()
        if on_ring:
            # the member keeps serving its arc while the migrator copies
            # it out; the LEFT transition (= the routing flip) happens in
            # _run_migration once the copy lands.
            self._spawn_migration("leave", name)
            return 202, {"shard_name": name, "state": "leaving"}
        return 200, {"shard_name": name, "state": "left"}

    def _note_probation(self, shard: ShardHandle) -> None:
        """Count one healthy probe toward a probation member's admission."""
        # only an acting, un-fenced primary mutates membership: a
        # follower's probes must never mint epochs of their own.
        if not self._election.may_mint(
            self.membership.epoch + 1, time.monotonic()
        ):
            return
        member = self.membership.get(shard.spec.name)
        if member is None or member.state is not MemberState.PROBATION:
            return
        member.healthy_probes += 1
        if member.healthy_probes < self.config.probation_probes:
            return
        with self._lock:
            self.membership.set_state(shard.spec.name, MemberState.SYNCING)
        self.telemetry.count(tm.FLEET_EPOCH_BUMPS)
        self.telemetry.event(
            "fleet", "member_syncing", shard=shard.spec.name
        )
        logger.info(
            "shard %s passed probation; migrating its arc", shard.spec.name
        )
        self._notify_view()
        self._spawn_migration("join", shard.spec.name)

    # -- arc migration --------------------------------------------------------
    def _spawn_migration(
        self,
        kind: str,
        node: str,
        done_keys: Optional[set] = None,
        mid: Optional[str] = None,
    ) -> threading.Thread:
        if kind == "join":
            # gate the prober's stalled-migration respawn: the spawned
            # thread may not have registered in _live_migrations yet.
            self._respawn_at[node] = time.monotonic() + max(
                2 * self.config.probe_interval_s, 1.0
            )
        thread = threading.Thread(
            target=self._run_migration,
            args=(kind, node, set(done_keys or ()), mid),
            name=f"repro-fleet-migrate-{node}",
            daemon=True,
        )
        thread.start()
        return thread

    def _run_migration(
        self, kind: str, node: str, done_keys: set, mid: Optional[str]
    ) -> None:
        """Copy the arc, then flip routing (the member state transition)."""
        with self._migration_sem:
            with self._lock:
                current = self._ring
                target: Optional[HashRing] = None
                if kind == "join":
                    if node not in current.nodes:
                        target = current.with_node(node)
                elif node in current.nodes and len(current) > 1:
                    target = current.without_node(node)
                if mid is None:
                    mid = f"{kind}:{node}:e{self.membership.epoch}"
                task = MigrationTask(
                    mid=mid, kind=kind, node=node, done_keys=done_keys
                )
                self._live_migrations[mid] = task
            try:
                if target is not None:
                    audit = Migrator(
                        self._client_for,
                        journal_append=self.membership.append_entry,
                        telemetry=self.telemetry,
                        stop=self._stop,
                    ).run(task, current, target)
                else:
                    audit = task.audit()
            finally:
                with self._lock:
                    self._live_migrations.pop(mid, None)
            with self._lock:
                self._migration_audits.append(audit)
                if target is not None:
                    self._migration_rings.append((current, target))
                member = self.membership.get(node)
                flipped = False
                may_flip = self._election.may_mint(
                    self.membership.epoch + 1, time.monotonic()
                )
                # a join whose copy skipped *anything* (unreachable
                # source, failed copies - e.g. a partition landing mid
                # arc) must NOT flip: the joiner would take over arc
                # keys it holds no data for.  It stays SYNCING and the
                # prober respawns the migration once the sources come
                # back; already-copied keys re-import as no-ops.
                arc_incomplete = kind == "join" and bool(task.skipped)
                if kind == "join":
                    if (
                        may_flip
                        and not arc_incomplete
                        and member is not None
                        and member.state is MemberState.SYNCING
                    ):
                        self.membership.set_state(node, MemberState.ACTIVE)
                        self.telemetry.count(tm.FLEET_MEMBERS_PROMOTED)
                        flipped = True
                elif (
                    may_flip
                    and member is not None
                    and member.state is not MemberState.LEFT
                ):
                    self.membership.set_state(node, MemberState.LEFT)
                    flipped = True
                if flipped:
                    self._sync_handles_locked()
        if flipped:
            self.telemetry.count(tm.FLEET_EPOCH_BUMPS)
        elif arc_incomplete or not may_flip:
            logger.warning(
                "migration %s finished without flipping (%s); the prober "
                "will retry",
                mid,
                f"{audit['skips']} arc key(s) skipped"
                if arc_incomplete
                else "fenced",
            )
        self.telemetry.event("fleet", "migration_done", **audit)
        logger.info(
            "migration %s done: %d key(s) moved, %d skipped",
            mid,
            audit["keys_migrated"],
            audit["skips"],
        )
        self._notify_view()
        if kind == "leave" and flipped:
            self._reroute_from(node)

    def _reroute_from(self, name: str) -> None:
        """Orphan + re-route jobs tracked on a member that left."""
        with self._lock:
            victims = []
            for entry in self._jobs.values():
                if entry.shard_name != name:
                    continue
                state = (entry.last_record or {}).get("state")
                if state in _NO_FAILOVER:
                    continue
                if state == "done" and entry.served_result:
                    continue
                entry.shard_name = None
                entry.shard_job_id = None
                entry.last_record = None
                victims.append(entry)
        for entry in victims:
            self._try_reroute(entry, exclude=frozenset({name}))

    def migration_audit(self) -> dict[str, Any]:
        """Every migration this gateway ran (the accounting document)."""
        with self._lock:
            return {
                "completed": [dict(a) for a in self._migration_audits],
                "live": [
                    {"mid": t.mid, "kind": t.kind, "node": t.node}
                    for t in self._live_migrations.values()
                ],
                "epoch": self.membership.epoch,
            }

    # -- view replication -----------------------------------------------------
    def wait_view(
        self,
        since: int = 0,
        wait_s: float = 0.0,
        replica: Optional[str] = None,
    ) -> dict[str, Any]:
        """The membership view, long-polling until ``epoch > since``.

        A follower tails this: the bounded wait returns the current
        (possibly unchanged) view on timeout so the poll loop never
        hangs past its budget.  A poll carrying the ``replica``
        parameter (even empty) is a *follower* poll: it renews the
        primary's lease, extends its promised epoch bound, and registers
        the follower's advertise URL for the primary's peer watch.  The
        published view is stamped with the lease, the publisher's role,
        and the in-flight migration cursors a promoted follower resumes
        from.
        """
        if replica is not None and self._election.is_primary():
            self._election.note_follower_poll(
                self.membership.epoch, replica or None, time.monotonic()
            )
            self.telemetry.count(tm.FLEET_LEASE_RENEWALS)
        deadline = time.monotonic() + min(max(wait_s, 0.0), 30.0)
        with self._view_cond:
            while (
                self.membership.epoch <= since
                and not self._stop.is_set()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._view_cond.wait(remaining)
        view = self.membership.view()
        view["role"] = self._election.role.value
        if self._election.is_primary():
            view["lease"] = self._election.lease_for(view["epoch"])
            view["acting_primary"] = self._election.advertise_url
            with self._lock:
                live = list(self._live_migrations.values())
            view["migrations"] = {"in_flight": snapshot_in_flight(live)}
        else:
            # a follower relays what it knows so a client polling the
            # wrong gateway still learns who the acting primary is.
            if self._election.last_lease is not None:
                view["lease"] = dict(self._election.last_lease)
            view["acting_primary"] = self._election.acting_url
            with self._lock:
                view["migrations"] = {
                    "in_flight": [dict(i) for i in self._replicated_inflight]
                }
        return view

    def _replication_client(self, url: str) -> ServiceClient:
        client = self._replication_clients.get(url)
        if client is None:
            client = ServiceClient(
                url,
                timeout_s=max(self.config.read_timeout_s, 15.0),
                connect_timeout_s=self.config.connect_timeout_s,
                retries=0,
            )
            self._replication_clients[url] = client
        return client

    def _replication_loop(self) -> None:
        """Follower: tail the acting primary.  Primary: watch for rivals.

        One thread serves both roles, so a gateway switches between them
        on promotion/demotion without thread churn.
        """
        while not self._stop.is_set():
            try:
                if self._election.is_primary():
                    self._watch_peers_once()
                    self._stop.wait(
                        max(
                            0.5,
                            min(
                                self.config.probe_interval_s,
                                self.config.lease_ttl_s / 2.0,
                            ),
                        )
                    )
                else:
                    self._follow_once()
            except Exception:  # one bad round must not kill replication
                self.telemetry.count("fleet.replication_errors")
                self._stop.wait(min(1.0, self.config.probe_interval_s))

    def _follow_once(self) -> None:
        """One follower poll: renew the lease or count toward election."""
        target = self._election.acting_url or self.config.follow
        if not target:
            self._stop.wait(min(1.0, self.config.probe_interval_s))
            return
        since = self.membership.epoch
        wait_s = max(0.5, min(10.0, self.config.lease_ttl_s / 2.0))
        # the *effective* advertise URL (set_advertise_url backfills it
        # for ephemeral-port gateways), so the primary's peer watch can
        # poll us back even when --advertise-url was never configured.
        replica = quote(self._election.advertise_url or "", safe="")
        path = f"/fleet/view?since={since}&wait_s={wait_s:g}&replica={replica}"
        try:
            view, _ = self._replication_client(target).request_with_budget(
                "GET", path
            )
        except (ReproError, OSError):
            if self._election.note_probe_failure(time.monotonic()):
                self._promote()
            else:
                self._stop.wait(min(1.0, self.config.probe_interval_s))
            return
        chase = self._election.note_view(view, target, time.monotonic())
        inflight = (view.get("migrations") or {}).get("in_flight")
        if isinstance(inflight, list):
            with self._lock:
                self._replicated_inflight = [
                    dict(item) for item in inflight if isinstance(item, dict)
                ]
        self._apply_remote_view(view)
        if chase:
            logger.info("lease names a different acting primary: %s", chase)

    def _watch_peers_once(self) -> None:
        """Poll peers + known replicas for a higher-epoch view (demotion).

        A restarted ex-primary discovers its successor through this:
        the successor's peer watch polls *us* with ``replica=<its
        url>``, we record that URL and poll it back, observe the higher
        epoch in its lease-stamped view, and demote.
        """
        own = (self._election.advertise_url or "").rstrip("/")
        targets: list[str] = []
        for url in (*self.config.peers, self.config.follow or ""):
            url = url.rstrip("/")
            if url and url != own and url not in targets:
                targets.append(url)
        for url in list(self._election.replicas):
            url = url.rstrip("/")
            if url and url != own and url not in targets:
                targets.append(url)
        replica = quote(own, safe="")
        for url in targets:
            if self._stop.is_set() or not self._election.is_primary():
                return
            try:
                view, _ = self._replication_client(url).request_with_budget(
                    "GET", f"/fleet/view?since=0&wait_s=0&replica={replica}"
                )
            except (ReproError, OSError):
                continue
            try:
                epoch = int(view.get("epoch", 0))
            except (TypeError, ValueError):
                continue
            lease = view.get("lease")
            holder = (
                lease.get("holder") if isinstance(lease, Mapping) else None
            )
            if epoch > self.membership.epoch and holder != self._election.name:
                self._demote(view, source_url=url)
                return

    def _apply_remote_view(self, view: Mapping[str, Any]) -> bool:
        """Adopt a higher-epoch remote view into the local table."""
        try:
            applied = self.membership.apply_view(view)
        except ConfigurationError:
            return False
        if applied:
            with self._lock:
                self._sync_handles_locked()
            self.telemetry.count(tm.FLEET_VIEWS_APPLIED)
            self.telemetry.count(tm.FLEET_EPOCH_BUMPS)
            self.telemetry.event(
                "fleet", "view_applied", epoch=view.get("epoch")
            )
            self._notify_view()
        return applied

    # -- election -------------------------------------------------------------
    def _promote(self) -> None:
        """Lease expired + probes failed: become the acting primary.

        The epoch jump (``bump_epoch`` past the old primary's reserved
        bound) is fsync'd into this gateway's own membership journal
        before anything else happens, so even a crash mid-promotion
        leaves a journal whose replay wins ``apply_view`` against the
        fenced old primary.  Replicated in-flight migration cursors are
        re-journaled locally and resumed.
        """
        with self._lock:
            if self._election.is_primary() or self._stop.is_set():
                return
            new_epoch = self._election.promotion_epoch(self.membership.epoch)
            self._election.promote(new_epoch, time.monotonic())
            self.membership.bump_epoch(new_epoch)
            pending = pending_from_snapshot(self._replicated_inflight)
            self._replicated_inflight = []
            self._sync_handles_locked()
        self.telemetry.count(tm.FLEET_ELECTIONS_WON)
        self.telemetry.count(tm.FLEET_EPOCH_BUMPS)
        self.telemetry.event(
            "fleet",
            "promoted",
            gateway=self._election.name,
            epoch=new_epoch,
            resumed_migrations=[p["mid"] for p in pending],
        )
        logger.warning(
            "lease expired: promoting to acting primary at epoch %d "
            "(%d in-flight migration(s) to resume)",
            new_epoch,
            len(pending),
        )
        for item in pending:
            # re-journal the start + cursor so a crash of *this* primary
            # resumes from the same point the old one had reached.
            self.membership.append_entry(
                {
                    "op": "migration_start",
                    "mid": item["mid"],
                    "kind": item["kind"],
                    "node": item["node"],
                    "remap_share": 0.0,
                }
            )
            for key in sorted(item["done_keys"]):
                self.membership.append_entry(
                    {"op": "migrated", "mid": item["mid"], "key": key}
                )
            self._spawn_migration(
                item["kind"],
                item["node"],
                done_keys=item["done_keys"],
                mid=item["mid"],
            )
        self._notify_view()

    def _demote(self, view: Mapping[str, Any], source_url: str) -> None:
        """A higher-epoch acting primary exists: step down and follow it."""
        lease = view.get("lease")
        lease = dict(lease) if isinstance(lease, Mapping) else {}
        try:
            epoch = int(view.get("epoch", 0))
        except (TypeError, ValueError):
            epoch = 0
        holder = lease.get("holder")
        url = lease.get("url") or source_url
        self._election.demote(holder, str(url), epoch, time.monotonic())
        self.telemetry.count(tm.FLEET_DEMOTIONS)
        self.telemetry.event("fleet", "demoted", to=holder, epoch=epoch)
        logger.warning(
            "observed acting primary %r at epoch %d (ours: %d): demoting",
            holder,
            epoch,
            self.membership.epoch,
        )
        self._apply_remote_view(view)
        self._election.note_view(view, source_url, time.monotonic())
        inflight = (view.get("migrations") or {}).get("in_flight")
        if isinstance(inflight, list):
            with self._lock:
                self._replicated_inflight = [
                    dict(item) for item in inflight if isinstance(item, dict)
                ]

    def set_advertise_url(self, url: str) -> None:
        """Backfill the advertise URL once the HTTP port is known.

        Ephemeral-port gateways (tests, dev) cannot put their URL in
        config; the HTTP binder calls this so the lease and the
        follower ``replica=`` registration still carry a reachable
        address.  A configured ``advertise_url`` always wins.
        """
        if not self._election.advertise_url:
            self._election.advertise_url = url.rstrip("/")
            if self._election.is_primary():
                self._election.acting_url = self._election.advertise_url

    def election_audit(self) -> dict[str, Any]:
        """The election audit document (``GET /fleet/elections``)."""
        doc = self._election.audit()
        doc["epoch"] = self.membership.epoch
        doc["fenced"] = self._election.fenced(time.monotonic())
        return doc

    # -- health probing -------------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval_s):
            try:
                self.probe_once()
            except Exception:  # one bad sweep must not kill the prober
                self.telemetry.count("fleet.probe_errors")

    def probe_once(self) -> None:
        """One sweep: probe every shard, then retry orphaned jobs.

        Probation members are probed too - their healthy streak is what
        admits them (see :meth:`_note_probation`).
        """
        for shard in self._handles():
            self._probe_shard(shard)
        self._reroute_orphans()
        self._ensure_syncing_migrations()

    def _ensure_syncing_migrations(self) -> None:
        """Respawn the arc migration of any SYNCING member that has none.

        A join migration can finish without flipping (its sources were
        all unreachable so nothing was copied, or the primary was fenced
        at flip time); the member then sits in SYNCING with no live
        migration and would never activate.  The acting primary retries
        it with a probe-interval backoff.
        """
        now = time.monotonic()
        if not self._election.may_mint(self.membership.epoch + 1, now):
            return
        respawn: list[str] = []
        with self._lock:
            live_nodes = {t.node for t in self._live_migrations.values()}
            pending_nodes = {p["node"] for p in self._pending_resume}
            for member in self.membership.members():
                if member.state is not MemberState.SYNCING:
                    continue
                if member.name in live_nodes or member.name in pending_nodes:
                    continue
                if self._respawn_at.get(member.name, 0.0) > now:
                    continue
                respawn.append(member.name)
        for name in respawn:
            self.telemetry.count(tm.FLEET_MIGRATIONS_RESPAWNED)
            self.telemetry.event("fleet", "migration_respawned", shard=name)
            logger.info("respawning stalled join migration for %s", name)
            self._spawn_migration("join", name)

    def _probe_shard(self, shard: ShardHandle) -> None:
        self.telemetry.count(tm.FLEET_PROBES)
        try:
            shard.client.request_with_budget("GET", "/readyz")
        except ServiceOverloadedError as exc:
            # it answered: alive, just not ready (shedding/draining).
            self._note_shed(shard, exc.retry_after_s)
            return
        except (ReproError, OSError) as exc:
            self._note_failure(shard, str(exc))
            return
        self._note_ready(shard)

    def _note_shed(self, shard: ShardHandle, retry_after_s: float) -> None:
        """Shard answered 429/503: pace it, and clear any quarantine."""
        with self._lock:
            shard.consecutive_failures = 0
            was_down = shard.state is ShardState.DOWN
            shard.state = ShardState.SHEDDING
            shard.not_before = time.monotonic() + max(0.0, retry_after_s)
        self.telemetry.event(
            "fleet",
            "shard_shedding",
            shard=shard.spec.name,
            retry_after_s=retry_after_s,
            was_down=was_down,
        )

    def _note_failure(self, shard: ShardHandle, error: str) -> None:
        """A probe or request could not reach the shard at all."""
        with self._lock:
            shard.consecutive_successes = 0
            shard.consecutive_failures += 1
            shard.last_error = error
            went_down = (
                shard.state is not ShardState.DOWN
                and shard.consecutive_failures >= self.config.down_after_probes
            )
            if went_down:
                shard.state = ShardState.DOWN
        if went_down:
            self.telemetry.count(tm.FLEET_SHARD_DOWN)
            self.telemetry.event(
                "fleet", "shard_down", shard=shard.spec.name, error=error
            )
            logger.warning(
                "shard %s (%s) quarantined: %s",
                shard.spec.name,
                shard.spec.url,
                error,
            )
            self._failover_shard(shard)

    def _note_ready(self, shard: ShardHandle) -> None:
        recovered = False
        self._note_probation(shard)
        with self._lock:
            shard.consecutive_failures = 0
            shard.last_error = None
            if shard.state is ShardState.UP:
                if shard.code_version is not None:
                    return
                # first successful contact: fall through to version fetch
            elif shard.state is ShardState.SHEDDING:
                shard.state = ShardState.UP
                shard.not_before = 0.0
            else:  # DOWN: require a streak of ready answers to rejoin
                shard.consecutive_successes += 1
                if shard.consecutive_successes < self.config.recover_after_probes:
                    return
                shard.state = ShardState.UP
                shard.not_before = 0.0
                recovered = True
        if recovered:
            self.telemetry.count(tm.FLEET_SHARD_RECOVERED)
            self.telemetry.event("fleet", "shard_recovered", shard=shard.spec.name)
            logger.info("shard %s rejoined the fleet", shard.spec.name)
        self._refresh_version(shard)

    def _refresh_version(self, shard: ShardHandle) -> None:
        """Record the shard's ``/healthz`` code version; warn on skew."""
        try:
            doc, _ = shard.client.request_with_budget("GET", "/healthz")
        except (ReproError, OSError):
            return
        with self._lock:
            shard.code_version = doc.get("code_version")
        self._check_versions()

    def _check_versions(self) -> None:
        # only shard-vs-shard skew matters: shards compute and cache the
        # results, the gateway merely routes, so its own version is not
        # part of the compatibility set.
        with self._lock:
            versions = {
                s.spec.name: s.code_version
                for s in self._shards.values()
                if s.code_version
            }
            observed = frozenset(versions.values())
            if len(observed) <= 1 or observed in self._warned_versions:
                return
            self._warned_versions.add(observed)
        self.telemetry.count(tm.FLEET_VERSION_MISMATCH)
        self.telemetry.event(
            "fleet",
            "version_mismatch",
            gateway=self.code_version,
            shards=versions,
        )
        logger.warning(
            "fleet is running mixed code versions (results will not be "
            "cache-compatible across shards): gateway=%s shards=%s",
            self.code_version,
            versions,
        )

    # -- routing --------------------------------------------------------------
    def _eligible(self, shard: ShardHandle, now: float) -> bool:
        if shard.state is ShardState.DOWN:
            return False
        if shard.state is ShardState.SHEDDING and shard.not_before > now:
            return False
        return True

    def _route_submit(
        self,
        payload: dict[str, Any],
        key: str,
        exclude: frozenset = frozenset(),
    ) -> tuple[ShardHandle, dict[str, Any]]:
        """Submit ``payload`` to the first willing shard in ring order.

        Walks the key's replica preference list: quarantined shards and
        shards inside their Retry-After gate are skipped, a shard that
        sheds (429/503) is paced and skipped, a shard that is
        unreachable is charged a failure (possibly quarantining it) -
        in every case the next distinct ring replica is tried.  A 4xx
        from a shard (bad spec) propagates unchanged.  Raises
        :class:`FleetUnavailableError` when no shard will take it.
        """
        with self._lock:
            ring = self._ring  # membership swaps rings; snapshot one
        order = ring.preference(key)
        budget_spent = 0.0
        shed_hint: Optional[float] = None
        for name in order:
            if name in exclude:
                continue
            with self._lock:
                shard = self._shards.get(name)
                if shard is None:  # left the fleet since preference()
                    continue
                eligible = self._eligible(shard, time.monotonic())
                gate = shard.not_before
            if not eligible:
                if shard.state is ShardState.SHEDDING:
                    wait = max(0.0, gate - time.monotonic())
                    shed_hint = wait if shed_hint is None else min(shed_hint, wait)
                continue
            try:
                record, budget_spent = shard.client.request_with_budget(
                    "POST", "/jobs", payload, budget_spent
                )
            except ServiceOverloadedError as exc:
                self._note_shed(shard, exc.retry_after_s)
                shed_hint = (
                    exc.retry_after_s
                    if shed_hint is None
                    else min(shed_hint, exc.retry_after_s)
                )
                continue
            except ServiceClientError as exc:
                if exc.status == 0:  # unreachable; never acted on the spec
                    self._note_failure(shard, str(exc))
                    continue
                raise  # a real verdict (400 bad spec, ...) - pass through
            if name != order[0]:
                self.telemetry.count(tm.FLEET_REROUTES)
            return shard, record
        retry_after = shed_hint if shed_hint else self.config.shed_retry_after_s
        raise FleetUnavailableError(
            f"no shard available for key {key[:12]}.. "
            f"({len(order) - len(exclude)} candidate(s) down or shedding)",
            max(retry_after, 0.05),
        )

    # -- failover -------------------------------------------------------------
    def _failover_shard(self, shard: ShardHandle) -> None:
        """Re-route every job the dead shard still owed an outcome for.

        Skipped: jobs whose cached terminal state is failed/cancelled/
        poisoned (deterministic verdicts - recomputing is pointless or
        wrong) and done jobs whose result document a client already
        fetched.  Everything else - queued, running, or done-but-
        unfetched - is orphaned and re-submitted to a surviving
        replica; determinism makes the recomputed result bit-identical.
        """
        with self._lock:
            victims = []
            for entry in self._jobs.values():
                if entry.shard_name != shard.spec.name:
                    continue
                state = (entry.last_record or {}).get("state")
                if state in _NO_FAILOVER:
                    continue
                if state == "done" and entry.served_result:
                    continue
                entry.shard_name = None
                entry.shard_job_id = None
                entry.last_record = None
                victims.append(entry)
        for entry in victims:
            self._try_reroute(entry, exclude=frozenset({shard.spec.name}))

    def _reroute_orphans(self) -> None:
        with self._lock:
            orphans = [e for e in self._jobs.values() if e.shard_name is None]
        for entry in orphans:
            self._try_reroute(entry)

    def _try_reroute(
        self, entry: GatewayJob, exclude: frozenset = frozenset()
    ) -> bool:
        """Re-submit an orphaned job; False leaves it for the next sweep."""
        with self._lock:
            if entry.shard_name is not None:  # another thread beat us to it
                return True
        try:
            shard, record = self._route_submit(entry.payload, entry.key, exclude)
        except (AdmissionError, ServiceClientError, ReproError):
            return False
        with self._lock:
            entry.shard_name = shard.spec.name
            entry.shard_job_id = record["job_id"]
            entry.failovers += 1
            if record.get("state") in _TERMINAL:
                entry.last_record = dict(record)
        self.telemetry.count(tm.FLEET_FAILOVERS)
        self.telemetry.count(tm.FLEET_REROUTES)
        self.telemetry.event(
            entry.gateway_id,
            "failover",
            shard=shard.spec.name,
            shard_job_id=record["job_id"],
            key=entry.key,
        )
        return True

    # -- client API (mirrors SimulationService for the HTTP layer) ------------
    def submit_dict(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Validate, route by content key, and track one submission."""
        spec = JobSpec.from_dict(payload)  # 400 on malformed payloads
        key = spec.spec_digest()
        shard, record = self._route_submit(dict(payload), key)
        with self._lock:
            # the digest in the id is what lets a *sibling* gateway
            # adopt this job if a client fails over to it (see _adopt).
            gateway_id = f"gw-{key}-{next(self._seq):06d}"
            entry = GatewayJob(
                gateway_id=gateway_id,
                payload=dict(payload),
                key=key,
                shard_name=shard.spec.name,
                shard_job_id=record["job_id"],
                submitted_at=time.time(),
                workload=spec.workload,
            )
            if record.get("state") in _TERMINAL:
                entry.last_record = dict(record)
            self._jobs[gateway_id] = entry
        self.telemetry.count(tm.FLEET_JOBS_ROUTED)
        self.telemetry.event(
            gateway_id,
            "routed",
            shard=shard.spec.name,
            shard_job_id=record["job_id"],
            key=key,
            workload=spec.workload,
        )
        return self._rewrite(entry, record)

    def _entry(self, gateway_id: str) -> GatewayJob:
        with self._lock:
            entry = self._jobs.get(gateway_id)
        if entry is None:
            entry = self._adopt(gateway_id)
        if entry is None:
            raise KeyError(gateway_id)
        return entry

    def _adopt(self, gateway_id: str) -> Optional[GatewayJob]:
        """Reconstruct a sibling gateway's job from shard state.

        Gateway ids embed the spec digest, and shards list it per job:
        walking the digest's ring preference finds the shard running the
        spec, and its record (which carries the verbatim spec) rebuilds
        a routing entry good enough to poll, fetch, cancel, and fail
        over - so a client that loses its gateway mid-job can finish
        the job through a replica.  Ids that don't parse (including the
        old ``gw-<seq>`` form) stay unknown: adoption never invents
        jobs.
        """
        parts = gateway_id.split("-")
        if len(parts) != 3 or parts[0] != "gw":
            return None
        digest, seq = parts[1], parts[2]
        if len(digest) != 16 or not seq.isdigit():
            return None
        try:
            int(digest, 16)
        except ValueError:
            return None
        with self._lock:
            ring = self._ring  # membership swaps rings; snapshot one
        for name in ring.preference(digest):
            client = self._client_for(name)
            if client is None:
                continue
            try:
                listing, _ = client.request_with_budget("GET", "/jobs")
            except (ReproError, OSError):
                continue
            for item in listing.get("jobs", []):
                if item.get("digest") != digest:
                    continue
                try:
                    record, _ = client.request_with_budget(
                        "GET", f"/jobs/{item['job_id']}"
                    )
                except (ReproError, OSError):
                    continue
                payload = record.get("spec")
                if not isinstance(payload, dict):
                    continue
                entry = GatewayJob(
                    gateway_id=gateway_id,
                    payload=dict(payload),
                    key=digest,
                    shard_name=name,
                    shard_job_id=record["job_id"],
                    submitted_at=float(record.get("submitted_at") or 0.0),
                    workload=str(record.get("spec", {}).get("workload", "")),
                )
                if record.get("state") in _TERMINAL:
                    entry.last_record = dict(record)
                with self._lock:
                    entry = self._jobs.setdefault(gateway_id, entry)
                self.telemetry.count(tm.FLEET_JOBS_ADOPTED)
                self.telemetry.event(
                    gateway_id, "adopted", shard=name, key=digest
                )
                return entry
        return None

    def _rewrite(
        self, entry: GatewayJob, record: dict[str, Any]
    ) -> dict[str, Any]:
        """A shard record presented under the gateway's job id."""
        out = dict(record)
        out["job_id"] = entry.gateway_id
        out["shard"] = entry.shard_name
        out["failovers"] = entry.failovers
        return out

    def _synthetic(self, entry: GatewayJob, state: str) -> dict[str, Any]:
        """A record for a job the gateway cannot currently ask a shard
        about (orphaned mid-failover); clients keep polling it."""
        return {
            "job_id": entry.gateway_id,
            "state": state,
            "key": entry.key,
            "spec": dict(entry.payload),
            "submitted_at": entry.submitted_at,
            "started_at": None,
            "finished_at": None,
            "attempts": 0,
            "cache_hit": False,
            "error": None,
            "worker_id": None,
            "shard": entry.shard_name,
            "failovers": entry.failovers,
        }

    def status(self, gateway_id: str, wait_s: float = 0.0) -> dict[str, Any]:
        """The job's current record (terminal records answer from cache).

        ``wait_s > 0`` long-polls the owning shard, held for at most half
        the shard read timeout.
        """
        entry = self._entry(gateway_id)
        with self._lock:
            cached = entry.last_record
            shard_name, shard_job_id = entry.shard_name, entry.shard_job_id
        if cached is not None:
            return self._rewrite(entry, cached)
        if shard_name is None:
            return self._synthetic(entry, "queued")
        with self._lock:
            shard = self._shards.get(shard_name)
        if shard is None:  # the member left; route the job afresh
            with self._lock:
                entry.shard_name = None
                entry.shard_job_id = None
            self._try_reroute(entry)
            return self._synthetic(entry, "queued")
        wait_s = min(wait_s, self.config.read_timeout_s / 2) if wait_s > 0 else 0.0
        query = f"?wait_s={wait_s:g}" if wait_s > 0 else ""
        try:
            record, _ = shard.client.request_with_budget(
                "GET", f"/jobs/{shard_job_id}{query}"
            )
        except ServiceClientError as exc:
            if exc.status == 0:
                # shard unreachable: charge the failure (which may
                # quarantine it and re-route this very entry), then
                # answer from whatever state the entry is in now.
                self._note_failure(shard, str(exc))
                with self._lock:
                    cached = entry.last_record
                if cached is not None:
                    return self._rewrite(entry, cached)
                return self._synthetic(entry, "queued")
            if exc.status == 404:
                # the shard forgot the job (restarted against a fresh
                # journal/store): re-submit it through normal routing.
                with self._lock:
                    entry.shard_name = None
                    entry.shard_job_id = None
                self._try_reroute(entry)
                return self._synthetic(entry, "queued")
            raise
        with self._lock:
            moved = (entry.shard_name, entry.shard_job_id) != (shard_name, shard_job_id)
            if not moved and record.get("state") in _TERMINAL:
                entry.last_record = dict(record)
        if moved:
            # re-routed while the request was out: the answer is about
            # a superseded shard job, so report the entry as it is now.
            return self.status(gateway_id)
        return self._rewrite(entry, record)

    def result_doc(self, gateway_id: str) -> Optional[dict[str, Any]]:
        """The stored result document (None until available).

        A miss on the routed shard falls back to the key's owner under
        every other ring this gateway has migrated between (the
        **double-read**): during an arc handoff the entry provably
        exists on exactly one of the two owners, so reading both means
        no request ever misses mid-migration.
        """
        entry = self._entry(gateway_id)
        with self._lock:
            shard_name, shard_job_id = entry.shard_name, entry.shard_job_id
        if shard_name is None:
            return None  # mid-failover; the recompute is on its way
        with self._lock:
            shard = self._shards.get(shard_name)
        if shard is None:
            return self._double_read(entry, exclude={shard_name})
        try:
            doc, _ = shard.client.request_with_budget(
                "GET", f"/jobs/{shard_job_id}/result"
            )
        except ServiceClientError as exc:
            if exc.status == 0:
                self._note_failure(shard, str(exc))
                return self._double_read(entry, exclude={shard_name})
            if exc.status == 404:
                return self._double_read(entry, exclude={shard_name})
            raise  # 410 quarantined-corrupt and friends pass through
        with self._lock:
            entry.served_result = True
        return doc

    def _double_read_candidates(self, key: str, exclude: set) -> list[str]:
        """The key's owners under rings adjacent to a migration."""
        with self._lock:
            rings = [ring for pair in self._migration_rings for ring in pair]
            # mid-migration the counterpart is the joiner/leaver itself
            live_nodes = [t.node for t in self._live_migrations.values()]
        candidates: list[str] = []
        for ring in rings:
            try:
                owner = ring.primary(key)
            except ReproError:
                continue
            if owner not in exclude and owner not in candidates:
                candidates.append(owner)
        for node in live_nodes:
            if node not in exclude and node not in candidates:
                candidates.append(node)
        return candidates

    def _double_read(
        self, entry: GatewayJob, exclude: set
    ) -> Optional[dict[str, Any]]:
        """Fetch the result from the migration counterpart owner(s)."""
        for name in self._double_read_candidates(entry.key, set(exclude)):
            client = self._client_for(name)
            if client is None:
                continue
            try:
                listing, _ = client.request_with_budget("GET", "/jobs")
            except (ReproError, OSError):
                continue
            for item in listing.get("jobs", []):
                if item.get("digest") != entry.key or item.get("state") != "done":
                    continue
                try:
                    doc, _ = client.request_with_budget(
                        "GET", f"/jobs/{item['job_id']}/result"
                    )
                except (ReproError, OSError):
                    continue
                with self._lock:
                    entry.served_result = True
                self.telemetry.count(tm.FLEET_DOUBLE_READS)
                self.telemetry.event(
                    entry.gateway_id, "double_read", shard=name, key=entry.key
                )
                return doc
        return None

    def cancel(self, gateway_id: str) -> bool:
        """Cancel wherever the job lives; False if already finished."""
        entry = self._entry(gateway_id)
        with self._lock:
            cached = entry.last_record
            shard_name, shard_job_id = entry.shard_name, entry.shard_job_id
        if cached is not None and cached.get("state") in _TERMINAL:
            return False
        with self._lock:
            shard = self._shards.get(shard_name) if shard_name else None
        if shard is None:
            # orphaned (or its member left): cancel locally; the cached
            # terminal state also stops failover from resurrecting it.
            with self._lock:
                entry.last_record = self._synthetic(entry, "cancelled")
            self.telemetry.event(gateway_id, "cancelled", orphaned=True)
            return True
        try:
            record, _ = shard.client.request_with_budget(
                "DELETE", f"/jobs/{shard_job_id}"
            )
        except ServiceClientError as exc:
            if exc.status == 409:
                return False
            if exc.status == 0:
                self._note_failure(shard, str(exc))
                with self._lock:
                    if (entry.last_record or {}).get("state") in _TERMINAL:
                        return False
                    entry.last_record = self._synthetic(entry, "cancelled")
                self.telemetry.event(gateway_id, "cancelled", shard_lost=True)
                return True
            raise
        with self._lock:
            entry.last_record = dict(record)
        self.telemetry.event(gateway_id, "cancelled", shard=shard_name)
        return True

    def jobs(self) -> list[dict[str, Any]]:
        """Fleet-wide job summaries under gateway ids (one bulk call per
        reachable shard; unreachable shards fall back to cached/synthetic
        state)."""
        summaries: dict[str, dict[str, Any]] = {}
        for shard in self._handles():
            with self._lock:
                if shard.state is ShardState.DOWN:
                    continue
            try:
                listing, _ = shard.client.request_with_budget("GET", "/jobs")
            except (ReproError, OSError):
                continue
            for item in listing.get("jobs", []):
                summaries[f"{shard.spec.name}:{item['job_id']}"] = item
        out = []
        with self._lock:
            entries = list(self._jobs.values())
        for entry in entries:
            cached = entry.last_record
            live = (
                summaries.get(f"{entry.shard_name}:{entry.shard_job_id}")
                if entry.shard_name
                else None
            )
            base = cached or live or self._synthetic(entry, "queued")
            out.append(
                {
                    "job_id": entry.gateway_id,
                    "state": base.get("state", "queued"),
                    "workload": entry.workload or base.get("workload", ""),
                    "attempts": base.get("attempts", 0),
                    "cache_hit": bool(base.get("cache_hit")),
                    "shard": entry.shard_name,
                    "failovers": entry.failovers,
                }
            )
        return out

    # -- observability --------------------------------------------------------
    def shard_states(self) -> dict[str, str]:
        with self._lock:
            return {
                name: shard.state.value for name, shard in self._shards.items()
            }

    def healthz_payload(self) -> dict[str, Any]:
        with self._lock:
            versions = {
                name: shard.code_version
                for name, shard in self._shards.items()
            }
        lease = self._election.last_lease or {}
        return {
            "ok": True,
            "role": "gateway",
            "gateway_name": self.config.gateway_name,
            "follower": not self._election.is_primary(),
            "election": {
                "role": self._election.role.value,
                "acting_primary": self._election.acting_url,
                "primary_name": lease.get("holder"),
                "fenced": self._election.fenced(time.monotonic()),
            },
            "epoch": self.membership.epoch,
            "code_version": self.code_version,
            "draining": False,
            "shards": self.shard_states(),
            "shard_versions": versions,
            "members": {
                m.name: m.state.value for m in self.membership.members()
            },
        }

    def _unserved_arcs_locked(self) -> list[str]:
        """Live leave-migrations whose arc has no serving owner.

        During a *join* migration the old owner keeps serving, so the
        arc is always covered; during a *leave* the leaver serves until
        the flip - unless it has meanwhile died, in which case the arc's
        keys are reachable on neither side until the copy lands and the
        ring flips.  Answering 503 then is honest: admitting requests
        would route them into the hole.
        """
        unserved = []
        for task in self._live_migrations.values():
            if task.kind != "leave":
                continue
            handle = self._shards.get(task.node)
            if handle is None or handle.state is ShardState.DOWN:
                unserved.append(task.mid)
        return unserved

    def readiness(self) -> tuple[bool, dict[str, Any]]:
        """Ready iff routing is coherent and a shard can admit.

        Not ready while: the replayed membership journal's in-flight
        migrations have not been resumed yet, a follower has not seen
        its first view, a mid-migration arc has no serving owner, or no
        shard is up and admitting.
        """
        now = time.monotonic()
        reasons: list[str] = []
        if self._resuming:
            reasons.append("replaying membership journal")
        if not self._election.is_primary() and not self.membership.members():
            reasons.append("awaiting first membership view from primary")
        with self._lock:
            eligible = [
                name
                for name, shard in self._shards.items()
                if self._eligible(shard, now)
                and name in self._ring.nodes
            ]
            for mid in self._unserved_arcs_locked():
                reasons.append(f"arc mid-migration with no serving owner: {mid}")
        if not eligible:
            reasons.append("no shard is up and admitting")
        detail = {
            "ready": not reasons,
            "reasons": reasons,
            "eligible_shards": eligible,
            "shards": self.shard_states(),
            "epoch": self.membership.epoch,
        }
        return not reasons, detail

    def metrics(self) -> dict[str, Any]:
        """The fleet aggregate: summed shard counters/gauges + breakdowns.

        Shard counter names never collide with the gateway's own
        ``fleet.*`` namespace, so the merged ``counters`` map is exactly
        "sum of reachable shards, plus gateway routing counters"; the
        raw per-shard documents ride along under ``fleet.shards`` so
        operators (and tests) can audit the aggregation.
        """
        per_shard: dict[str, Optional[dict[str, Any]]] = {}
        for shard in self._handles():
            try:
                doc, _ = shard.client.request_with_budget("GET", "/metrics")
            except (ReproError, OSError):
                doc = None
            per_shard[shard.spec.name] = doc
        counters: dict[str, int] = {}
        gauges: dict[str, Any] = {}
        for doc in per_shard.values():
            if doc is None:
                continue
            for name, value in doc.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in doc.get("gauges", {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                gauges[name] = gauges.get(name, 0) + value
        states = self.shard_states()
        with self._lock:
            shares = self._ring.shares()
            shard_meta = {
                name: {
                    "url": shard.spec.url,
                    "state": states.get(name),
                    "code_version": shard.code_version,
                    "last_error": shard.last_error,
                    "ring_share": shares.get(name, 0.0),
                    "metrics": per_shard.get(name),
                }
                for name, shard in self._shards.items()
            }
            orphaned = sum(1 for e in self._jobs.values() if e.shard_name is None)
            jobs_tracked = len(self._jobs)
            fleet_size = len(self._shards)
            live_migrations = len(self._live_migrations)
        member_states = [m.state.value for m in self.membership.members()]
        gauges.update(
            {
                "fleet_size": fleet_size,
                "shards_up": sum(1 for s in states.values() if s == "up"),
                "shards_shedding": sum(
                    1 for s in states.values() if s == "shedding"
                ),
                "shards_down": sum(1 for s in states.values() if s == "down"),
                "ring_vnodes": self.config.vnodes,
                "ring_max_share": max(shares.values()) if shares else 0.0,
                "ring_min_share": min(shares.values()) if shares else 0.0,
                "gateway_jobs_tracked": jobs_tracked,
                "gateway_jobs_orphaned": orphaned,
                "fleet_epoch": self.membership.epoch,
                "members_active": member_states.count("active"),
                "members_probation": member_states.count("probation"),
                "members_syncing": member_states.count("syncing"),
                "members_left": member_states.count("left"),
                "migrations_live": live_migrations,
                "fleet_acting_primary": 1 if self._election.is_primary() else 0,
            }
        )
        snapshot = self.telemetry.snapshot(gauges)
        counters.update(snapshot["counters"])
        injector = network_injector()
        if injector is not None:
            counters.update(injector.snapshot_counters())
        snapshot["counters"] = counters
        snapshot["fleet"] = {
            "shards": shard_meta,
            "ring_shares": shares,
            "epoch": self.membership.epoch,
            "members": {
                m.name: m.state.value for m in self.membership.members()
            },
            "migrations": self.migration_audit(),
            "election": self.election_audit(),
        }
        return snapshot


# -- HTTP surface -------------------------------------------------------------


class GatewayHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`FleetGateway`."""

    daemon_threads = True
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], gateway: FleetGateway):
        super().__init__(address, _GatewayHandler)
        self.gateway = gateway

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _GatewayHandler(JsonRequestHandler):
    """The service surface, answered by routing instead of executing."""

    server: GatewayHTTPServer

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.network_fault_precheck():
            return
        gateway = self.server.gateway
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self.send_json(200, gateway.healthz_payload())
            elif parts == ["readyz"]:
                ready, detail = gateway.readiness()
                if ready:
                    self.send_json(200, detail)
                else:
                    self.send_retry_after(
                        503, detail, gateway.config.shed_retry_after_s
                    )
            elif parts == ["metrics"]:
                self.send_json(200, gateway.metrics())
            elif parts == ["events"]:
                query = parse_qs(url.query)
                since = int(query.get("since", ["0"])[0])
                limit = int(query.get("limit", ["1000"])[0])
                events = gateway.telemetry.events_since(since, limit)
                next_since = events[-1]["seq"] if events else since
                self.send_json(200, {"events": events, "next_since": next_since})
            elif parts == ["jobs"]:
                self.send_json(200, {"jobs": gateway.jobs()})
            elif parts == ["fleet", "view"]:
                query = parse_qs(url.query, keep_blank_values=True)
                since = int(query.get("since", ["0"])[0])
                wait_s = float(query.get("wait_s", ["0"])[0])
                replica = query.get("replica", [None])[0]
                self.send_json(200, gateway.wait_view(since, wait_s, replica))
            elif parts == ["fleet", "migrations"]:
                self.send_json(200, gateway.migration_audit())
            elif parts == ["fleet", "elections"]:
                self.send_json(200, gateway.election_audit())
            elif len(parts) == 2 and parts[0] == "jobs":
                wait_s = float(parse_qs(url.query).get("wait_s", ["0"])[0])
                self.send_json(200, gateway.status(parts[1], wait_s))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                doc = gateway.result_doc(parts[1])
                if doc is None:
                    record = gateway.status(parts[1])
                    self.send_json_error(
                        404, f"{parts[1]} has no result ({record['state']})"
                    )
                else:
                    self.send_json(200, doc)
            else:
                self.send_json_error(404, f"no route for GET {url.path}")
        except KeyError as exc:
            self.send_json_error(404, f"unknown job {exc.args[0]!r}")
        except ServiceClientError as exc:
            # a shard's verdict (410 corrupt, 4xx): pass it through
            self.send_json_error(exc.status or 502, str(exc))
        except (ValueError, ReproError) as exc:
            self.send_json_error(400, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        if self.network_fault_precheck():
            return
        gateway = self.server.gateway
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                record = gateway.submit_dict(self.read_json_body())
                done = record.get("state") == "done" and record.get("cache_hit")
                self.send_json(200 if done else 202, record)
            elif parts == ["fleet", "join"]:
                status, body = gateway.join(self.read_json_body())
                if status == 503:
                    self.send_retry_after(
                        503, body, gateway.config.shed_retry_after_s
                    )
                else:
                    self.send_json(status, body)
            elif parts == ["fleet", "leave"]:
                status, body = gateway.leave(self.read_json_body())
                if status == 503:
                    self.send_retry_after(
                        503, body, gateway.config.shed_retry_after_s
                    )
                else:
                    self.send_json(status, body)
            else:
                self.send_json_error(404, f"no route for POST {url.path}")
        except AdmissionError as exc:
            # fleet-wide unavailability, same contract as a single
            # service shedding: nothing was created, retry verbatim.
            self.send_retry_after(exc.status, {"error": str(exc)}, exc.retry_after_s)
        except ServiceOverloadedError as exc:
            self.send_retry_after(exc.status, {"error": str(exc)}, exc.retry_after_s)
        except ServiceClientError as exc:
            self.send_json_error(exc.status or 502, str(exc))
        except ReproError as exc:
            self.send_json_error(400, str(exc))

    def do_DELETE(self) -> None:  # noqa: N802
        if self.network_fault_precheck():
            return
        gateway = self.server.gateway
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if len(parts) == 2 and parts[0] == "jobs":
                if gateway.cancel(parts[1]):
                    self.send_json(200, gateway.status(parts[1]))
                else:
                    self.send_json_error(409, f"{parts[1]} already finished")
            else:
                self.send_json_error(404, f"no route for DELETE {self.path}")
        except KeyError as exc:
            self.send_json_error(404, f"unknown job {exc.args[0]!r}")
        except ServiceClientError as exc:
            self.send_json_error(exc.status or 502, str(exc))


def serve_gateway_http(
    gateway: FleetGateway, host: str = "127.0.0.1", port: int = 0
) -> GatewayHTTPServer:
    """Bind a gateway server (``port=0`` = ephemeral) on a daemon thread."""
    server = GatewayHTTPServer((host, port), gateway)
    gateway.set_advertise_url(server.url)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-fleet-http", daemon=True
    )
    thread.start()
    return server
