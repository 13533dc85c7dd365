"""Gateway behavior against scripted fake shards.

The fakes speak the service wire protocol but answer instantly (no
simulator, no worker pool), so these tests pin down routing, shedding,
quarantine/failover, recovery, version-skew detection, and metrics
aggregation without the integration suite's process machinery.
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer

import pytest

from repro.fleet import (
    FleetGateway,
    FleetUnavailableError,
    GatewayConfig,
    HashRing,
    ShardSpec,
    ShardState,
    serve_gateway_http,
)
from repro.fleet.ring import stable_hash
from repro.serve.client import ServiceClient, ServiceClientError
from repro.serve.jobs import JobSpec
from repro.serve.store import CHECKSUM_FIELD, doc_checksum
from repro.serve.wire import JsonRequestHandler


def _spec(seed: int) -> dict:
    return {"workload": "stream", "data_bytes": 1 << 20, "seed": seed}


def _key(seed: int) -> str:
    return JobSpec.from_dict(_spec(seed)).spec_digest()


class _FakeShardHandler(JsonRequestHandler):
    server: "_FakeShard"

    def do_GET(self):  # noqa: N802
        shard = self.server
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self.send_json(
                200,
                {
                    "ok": True,
                    "role": "service",
                    "draining": False,
                    "code_version": shard.version,
                },
            )
        elif parts == ["readyz"]:
            if shard.mode == "ok":
                self.send_json(200, {"ready": True, "reasons": []})
            else:
                self.send_retry_after(
                    503,
                    {"ready": False, "reasons": ["draining"]},
                    shard.retry_after,
                )
        elif parts == ["metrics"]:
            with shard.lock:
                payload = {
                    "uptime_s": 1.0,
                    "counters": dict(shard.counters),
                    "gauges": {"queue_depth": len(shard.jobs)},
                    "job_latency": {},
                }
            self.send_json(200, payload)
        elif parts == ["jobs"]:
            with shard.lock:
                jobs = [
                    {
                        "job_id": j["job_id"],
                        "state": j["state"],
                        "workload": j["spec"]["workload"],
                        "digest": j["key"],
                        "attempts": 1,
                        "cache_hit": False,
                    }
                    for j in shard.jobs.values()
                ]
            self.send_json(200, {"jobs": jobs})
        elif parts == ["store", "keys"]:
            with shard.lock:
                keys = sorted(shard.store)
            self.send_json(200, {"keys": keys})
        elif len(parts) == 3 and parts[:2] == ["store", "entries"]:
            with shard.lock:
                entry = shard.store.get(parts[2])
            if entry is None:
                self.send_json_error(404, f"no stored entry for {parts[2]}")
            else:
                self.send_json(200, {"key": parts[2], **entry})
        elif len(parts) == 2 and parts[0] == "jobs":
            with shard.lock:
                shard.status_paths.append(self.path)
                job = shard.jobs.get(parts[1])
            if job is not None and shard.on_status is not None:
                shard.on_status(job)
            if job is None:
                self.send_json_error(404, f"unknown job {parts[1]}")
            else:
                self.send_json(200, dict(job))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            with shard.lock:
                job = shard.jobs.get(parts[1])
            if job is None or job["state"] != "done":
                self.send_json_error(404, "no result")
            else:
                # content-addressed: identical for a key on every shard
                self.send_json(
                    200,
                    {
                        "key": job["key"],
                        "total_time_ns": stable_hash(job["key"]) % 10**9,
                    },
                )
        else:
            self.send_json_error(404, "no route")

    def do_POST(self):  # noqa: N802
        shard = self.server
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 3 and parts[:2] == ["store", "entries"]:
            body = self.read_json_body()
            doc = body.get("doc") or {}
            if doc.get(CHECKSUM_FIELD) != doc_checksum(doc):
                self.send_json_error(400, "checksum verification failed")
                return
            with shard.lock:
                imported = parts[2] not in shard.store
                shard.store.setdefault(
                    parts[2], {"doc": doc, "trace_b64": body.get("trace_b64")}
                )
            self.send_json(200, {"key": parts[2], "imported": imported})
            return
        with shard.lock:
            shard.post_attempts += 1
        if shard.mode == "shed":
            self.send_retry_after(503, {"error": "draining"}, shard.retry_after)
            return
        if shard.mode == "shed429":
            self.send_retry_after(429, {"error": "queue full"}, shard.retry_after)
            return
        body = self.read_json_body()
        spec = JobSpec.from_dict(body)
        with shard.lock:
            shard.seq += 1
            job = {
                "job_id": f"{shard.name}-{shard.seq:04d}",
                "state": "queued" if shard.hold else "done",
                "key": spec.spec_digest(),
                "spec": body,
                "attempts": 0 if shard.hold else 1,
                "cache_hit": False,
                "error": None,
            }
            shard.jobs[job["job_id"]] = job
            shard.counters["jobs.submitted"] = (
                shard.counters.get("jobs.submitted", 0) + 1
            )
        self.send_json(202, dict(job))

    def do_DELETE(self):  # noqa: N802
        shard = self.server
        parts = [p for p in self.path.split("/") if p]
        with shard.lock:
            job = shard.jobs.get(parts[1]) if len(parts) == 2 else None
            if job is None:
                self.send_json_error(404, "unknown job")
                return
            if job["state"] == "done":
                self.send_json_error(409, "already finished")
                return
            job["state"] = "cancelled"
            self.send_json(200, dict(job))


class _FakeShard(ThreadingHTTPServer):
    """A scripted stand-in for one service shard."""

    daemon_threads = True

    def __init__(self, name, port=0, version="v1", hold=False):
        super().__init__(("127.0.0.1", port), _FakeShardHandler)
        self.name = name
        self.version = version
        #: "ok" | "shed" (503) | "shed429"
        self.mode = "ok"
        #: queued jobs stay queued instead of completing instantly
        self.hold = hold
        self.retry_after = 0.05
        self.jobs: dict[str, dict] = {}
        #: key -> {"doc": ..., "trace_b64": ...} (the migration surface)
        self.store: dict[str, dict] = {}
        self.counters: dict[str, int] = {}
        self.seq = 0
        self.post_attempts = 0
        #: every GET /jobs/<id> path, query included
        self.status_paths: list[str] = []
        #: called with the job before a status request is answered
        self.on_status = None
        self.lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    @property
    def port(self):
        return self.server_address[1]

    def kill(self):
        self.shutdown()
        self.server_close()


def _fleet(shards, **overrides):
    kwargs = dict(
        vnodes=32,
        probe_interval_s=30.0,  # probing is driven manually in tests
        down_after_probes=2,
        recover_after_probes=2,
        connect_timeout_s=1.0,
        read_timeout_s=5.0,
        shed_retry_after_s=0.05,
    )
    kwargs.update(overrides)
    config = GatewayConfig(
        shards=tuple(ShardSpec(s.name, s.url) for s in shards), **kwargs
    )
    gateway = FleetGateway(config)
    gateway.probe_once()
    return gateway


@pytest.fixture
def trio():
    shards = [_FakeShard(f"s{i}") for i in range(3)]
    yield shards
    for shard in shards:
        try:
            shard.kill()
        except Exception:
            pass


def _seed_with_primary(gateway, shard_name, start=100):
    """A spec seed whose routing key lands on ``shard_name``."""
    for seed in range(start, start + 500):
        if gateway._ring.primary(_key(seed)) == shard_name:
            return seed
    raise AssertionError(f"no seed routes to {shard_name}")


class TestRouting:
    def test_routes_to_ring_primary(self, trio):
        gateway = _fleet(trio)
        ring = HashRing([s.name for s in trio], vnodes=32)
        for seed in range(20):
            record = gateway.submit_dict(_spec(seed))
            assert record["shard"] == ring.primary(_key(seed))
            assert record["job_id"].startswith("gw-")
        # every shard job physically lives where the record says
        by_shard = {s.name: len(s.jobs) for s in trio}
        assert sum(by_shard.values()) == 20
        assert gateway.telemetry.counter("fleet.jobs_routed") == 20
        assert gateway.telemetry.counter("fleet.reroutes") == 0

    def test_same_key_same_shard(self, trio):
        gateway = _fleet(trio)
        first = gateway.submit_dict(_spec(7))
        second = gateway.submit_dict(_spec(7))
        assert first["shard"] == second["shard"]
        assert first["job_id"] != second["job_id"]

    def test_bad_spec_rejected_without_touching_shards(self, trio):
        gateway = _fleet(trio)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            gateway.submit_dict({"workload": "nope", "data_bytes": 1})
        assert all(s.post_attempts == 0 for s in trio)


class TestShedding:
    def test_shedding_primary_reroutes_to_next_replica(self, trio):
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s1")
        trio[1].mode = "shed"
        record = gateway.submit_dict(_spec(seed))
        expected = gateway._ring.preference(_key(seed))[1]
        assert record["shard"] == expected
        assert gateway.telemetry.counter("fleet.reroutes") == 1
        assert gateway._shards["s1"].state is ShardState.SHEDDING

    def test_retry_after_gate_skips_shard_without_contact(self, trio):
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s2")
        trio[2].mode = "shed"
        trio[2].retry_after = 30.0  # long gate
        gateway.submit_dict(_spec(seed))  # pays one POST, arms the gate
        attempts_before = trio[2].post_attempts
        gateway.submit_dict(_spec(seed))  # gated: not even contacted
        assert trio[2].post_attempts == attempts_before

    def test_429_also_paces(self, trio):
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s0")
        trio[0].mode = "shed429"
        record = gateway.submit_dict(_spec(seed))
        assert record["shard"] != "s0"
        assert gateway._shards["s0"].state is ShardState.SHEDDING

    def test_whole_fleet_shedding_raises_503(self, trio):
        gateway = _fleet(trio)
        for shard in trio:
            shard.mode = "shed"
            shard.retry_after = 0.75
        with pytest.raises(FleetUnavailableError) as excinfo:
            gateway.submit_dict(_spec(1))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s > 0
        # the hint reflects the shards' own pacing, not a made-up number
        assert excinfo.value.retry_after_s <= 0.75 * 1.1 + 0.01

    def test_shedding_shard_recovers_on_ready_probe(self, trio):
        gateway = _fleet(trio)
        trio[0].mode = "shed"
        gateway.probe_once()
        assert gateway._shards["s0"].state is ShardState.SHEDDING
        trio[0].mode = "ok"
        gateway.probe_once()  # SHEDDING -> UP needs just one ready answer
        assert gateway._shards["s0"].state is ShardState.UP


class TestQuarantineAndFailover:
    def test_dead_shard_quarantined_and_jobs_failed_over(self, trio):
        for shard in trio:
            shard.hold = True  # jobs stay queued: failover has work to do
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s1")
        record = gateway.submit_dict(_spec(seed))
        assert record["shard"] == "s1"
        trio[1].kill()
        for _ in range(gateway.config.down_after_probes):
            gateway.probe_once()
        assert gateway._shards["s1"].state is ShardState.DOWN
        assert gateway.telemetry.counter("fleet.shard_down") == 1
        assert gateway.telemetry.counter("fleet.failovers") == 1
        after = gateway.status(record["job_id"])
        assert after["shard"] == gateway._ring.preference(_key(seed))[1]
        assert after["failovers"] == 1
        assert after["state"] == "queued"

    def test_served_jobs_not_resurrected_by_failover(self, trio):
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s0")
        record = gateway.submit_dict(_spec(seed))  # completes instantly
        assert gateway.status(record["job_id"])["state"] == "done"
        # fetch the result: the client has everything it asked for, so
        # losing the shard must NOT trigger a recompute elsewhere
        assert gateway.result_doc(record["job_id"]) is not None
        submitted_before = sum(
            s.counters.get("jobs.submitted", 0) for s in trio
        )
        trio[0].kill()
        for _ in range(gateway.config.down_after_probes):
            gateway.probe_once()
        # done-and-cached: no resubmission anywhere
        submitted_after = sum(
            s.counters.get("jobs.submitted", 0) for s in trio[1:]
        ) + trio[0].counters.get("jobs.submitted", 0)
        assert submitted_after == submitted_before
        assert gateway.status(record["job_id"])["state"] == "done"

    def test_down_shard_recovers_after_streak(self, trio):
        gateway = _fleet(trio)
        port = trio[0].port
        trio[0].kill()
        for _ in range(gateway.config.down_after_probes):
            gateway.probe_once()
        assert gateway._shards["s0"].state is ShardState.DOWN
        # resurrect on the same port (same ShardSpec identity)
        trio[0] = _FakeShard("s0", port=port)
        gateway.probe_once()
        assert gateway._shards["s0"].state is ShardState.DOWN  # streak of 1
        gateway.probe_once()
        assert gateway._shards["s0"].state is ShardState.UP
        assert gateway.telemetry.counter("fleet.shard_recovered") == 1

    def test_submit_while_one_shard_down_routes_around_it(self, trio):
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s2")
        trio[2].kill()
        for _ in range(gateway.config.down_after_probes):
            gateway.probe_once()
        record = gateway.submit_dict(_spec(seed))
        assert record["shard"] == gateway._ring.preference(_key(seed))[1]
        assert gateway.telemetry.counter("fleet.reroutes") >= 1


class TestLongPoll:
    def test_wait_forwarded_within_the_shard_read_timeout(self, trio):
        for shard in trio:
            shard.hold = True
        gateway = _fleet(trio)  # read_timeout_s=5.0
        seed = _seed_with_primary(gateway, "s0")
        record = gateway.submit_dict(_spec(seed))
        gateway.status(record["job_id"])
        gateway.status(record["job_id"], wait_s=60.0)
        assert trio[0].status_paths == ["/jobs/s0-0001", "/jobs/s0-0001?wait_s=2.5"]

    def test_answer_for_a_superseded_shard_job_is_dropped(self, trio):
        """The entry is re-routed while its status request is out, and
        the old shard then reports the old job done: that answer must
        neither be cached nor returned under the new shard's name."""
        for shard in trio:
            shard.hold = True
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s1")
        record = gateway.submit_dict(_spec(seed))

        def reroute_then_finish(job):
            gateway._reroute_from("s1")
            job["state"] = "done"

        trio[1].on_status = reroute_then_finish
        after = gateway.status(record["job_id"], wait_s=1.0)
        assert after["state"] == "queued"
        assert after["shard"] == gateway._ring.preference(_key(seed))[1]
        assert after["failovers"] == 1


class TestCancel:
    def test_cancel_held_job(self, trio):
        for shard in trio:
            shard.hold = True
        gateway = _fleet(trio)
        record = gateway.submit_dict(_spec(3))
        assert gateway.cancel(record["job_id"]) is True
        assert gateway.status(record["job_id"])["state"] == "cancelled"

    def test_cancel_finished_job_refused(self, trio):
        gateway = _fleet(trio)
        record = gateway.submit_dict(_spec(3))
        assert gateway.status(record["job_id"])["state"] == "done"
        assert gateway.cancel(record["job_id"]) is False

    def test_cancelled_orphan_not_failed_over(self, trio):
        for shard in trio:
            shard.hold = True
        gateway = _fleet(trio)
        seed = _seed_with_primary(gateway, "s0")
        record = gateway.submit_dict(_spec(seed))
        trio[0].kill()
        # cancel while its shard is dead but not yet quarantined
        assert gateway.cancel(record["job_id"]) is True
        for _ in range(gateway.config.down_after_probes):
            gateway.probe_once()
        assert gateway.status(record["job_id"])["state"] == "cancelled"
        assert gateway.telemetry.counter("fleet.failovers") == 0


class TestVersionSkew:
    def test_mixed_versions_warn_once(self, trio, caplog):
        trio[1].version = "v2-different"
        with caplog.at_level("WARNING", logger="repro.fleet"):
            gateway = _fleet(trio)
            gateway.probe_once()
            gateway.probe_once()
        warnings = [
            r for r in caplog.records if "mixed code versions" in r.message
        ]
        assert len(warnings) == 1
        assert gateway.telemetry.counter("fleet.version_mismatch") == 1

    def test_uniform_versions_quiet(self, trio, caplog):
        with caplog.at_level("WARNING", logger="repro.fleet"):
            gateway = _fleet(trio)  # all fakes report "v1"
            gateway.probe_once()
        assert not [
            r for r in caplog.records if "mixed code versions" in r.message
        ]
        assert gateway.telemetry.counter("fleet.version_mismatch") == 0


class TestMetrics:
    def test_aggregate_equals_sum_of_shards(self, trio):
        gateway = _fleet(trio)
        for seed in range(12):
            gateway.submit_dict(_spec(seed))
        payload = gateway.metrics()
        shard_docs = {
            name: meta["metrics"]
            for name, meta in payload["fleet"]["shards"].items()
        }
        assert all(doc is not None for doc in shard_docs.values())
        names = set()
        for doc in shard_docs.values():
            names.update(doc["counters"])
        for name in names:
            assert payload["counters"][name] == sum(
                doc["counters"].get(name, 0) for doc in shard_docs.values()
            )
        assert payload["counters"]["fleet.jobs_routed"] == 12
        gauges = payload["gauges"]
        assert gauges["fleet_size"] == 3
        assert gauges["shards_up"] == 3
        assert 0 < gauges["ring_min_share"] <= gauges["ring_max_share"] < 1
        assert abs(sum(payload["fleet"]["ring_shares"].values()) - 1.0) < 1e-9

    def test_down_shard_excluded_from_aggregate(self, trio):
        gateway = _fleet(trio)
        for seed in range(6):
            gateway.submit_dict(_spec(seed))
        trio[0].kill()
        for _ in range(gateway.config.down_after_probes):
            gateway.probe_once()
        payload = gateway.metrics()
        assert payload["fleet"]["shards"]["s0"]["metrics"] is None
        assert payload["fleet"]["shards"]["s0"]["state"] == "down"
        live = [
            meta["metrics"]
            for name, meta in payload["fleet"]["shards"].items()
            if name != "s0"
        ]
        assert payload["counters"]["jobs.submitted"] == sum(
            doc["counters"].get("jobs.submitted", 0) for doc in live
        )


class TestHTTPSurface:
    def test_client_verbs_work_against_gateway_url(self, trio):
        gateway = _fleet(trio)
        server = serve_gateway_http(gateway, "127.0.0.1", 0)
        try:
            client = ServiceClient(server.url, retries=0)
            assert client.healthz() is True
            ready = client.readyz()
            assert ready["ready"] is True
            record = client.submit(_spec(5))
            assert record["job_id"].startswith("gw-")
            final = client.wait(record["job_id"], timeout_s=10)
            assert final["state"] == "done"
            doc = client.result(final["job_id"])
            assert doc["total_time_ns"] == stable_hash(_key(5)) % 10**9
            listing = client.list_jobs()
            assert [j["job_id"] for j in listing] == [record["job_id"]]
            metrics = client.metrics()
            assert metrics["counters"]["fleet.jobs_routed"] == 1
            events = client.events()
            assert any(e["state"] == "routed" for e in events["events"])
            with pytest.raises(ServiceClientError) as excinfo:
                client.status("gw-99999999")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit({"workload": "bogus", "data_bytes": 1})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceClientError) as excinfo:
                client.cancel(record["job_id"])
            assert excinfo.value.status == 409
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_reports_gateway_role_and_versions(self, trio):
        gateway = _fleet(trio)
        server = serve_gateway_http(gateway, "127.0.0.1", 0)
        try:
            client = ServiceClient(server.url, retries=0)
            payload = client._request("GET", "/healthz")
            assert payload["role"] == "gateway"
            assert payload["code_version"] == gateway.code_version
            assert set(payload["shards"]) == {"s0", "s1", "s2"}
            assert payload["shard_versions"] == {
                "s0": "v1", "s1": "v1", "s2": "v1"
            }
        finally:
            server.shutdown()
            server.server_close()

    def test_readyz_503_when_fleet_down(self, trio):
        gateway = _fleet(trio)
        for shard in trio:
            shard.mode = "shed"
            shard.retry_after = 5.0
        gateway.probe_once()
        server = serve_gateway_http(gateway, "127.0.0.1", 0)
        try:
            from repro.serve.client import ServiceOverloadedError

            client = ServiceClient(server.url, retries=0)
            with pytest.raises(ServiceOverloadedError):
                client.readyz()
        finally:
            server.shutdown()
            server.server_close()
