"""Integration: the job service under concurrent load, over real HTTP.

Acceptance criteria covered here:

* a local service accepts >= 100 concurrent submissions across >= 3
  workloads and completes all of them,
* re-submitting the same specs is served from the result store with
  zero new simulations (the store cache-hit counter equals the
  resubmitted job count),
* priorities, cancellation, result documents, and the event stream
  behave as documented,
* a stored result that fails checksum verification is caught by the
  next read of it, a fetch or a resubmit.
"""

import http.client
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CorruptResultError
from repro.serve.client import LONG_POLL_S, ServiceClient, ServiceClientError
from repro.serve.http_api import serve_http
from repro.serve.jobs import JobSpec, JobState
from repro.serve.service import ServiceConfig, SimulationService
from repro.units import MiB

WORKLOADS = ["random", "stream", "sgemm", "regular"]


def make_specs(n):
    """n distinct tiny specs across >= 3 workloads.

    Sizes step by 2 MiB: sgemm rounds 3 and 4 MiB to the same matrix,
    and two specs with one key would race for the store."""
    specs = []
    for i in range(n):
        specs.append(
            {
                "workload": WORKLOADS[i % len(WORKLOADS)],
                "data_bytes": (2 + 2 * ((i // len(WORKLOADS)) % 3)) * MiB,
                "seed": 1000 + i // (len(WORKLOADS) * 3),
                "gpu": {"memory_bytes": 16 * MiB},
            }
        )
    return specs


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        n_workers=2,
        job_timeout_s=120.0,
        sweep_cache_dir=str(tmp_path / "sweep-cache"),
    )
    with SimulationService(str(tmp_path / "store"), config) as svc:
        server = serve_http(svc)
        try:
            yield svc, ServiceClient(server.url, timeout_s=60.0)
        finally:
            server.shutdown()


class TestConcurrentLoad:
    N_JOBS = 104

    def test_hundred_concurrent_jobs_then_free_resubmission(self, service):
        svc, client = service
        specs = make_specs(self.N_JOBS)
        assert len({s["workload"] for s in specs}) >= 3
        keys = {JobSpec.from_dict(s).cache_key() for s in specs}
        assert len(keys) == self.N_JOBS  # every job is its own simulation

        # -- wave 1: concurrent submission over HTTP ------------------------
        with ThreadPoolExecutor(max_workers=16) as pool:
            records = list(pool.map(client.submit, specs))
        assert len(records) == self.N_JOBS
        finals = [client.wait(r["job_id"], timeout_s=600.0) for r in records]
        assert all(r["state"] == "done" for r in finals)

        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["jobs.submitted"] == self.N_JOBS
        assert counters["jobs.completed"] == self.N_JOBS
        simulations_after_wave1 = counters["simulations.run"] + counters.get(
            "cache.hits.sweep", 0
        )
        assert simulations_after_wave1 == self.N_JOBS
        assert counters.get("cache.hits.store", 0) == 0
        assert metrics["gauges"]["queue_depth"] == 0
        assert metrics["gauges"]["jobs_in_flight"] == 0

        # every job has a result document with real content
        doc = client.result(finals[0]["job_id"])
        assert doc["total_time_ns"] > 0
        assert doc["counters"]["faults.read"] > 0

        # -- wave 2: identical resubmission is served from the store --------
        with ThreadPoolExecutor(max_workers=16) as pool:
            resubmitted = list(pool.map(client.submit, specs))
        assert all(r["state"] == "done" for r in resubmitted)
        assert all(r["cache_hit"] for r in resubmitted)

        counters = client.metrics()["counters"]
        # the acceptance criterion: cache-hit counter == resubmitted count,
        # and zero new simulations ran in wave 2.
        assert counters["cache.hits.store"] == self.N_JOBS
        assert (
            counters["simulations.run"] + counters.get("cache.hits.sweep", 0)
            == simulations_after_wave1
        )
        assert counters["jobs.completed"] == 2 * self.N_JOBS

    def test_latency_metrics_populated(self, service):
        svc, client = service
        for spec in make_specs(4):
            client.wait(client.submit(spec)["job_id"], timeout_s=120.0)
        latency = client.metrics()["job_latency"]
        assert latency["n"] >= 4
        assert latency["p95_us"] >= latency["p50_us"] >= 0.0


class TestServiceSemantics:
    def test_result_404_until_done(self, service):
        svc, client = service
        record = client.submit(make_specs(1)[0])
        client.wait(record["job_id"], timeout_s=120.0)
        assert client.result(record["job_id"])["total_time_ns"] > 0
        with pytest.raises(ServiceClientError) as excinfo:
            client.result("job-99999999")
        assert excinfo.value.status == 404

    def test_invalid_spec_rejected_with_400(self, service):
        svc, client = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"workload": "linpack", "data_bytes": MiB})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"workload": "random", "data_bytes": -1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"workload": "random", "data_bytes": MiB, "bogus": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(
                {"workload": "random", "data_bytes": MiB, "gpu": {"engine": "scalar"}}
            )
        assert excinfo.value.status == 400
        assert "bad gpu overrides" in str(excinfo.value)

    def test_event_stream_is_incremental(self, service):
        svc, client = service
        spec = make_specs(1)[0]
        record = client.submit(spec)
        client.wait(record["job_id"], timeout_s=120.0)
        stream = client.events(since=0)
        states = [
            e["state"] for e in stream["events"] if e["job_id"] == record["job_id"]
        ]
        assert states[0] == "queued"
        assert states[-1] == "done"
        # the cursor advances and excludes already-seen events
        follow_up = client.events(since=stream["next_since"])
        assert follow_up["events"] == []

    def test_sweep_cache_shared_with_run_sweep(self, service, tmp_path):
        """A point computed by run_sweep is a sweep-cache hit for the service."""
        from repro.experiments.runner import run_sweep
        from repro.serve.jobs import JobSpec

        svc, client = service
        spec = JobSpec(
            workload="random",
            data_bytes=5 * MiB,
            seed=77,
            gpu={"memory_bytes": 16 * MiB},
        )
        workload, setup = spec.build()
        run_sweep(
            [(workload, setup)],
            workers=1,
            cache_dir=svc.pool.cache_dir,
        )
        record = client.submit(spec.to_dict())
        final = client.wait(record["job_id"], timeout_s=120.0)
        assert final["state"] == "done"
        assert client.metrics()["counters"].get("cache.hits.sweep", 0) >= 1

    def test_unusable_sweep_cache_dir_is_not_an_error(self, tmp_path):
        """A sweep_cache_dir that is a regular file only turns the memo off."""
        from repro.experiments.runner import simulate
        from repro.serve.jobs import JobSpec, JobState
        from repro.serve.results import result_to_doc

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        spec = JobSpec(
            workload="stream", data_bytes=3 * MiB, gpu={"memory_bytes": 16 * MiB}
        )
        config = ServiceConfig(
            n_workers=1, job_timeout_s=120.0, sweep_cache_dir=str(blocker)
        )
        with SimulationService(str(tmp_path / "store"), config) as svc:
            record = svc.submit(spec)
            final = svc.wait(record.job_id, timeout=120.0)
            assert final.state is JobState.DONE, final.error
            doc = svc.result_doc(record.job_id)
            assert svc.metrics()["counters"]["simulations.run"] == 1
        want = result_to_doc(simulate(*spec.build()))
        doc.pop("meta")
        want.pop("meta")
        assert doc == want
        assert blocker.read_text() == ""


class TestCorruptionCaughtOnEveryRead:
    """A stored result rewritten with a wrong checksum after its first
    fetch is never served: whichever read comes next - a fetch or a
    resubmit - verifies the document, quarantines it and counts it."""

    SPEC = JobSpec(workload="stream", data_bytes=2 * MiB, gpu={"memory_bytes": 16 * MiB})

    @pytest.fixture
    def fetched(self, tmp_path):
        """A service whose one job is DONE, its result fetched once and
        then corrupted on disk; yields the service, record and first doc."""
        config = ServiceConfig(n_workers=1, job_timeout_s=120.0, sweep_cache_dir="")
        with SimulationService(str(tmp_path / "store"), config) as svc:
            record = svc.submit(self.SPEC)
            final = svc.wait(record.job_id, timeout=120.0)
            assert final.state is JobState.DONE, final.error
            first = svc.result_doc(record.job_id)
            path = svc.store.doc_path(record.key)
            stored = json.loads(path.read_text())
            stored["checksum"] = "0" * 64
            path.write_text(json.dumps(stored, sort_keys=True))
            yield svc, record, first

    @staticmethod
    def assert_quarantined(svc, key):
        assert svc.metrics()["counters"].get("results.quarantined", 0) == 1
        assert not svc.store.doc_path(key).exists()
        assert (svc.store.quarantine_dir / f"{key}.json").is_file()

    def test_next_fetch_raises(self, fetched):
        svc, record, _ = fetched
        with pytest.raises(CorruptResultError):
            svc.result_doc(record.job_id)
        self.assert_quarantined(svc, record.key)

    def test_next_fetch_over_http_is_410(self, fetched):
        svc, record, _ = fetched
        server = serve_http(svc)
        client = ServiceClient(server.url, timeout_s=30.0)
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                client.result(record.job_id)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
        assert excinfo.value.status == 410
        self.assert_quarantined(svc, record.key)

    def test_resubmit_recomputes(self, fetched):
        svc, record, first = fetched
        again = svc.submit(self.SPEC)
        assert not again.cache_hit
        self.assert_quarantined(svc, record.key)
        final = svc.wait(again.job_id, timeout=120.0)
        assert final.state is JobState.DONE, final.error
        assert svc.metrics()["counters"]["simulations.run"] == 2
        redone = svc.result_doc(again.job_id)
        first.pop("meta")
        redone.pop("meta")
        assert redone == first


class TestSupervisorWakeUp:
    def test_a_job_and_stop_do_not_wait_for_the_poll_tick(self, tmp_path):
        """The supervisor sleeps until there is work.  With a 5 s poll
        interval a small job is still dispatched and collected at once
        (a supervisor that waits for its tick needs two, about 10 s),
        and stop() does not sit out the rest of a tick."""
        config = ServiceConfig(n_workers=1, poll_interval_s=5.0, sweep_cache_dir="")
        svc = SimulationService(str(tmp_path / "store"), config).start()
        try:
            t0 = time.monotonic()
            record = svc.submit(JobSpec(workload="stream", data_bytes=1 * MiB))
            final = svc.wait(record.job_id, timeout=30.0)
            job_s = time.monotonic() - t0
        finally:
            t0 = time.monotonic()
            svc.stop(timeout=10.0)
            stop_s = time.monotonic() - t0
        assert final.state is JobState.DONE, final.error
        assert job_s < 2.5, f"job took {job_s:.2f}s to reach DONE"
        assert stop_s < 1.0, f"stop() took {stop_s:.2f}s"
        assert not svc._supervisor.is_alive()


class TestLongPoll:
    def test_wait_sends_one_request_per_long_poll(self, service, monkeypatch):
        """ServiceClient.wait long-polls: a job costs one status request
        per LONG_POLL_S of its life, however small poll_s is (a client
        that polls sends one per poll_s)."""
        _, client = service
        waits = []
        status = client.status

        def counting_status(job_id, wait_s=0.0):
            waits.append(wait_s)
            return status(job_id, wait_s=wait_s)

        monkeypatch.setattr(client, "status", counting_status)
        t0 = time.monotonic()
        record = client.submit(
            {
                "workload": "stream",
                "data_bytes": 2 * MiB,
                "gpu": {"memory_bytes": 16 * MiB},
            }
        )
        final = client.wait(record["job_id"], timeout_s=120.0, poll_s=0.001)
        elapsed = time.monotonic() - t0
        assert final["state"] == "done", final["error"]
        assert len(waits) <= elapsed / LONG_POLL_S + 2, (len(waits), elapsed)
        assert all(0 < w <= LONG_POLL_S for w in waits)

    def test_long_poll_holds_for_wait_s_and_drain_answers_it(self, tmp_path):
        """A held status request answers with the record as it stands
        after wait_s, or at once when the service drains."""
        config = ServiceConfig(n_workers=1, sweep_cache_dir="")
        svc = SimulationService(str(tmp_path / "store"), config)  # not started:
        server = serve_http(svc)  # a submitted job stays queued
        try:
            client = ServiceClient(server.url, timeout_s=30.0)
            spec = {"workload": "stream", "data_bytes": 1 * MiB}
            job_id = client.submit(spec)["job_id"]
            t0 = time.monotonic()
            assert client.status(job_id, wait_s=0.3)["state"] == "queued"
            assert 0.25 <= time.monotonic() - t0 < 5.0
            held = {}
            poller = threading.Thread(
                target=lambda: held.update(client.status(job_id, wait_s=20.0))
            )
            poller.start()
            time.sleep(0.2)
            t0 = time.monotonic()
            svc.drain(timeout=1.0)
            poller.join(timeout=10.0)
            assert not poller.is_alive()
            assert time.monotonic() - t0 < 3.0
            assert held["state"] == "queued"
            with pytest.raises(ServiceClientError) as excinfo:
                client.status("job-missing", wait_s=1.0)
            assert excinfo.value.status == 404
        finally:
            server.shutdown()
            svc.stop()


class TestKeepAlive:
    def test_reused_connection_answers_without_a_delayed_ack_stall(self, tmp_path):
        """A response is written as headers then body; with Nagle on,
        the body waits for the client's delayed ACK (about 40 ms) on
        every request of a reused connection."""
        config = ServiceConfig(n_workers=1, sweep_cache_dir="")
        svc = SimulationService(str(tmp_path / "store"), config)  # not started
        server = serve_http(svc)
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10.0)
        try:
            conn.connect()
            sock = conn.sock
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = response.read()
                times.append(time.perf_counter() - t0)
                assert response.status == 200 and b'"ok": true' in body
            assert conn.sock is sock  # one connection for all 20
            assert statistics.median(times) < 0.015, times
        finally:
            conn.close()
            server.shutdown()
            svc.stop()
