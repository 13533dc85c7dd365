"""Integration: failure handling - worker death, timeouts, cancellation.

Acceptance criterion covered here: killing a worker process mid-job
leaves the service alive, the job is retried and completes, and the
retry is visible in ``/metrics``.
"""

import json
import os
import signal
import time

import pytest

from repro.chaos import ENV_VAR
from repro.chaos.plan import PROCESS_HANG, FaultPlan, FaultSpec, set_active_plan
from repro.experiments.runner import simulate
from repro.serve.http_api import serve_http
from repro.serve.client import ServiceClient
from repro.serve.jobs import JobSpec, JobState
from repro.serve.results import result_to_doc
from repro.serve.service import ServiceConfig, SimulationService
from repro.units import MiB

#: heavily oversubscribed: long enough to reliably be in flight when
#: killed, and past the 0.3 s job timeout (about 0.7-0.9 s of simulation).
SLOW_SPEC = dict(workload="random", data_bytes=64 * MiB, gpu={"memory_bytes": 16 * MiB})
FAST_SPEC = dict(workload="stream", data_bytes=2 * MiB, gpu={"memory_bytes": 16 * MiB})


def make_service(tmp_path, **overrides):
    config = ServiceConfig(
        n_workers=1,
        job_timeout_s=overrides.pop("job_timeout_s", 120.0),
        retry_backoff_s=0.05,
        sweep_cache_dir=str(tmp_path / "sweep-cache"),
        **overrides,
    )
    return SimulationService(str(tmp_path / "store"), config)


def wait_running(svc, record, timeout_s=30.0, attempt=1):
    """Block until the given attempt of the job is live on a worker."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        handle = (
            svc.pool.workers.get(record.worker_id)
            if record.worker_id is not None
            else None
        )
        if (
            record.state is JobState.RUNNING
            and record.attempts == attempt
            and handle is not None
            and handle.alive()
        ):
            return handle
        time.sleep(0.01)
    raise AssertionError(
        f"attempt {attempt} never started (state={record.state}, "
        f"attempts={record.attempts})"
    )


class TestWorkerDeathRecovery:
    def test_killed_worker_job_is_retried_and_completes(self, tmp_path):
        with make_service(tmp_path) as svc:
            server = serve_http(svc)
            try:
                client = ServiceClient(server.url)
                record = svc.submit(JobSpec(**SLOW_SPEC))
                handle = wait_running(svc, record)

                os.kill(handle.process.pid, signal.SIGKILL)

                final = svc.wait(record.job_id, timeout=300.0)
                assert final.state is JobState.DONE
                assert final.attempts == 2

                # the retry and the death are visible over /metrics
                counters = client.metrics()["counters"]
                assert counters["workers.deaths"] == 1
                assert counters["jobs.retried"] == 1
                assert counters["workers.respawns"] >= 1
                assert counters["jobs.completed"] == 1

                # the service is still alive and serving new jobs
                assert client.healthz()
                follow_up = svc.submit(JobSpec(**FAST_SPEC))
                assert svc.wait(follow_up.job_id, timeout=120.0).state is JobState.DONE
                assert client.metrics()["gauges"]["workers_alive"] == 1
            finally:
                server.shutdown()

    def test_result_stored_before_the_death_finishes_the_job(
        self, tmp_path, monkeypatch
    ):
        """The worker died after its result reached the store but before
        its done message: the job is done on attempt 1, with no retry and
        no death charged to its key, and serves the stored document."""
        spec = JobSpec(**FAST_SPEC)
        doc = result_to_doc(simulate(*spec.build()), extra={"planted": True})
        # the worker hangs at the start of attempt 1, so the job is still
        # in flight when the kill lands
        hang = FaultPlan(
            faults=(FaultSpec(point=PROCESS_HANG, args={"hang_s": 3600.0}),)
        )
        monkeypatch.setenv(ENV_VAR, hang.to_json())
        try:
            # threshold 1: one death charged to the key would poison it
            with make_service(tmp_path, poison_threshold=1) as svc:
                record = svc.submit(spec)
                handle = wait_running(svc, record)
                svc.store.store(record.key, doc)
                os.kill(handle.process.pid, signal.SIGKILL)

                final = svc.wait(record.job_id, timeout=60.0)
                assert final.state is JobState.DONE
                assert final.attempts == 1
                counters = svc.metrics()["counters"]
                assert counters["workers.deaths"] == 1
                assert counters.get("jobs.retried", 0) == 0
                assert counters.get("jobs.poisoned", 0) == 0
                assert svc.result_doc(record.job_id) == json.loads(json.dumps(doc))
        finally:
            set_active_plan(None, reset=True)

    def test_retries_are_bounded(self, tmp_path):
        """A job whose worker dies on every attempt eventually FAILs."""
        with make_service(tmp_path, max_retries=1) as svc:
            record = svc.submit(JobSpec(**SLOW_SPEC))
            for attempt in (1, 2):  # initial attempt + one retry
                handle = wait_running(svc, record, attempt=attempt)
                os.kill(handle.process.pid, signal.SIGKILL)
            final = svc.wait(record.job_id, timeout=120.0)
            assert final.state is JobState.FAILED
            assert "retries exhausted" in final.error
            assert svc.metrics()["counters"]["jobs.failed"] == 1


class TestTimeouts:
    def test_expired_deadline_kills_and_retries(self, tmp_path):
        with make_service(tmp_path, job_timeout_s=0.3, max_retries=0) as svc:
            record = svc.submit(JobSpec(**SLOW_SPEC))
            final = svc.wait(record.job_id, timeout=60.0)
            assert final.state is JobState.FAILED
            assert "timeout" in final.error
            counters = svc.metrics()["counters"]
            assert counters["jobs.timed_out"] >= 1
            # pool was healed after the kill
            assert svc.metrics()["gauges"]["workers_alive"] == 1


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        with make_service(tmp_path) as svc:
            blocker = svc.submit(JobSpec(**SLOW_SPEC))
            wait_running(svc, blocker)
            queued = svc.submit(JobSpec(**FAST_SPEC))
            assert queued.state is JobState.QUEUED
            assert svc.cancel(queued.job_id)
            assert queued.state is JobState.CANCELLED
            assert svc.metrics()["counters"]["jobs.cancelled"] == 1
            # cancelling a terminal job reports False, not an error
            assert svc.cancel(queued.job_id) is False

    def test_cancel_running_job_frees_the_worker(self, tmp_path):
        with make_service(tmp_path) as svc:
            record = svc.submit(JobSpec(**SLOW_SPEC))
            wait_running(svc, record)
            assert svc.cancel(record.job_id)
            assert record.state is JobState.CANCELLED
            # the killed worker was replaced and still runs new jobs
            follow_up = svc.submit(JobSpec(**FAST_SPEC))
            assert svc.wait(follow_up.job_id, timeout=120.0).state is JobState.DONE

    def test_unknown_job_raises(self, tmp_path):
        with make_service(tmp_path) as svc:
            with pytest.raises(KeyError):
                svc.cancel("job-nope")
