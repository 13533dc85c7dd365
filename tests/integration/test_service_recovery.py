"""Integration: durable service state - journal replay, shed, poison, drain.

Acceptance criteria covered here:

* ``kill -9`` at any journal record boundary loses no job: replaying the
  journal prefix reconstructs an equivalent job table (terminal jobs
  keep their state, non-terminal jobs are requeued),
* a submission during overload is shed with HTTP 429 + ``Retry-After``
  and no job state is created,
* a poisoned spec key stops consuming workers while unrelated jobs
  keep completing, and the quarantine survives a restart.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.chaos.plan import PROCESS_KILL, FaultPlan, FaultSpec, set_active_plan
from repro.serve.client import ServiceClient, ServiceOverloadedError
from repro.serve.http_api import serve_http
from repro.serve.jobs import JobSpec, JobState
from repro.serve.journal import JobJournal, frame_entry
from repro.serve.service import (
    QueueFullError,
    ServiceConfig,
    ServiceDrainingError,
    SimulationService,
)
from repro.units import MiB

#: long enough to reliably be in flight when killed/drained: about
#: 0.7-0.9 s of simulation, well past the 0.3 s drain timeout the drain
#: test gives it (48 MiB takes about 0.3 s, too close to it).
SLOW_SPEC = dict(workload="random", data_bytes=64 * MiB, gpu={"memory_bytes": 16 * MiB})
FAST_SPEC = dict(workload="stream", data_bytes=2 * MiB, gpu={"memory_bytes": 16 * MiB})

#: the full per-ordinal recovery sweep is CI-only (slow tier); the
#: default run samples the boundaries instead.
SLOW_TIER = os.environ.get("UVMREPRO_SLOW_TESTS", "") not in ("", "0")


def make_service(tmp_path, **overrides):
    config = ServiceConfig(
        n_workers=overrides.pop("n_workers", 1),
        job_timeout_s=overrides.pop("job_timeout_s", 120.0),
        retry_backoff_s=0.05,
        sweep_cache_dir=str(tmp_path / "sweep-cache"),
        **overrides,
    )
    return SimulationService(str(tmp_path / "store"), config)


def wait_running(svc, record, timeout_s=30.0, attempt=1):
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


def journal_boundaries(journal_path):
    """Byte offsets of every record boundary (0 .. end) in appearance order."""
    replay = JobJournal(journal_path).replay()
    offsets = [0]
    for entry in replay.entries:
        offsets.append(offsets[-1] + len(frame_entry(entry)))
    assert offsets[-1] == replay.valid_bytes
    return offsets, replay.entries


class TestRecoveryMatrix:
    """Boot from every journal prefix: the job table must be equivalent."""

    def run_reference(self, tmp_path):
        """A real multi-job run whose journal seeds the matrix."""
        with make_service(tmp_path) as svc:
            specs = [
                JobSpec(**{**FAST_SPEC, "seed": seed}) for seed in (1, 2, 3)
            ]
            records = [svc.submit(spec) for spec in specs]
            for record in records:
                assert svc.wait(record.job_id, timeout=120.0).state is JobState.DONE
            # a duplicate submit exercises the store-hit journal path
            dup = svc.submit(specs[0])
            assert dup.cache_hit
        store_dir = tmp_path / "store"
        return store_dir, journal_boundaries(store_dir / "journal.jsonl")

    def recover(self, scratch, store_dir, prefix_bytes, with_store):
        """Boot a fresh service on a journal prefix; return it (stopped)."""
        boot_dir = scratch / "boot"
        if boot_dir.exists():
            shutil.rmtree(boot_dir)
        if with_store:
            shutil.copytree(store_dir, boot_dir)
        else:
            boot_dir.mkdir(parents=True)
        data = (store_dir / "journal.jsonl").read_bytes()
        (boot_dir / "journal.jsonl").write_bytes(data[:prefix_bytes])
        return SimulationService(
            str(boot_dir), ServiceConfig(n_workers=1, sweep_cache_dir="")
        )

    def check_equivalent(self, svc, prefix_entries, with_store):
        """The replayed table matches the last-write-wins view of the prefix."""
        expected = {}
        for entry in prefix_entries:
            record = entry["record"]
            expected[record["job_id"]] = record
        table = {r.job_id: r for r in svc.jobs()}
        assert set(table) == set(expected)
        for job_id, logged in expected.items():
            live = table[job_id]
            logged_state = JobState(logged["state"])
            if logged_state.terminal:
                assert live.state is logged_state
            elif with_store:
                # the result landed before the crash: instant completion
                assert live.state is JobState.DONE and live.cache_hit
            else:
                assert live.state is JobState.QUEUED
        replayed = svc.telemetry.counter("jobs.journal_replayed")
        assert replayed == len(expected)
        # recovery compacted the prefix into one snapshot of the table
        assert svc.telemetry.counter("journal.compactions") == (
            1 if prefix_entries else 0
        )
        assert svc.journal.record_count == len(expected)

    def test_replay_matrix_over_journal_prefixes(self, tmp_path):
        store_dir, (offsets, entries) = self.run_reference(tmp_path)
        total = len(offsets) - 1
        assert total >= 8  # 3 jobs x (queued/running/done) wobble + store hit
        if SLOW_TIER:
            ordinals = range(total + 1)
        else:
            ordinals = sorted({0, 1, 2, total // 2, total - 1, total})
        for with_store in (False, True):
            for ordinal in ordinals:
                svc = self.recover(
                    tmp_path / f"m{int(with_store)}-{ordinal}",
                    store_dir,
                    offsets[ordinal],
                    with_store,
                )
                try:
                    self.check_equivalent(svc, entries[:ordinal], with_store)
                finally:
                    svc.stop()

    def test_recovered_service_completes_the_requeued_jobs(self, tmp_path):
        """End-to-end: crash mid-history, restart, every job still finishes."""
        store_dir, (offsets, entries) = self.run_reference(tmp_path)
        # cut right after the first job's first record: it is queued,
        # nothing is in the store yet at that point in history
        svc = self.recover(tmp_path / "full", store_dir, offsets[1], False)
        try:
            svc.start()
            for record in svc.jobs():
                final = svc.wait(record.job_id, timeout=120.0)
                assert final.state is JobState.DONE
            # job ids keep ascending across the reboot - no collisions
            # with anything the recovered table holds
            recovered_ids = {r.job_id for r in svc.jobs()}
            fresh = svc.submit(JobSpec(**{**FAST_SPEC, "seed": 99}))
            assert fresh.job_id not in recovered_ids
        finally:
            svc.stop()

    def test_torn_final_record_is_ignored(self, tmp_path):
        store_dir, (offsets, entries) = self.run_reference(tmp_path)
        boot = tmp_path / "torn"
        boot.mkdir()
        data = (store_dir / "journal.jsonl").read_bytes()
        torn = data[: offsets[2]] + data[offsets[2] : offsets[3] - 3]
        (boot / "journal.jsonl").write_bytes(torn)
        svc = SimulationService(
            str(boot), ServiceConfig(n_workers=1, sweep_cache_dir="")
        )
        try:
            self.check_equivalent(svc, entries[:2], with_store=False)
            assert svc.telemetry.counter("journal.torn_tails") == 1
        finally:
            svc.stop()

    def test_stale_compaction_tmp_is_swept_at_boot(self, tmp_path):
        store_dir, (offsets, entries) = self.run_reference(tmp_path)
        stale = store_dir / "journal.jsonl.tmp.12345"
        stale.write_bytes(b"crashed-compaction debris")
        svc = SimulationService(
            str(store_dir), ServiceConfig(n_workers=1, sweep_cache_dir="")
        )
        try:
            assert not stale.exists()
            assert all(r.state.terminal for r in svc.jobs())
        finally:
            svc.stop()


class TestServiceKillChaos:
    """A real ``kill -9`` of the whole service via the chaos plan."""

    CHILD = textwrap.dedent(
        """
        import sys
        from repro.serve.jobs import JobSpec
        from repro.serve.service import ServiceConfig, SimulationService
        from repro.units import MiB

        svc = SimulationService(
            sys.argv[1], ServiceConfig(n_workers=1, sweep_cache_dir="")
        )
        # no start(): the journal append in submit() trips the kill hook
        svc.submit(JobSpec(workload="stream", data_bytes=2 * MiB,
                           gpu={"memory_bytes": 16 * MiB}))
        print("UNREACHABLE")  # the hook must have SIGKILLed us by now
        """
    )

    def test_sigkill_after_first_journal_record_loses_nothing(self, tmp_path):
        plan = {
            "seed": 7,
            "faults": [
                {"point": "process.service_kill", "args": {"after_records": 1}}
            ],
        }
        env = dict(os.environ)
        env["UVMREPRO_CHAOS"] = json.dumps(plan)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(tmp_path / "store")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "UNREACHABLE" not in proc.stdout

        set_active_plan(None)  # the chaos plan dies with the child
        try:
            svc = make_service(tmp_path)
            try:
                svc.start()
                records = svc.jobs()
                assert len(records) == 1  # the submit survived the kill -9
                final = svc.wait(records[0].job_id, timeout=120.0)
                assert final.state is JobState.DONE
            finally:
                svc.stop()
        finally:
            set_active_plan(None, reset=True)


class TestAdmissionControl:
    def overloaded(self, tmp_path):
        """A service whose queue is parked at the high watermark.

        The supervisor is deliberately not started, so queued jobs sit
        still and the watermark arithmetic is exact.
        """
        svc = make_service(
            tmp_path,
            queue_high_watermark=4,
            queue_low_watermark=2,
            shed_retry_after_s=0.05,
        )
        queued = [
            svc.submit(JobSpec(**{**FAST_SPEC, "seed": seed}))
            for seed in range(4)
        ]
        return svc, queued

    def test_shed_raises_queue_full_and_creates_no_state(self, tmp_path):
        svc, queued = self.overloaded(tmp_path)
        try:
            with pytest.raises(QueueFullError) as info:
                svc.submit(JobSpec(**{**FAST_SPEC, "seed": 100}))
            assert info.value.status == 429
            assert info.value.retry_after_s > 0
            assert len(svc.jobs()) == len(queued)  # nothing was registered
            assert svc.metrics()["counters"]["queue.shed"] == 1
            assert svc.metrics()["gauges"]["queue_shed_total"] == 1
        finally:
            svc.stop()

    def test_hysteresis_readmits_below_the_low_watermark(self, tmp_path):
        svc, queued = self.overloaded(tmp_path)
        try:
            with pytest.raises(QueueFullError):
                svc.submit(JobSpec(**{**FAST_SPEC, "seed": 100}))
            # one cancel leaves depth 3 > low watermark: still shedding
            assert svc.cancel(queued[0].job_id)
            with pytest.raises(QueueFullError):
                svc.submit(JobSpec(**{**FAST_SPEC, "seed": 100}))
            # down to the low watermark: admission resumes
            assert svc.cancel(queued[1].job_id)
            record = svc.submit(JobSpec(**{**FAST_SPEC, "seed": 100}))
            assert record.state is JobState.QUEUED
        finally:
            svc.stop()

    def test_http_shed_is_429_with_retry_after(self, tmp_path):
        svc, _ = self.overloaded(tmp_path)
        server = serve_http(svc)
        try:
            ready, detail = svc.readiness()
            assert not ready  # the probe sees the watermark before a submit
            assert any("shedding" in reason for reason in detail["reasons"])
            client = ServiceClient(server.url, retries=0)
            with pytest.raises(ServiceOverloadedError) as info:
                client.submit({**FAST_SPEC, "seed": 100})
            assert info.value.status == 429
            assert info.value.retry_after_s == pytest.approx(0.05)
            # shedding is now latched and visible on the readiness probe
            with pytest.raises(ServiceOverloadedError) as probe:
                client.readyz()
            assert probe.value.status == 503
        finally:
            server.shutdown()
            svc.stop()

    def test_client_retries_honor_retry_after_then_surface_overload(
        self, tmp_path
    ):
        svc, _ = self.overloaded(tmp_path)
        server = serve_http(svc)
        try:
            client = ServiceClient(
                server.url, retries=2, retry_backoff_s=0.001
            )
            t0 = time.monotonic()
            with pytest.raises(ServiceOverloadedError):
                client.submit({**FAST_SPEC, "seed": 100})
            elapsed = time.monotonic() - t0
            # two retry sleeps of >= the 0.05 s Retry-After hint each
            assert elapsed >= 0.1
            assert svc.metrics()["counters"]["queue.shed"] == 3
        finally:
            server.shutdown()
            svc.stop()


class TestPoisonBreaker:
    def test_repeated_worker_deaths_poison_the_key(self, tmp_path):
        with make_service(tmp_path, poison_threshold=2, max_retries=5) as svc:
            record = svc.submit(JobSpec(**SLOW_SPEC))
            for attempt in (1, 2):
                handle = wait_running(svc, record, attempt=attempt)
                os.kill(handle.process.pid, signal.SIGKILL)
            final = svc.wait(record.job_id, timeout=60.0)
            assert final.state is JobState.POISONED
            assert "worker deaths" in final.error
            assert svc.metrics()["counters"]["jobs.poisoned"] == 1

            # resubmitting the quarantined key consumes no worker at all
            again = svc.submit(JobSpec(**SLOW_SPEC))
            assert again.state is JobState.POISONED
            assert again.attempts == 0
            assert svc.metrics()["counters"]["jobs.poisoned"] == 2
            assert svc.metrics()["gauges"]["poisoned_keys"] == 1

            # unrelated work still completes on the healed pool
            other = svc.submit(JobSpec(**FAST_SPEC))
            assert svc.wait(other.job_id, timeout=120.0).state is JobState.DONE

    def test_quarantine_survives_a_restart(self, tmp_path):
        with make_service(tmp_path, poison_threshold=2, max_retries=5) as svc:
            record = svc.submit(JobSpec(**SLOW_SPEC))
            for attempt in (1, 2):
                handle = wait_running(svc, record, attempt=attempt)
                os.kill(handle.process.pid, signal.SIGKILL)
            assert svc.wait(record.job_id, timeout=60.0).state is JobState.POISONED

        with make_service(tmp_path) as reborn:
            replayed = {r.job_id: r for r in reborn.jobs()}
            assert replayed[record.job_id].state is JobState.POISONED
            again = reborn.submit(JobSpec(**SLOW_SPEC))
            assert again.state is JobState.POISONED

    def test_chaos_plan_poisons_one_key_while_others_complete(self, tmp_path):
        """The breaker under the chaos harness: a deterministic plan kills
        every attempt of one spec's key; an unrelated spec sails through."""
        poison_spec = JobSpec(**SLOW_SPEC)
        clean_spec = JobSpec(**FAST_SPEC)
        poison_key = poison_spec.cache_key()
        clean_key = clean_spec.cache_key()

        # keys embed code_version(), so the seed cannot be hardcoded:
        # search for one whose 0.5-probability draws kill every eligible
        # attempt of the poison key and none of the clean key's.
        plan = None
        for seed in range(500):
            candidate = FaultPlan(
                seed=seed,
                faults=(
                    FaultSpec(point=PROCESS_KILL, probability=0.5, attempts=3),
                ),
            )
            kills_poison = all(
                candidate.should_fire(PROCESS_KILL, poison_key, t) is not None
                for t in range(3)
            )
            spares_clean = all(
                candidate.should_fire(PROCESS_KILL, clean_key, t) is None
                for t in range(3)
            )
            if kills_poison and spares_clean:
                plan = candidate
                break
        assert plan is not None, "no discriminating chaos seed in range"

        old = os.environ.get("UVMREPRO_CHAOS")
        os.environ["UVMREPRO_CHAOS"] = plan.to_json()
        try:
            with make_service(
                tmp_path, n_workers=2, poison_threshold=3, max_retries=5
            ) as svc:
                poisoned = svc.submit(poison_spec)
                clean = svc.submit(clean_spec)
                assert svc.wait(clean.job_id, timeout=120.0).state is JobState.DONE
                final = svc.wait(poisoned.job_id, timeout=120.0)
                assert final.state is JobState.POISONED
                counters = svc.metrics()["counters"]
                assert counters["workers.deaths"] == 3
                assert counters["jobs.poisoned"] == 1
                # the pool healed: both workers alive after the storm
                assert svc.metrics()["gauges"]["workers_alive"] == 2
        finally:
            if old is None:
                os.environ.pop("UVMREPRO_CHAOS", None)
            else:
                os.environ["UVMREPRO_CHAOS"] = old
            set_active_plan(None, reset=True)


class TestGracefulDrain:
    def test_drain_rejects_submissions_and_requeues_running_work(self, tmp_path):
        svc = make_service(tmp_path, drain_timeout_s=0.3).start()
        running = svc.submit(JobSpec(**SLOW_SPEC))
        wait_running(svc, running)
        queued = svc.submit(JobSpec(**FAST_SPEC))
        assert queued.state is JobState.QUEUED

        svc.drain()  # the slow job cannot finish inside 0.3 s
        assert svc.draining
        assert running.state is JobState.QUEUED  # journaled back for later
        with pytest.raises(ServiceDrainingError) as info:
            svc.submit(JobSpec(**{**FAST_SPEC, "seed": 9}))
        assert info.value.status == 503

        # the restarted service finishes everything the drain preserved
        with make_service(tmp_path, job_timeout_s=300.0) as reborn:
            for job_id in (running.job_id, queued.job_id):
                final = reborn.wait(job_id, timeout=300.0)
                assert final.state is JobState.DONE

    def test_drain_with_idle_queue_is_immediate(self, tmp_path):
        svc = make_service(tmp_path).start()
        record = svc.submit(JobSpec(**FAST_SPEC))
        assert svc.wait(record.job_id, timeout=120.0).state is JobState.DONE
        t0 = time.monotonic()
        svc.drain()
        assert time.monotonic() - t0 < 5.0
        ready, detail = svc.readiness()
        assert not ready and "draining" in detail["reasons"]
