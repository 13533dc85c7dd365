"""Integration: batched execution in warm processes is bit-identical to
solo execution.

Three layers of proof:

* engine level - a run in a warm process (one that already built and
  ran the same spec, as a long-lived serve worker has) reproduces the
  first run's counters and timing exactly, for every registered
  workload: builds are never memoized, so nothing one run builds may
  leak into the next,
* sweep level - a pooled ``run_sweep`` returns the same results as
  point-by-point solo simulation,
* service level - a ``batch_max > 1`` service with the memory tier
  enabled stores byte-identical result documents to a solo
  (``batch_max=1``, memory tier off) service, under the UVMSAN
  invariant sanitizer,

plus the recovery contract: a worker dying mid-batch charges only the
member it was executing; unstarted siblings requeue with their
dispatch-time attempt refunded and every member still completes.
"""

import json
import os

import pytest

from repro.experiments.runner import (
    ExperimentSetup,
    build_driver,
    run_sweep,
    simulate,
)
from repro.chaos.plan import set_active_plan
from repro.serve.jobs import JobSpec, JobState
from repro.serve.service import ServiceConfig, SimulationService
from repro.units import MiB
from repro.workloads.registry import all_workload_names, make_workload

#: tiny-but-oversubscribed points so every workload actually faults.
DATA_MIB = 12
GPU_MIB = 8

#: result-document fields that legitimately differ between runs.
VOLATILE_DOC_FIELDS = ("job_id", "worker_pid", "run_wall_ns")


def tiny_setup() -> ExperimentSetup:
    return ExperimentSetup().with_gpu(memory_bytes=GPU_MIB * MiB)


def fingerprint(result) -> tuple:
    return (
        result.total_time_ns,
        tuple(sorted(result.counters.as_dict().items())),
        tuple(sorted(result.timer.as_dict().items())),
    )


class TestWarmBuildMatrix:
    """Every registered workload: a build in a warm process (one that
    already built and ran the same spec) == the process's first build."""

    @pytest.mark.parametrize("name", all_workload_names())
    def test_warm_build_bit_identical(self, name):
        setup = tiny_setup()
        first = simulate(make_workload(name, DATA_MIB * MiB), setup)
        again = build_driver(make_workload(name, DATA_MIB * MiB), setup).run()
        assert fingerprint(again) == fingerprint(first)


class TestBatchedSweepEquivalence:
    def test_grouped_sweep_matches_solo(self, tmp_path):
        setup = tiny_setup()
        points = []
        for name in ("sgemm", "stream", "random"):
            for prefetch in (True, False):
                points.append(
                    (
                        make_workload(name, DATA_MIB * MiB),
                        setup.with_driver(prefetch_enabled=prefetch),
                    )
                )
        swept = run_sweep(points, workers=1, cache_dir=str(tmp_path / "cache"))
        solo = [simulate(w, s) for w, s in points]
        for got, want in zip(swept, solo):
            assert fingerprint(got) == fingerprint(want)


def stripped(doc: dict) -> dict:
    doc = dict(doc)
    meta = dict(doc.get("meta", {}))
    for field in VOLATILE_DOC_FIELDS:
        meta.pop(field, None)
    doc["meta"] = meta
    return doc


class TestServiceBatchedEquivalence:
    def specs(self):
        # four distinct keys sharing one build signature, so a batched
        # service runs them as one batch.
        base = dict(
            workload="sgemm", data_bytes=DATA_MIB * MiB,
            gpu={"memory_bytes": GPU_MIB * MiB},
        )
        return [
            JobSpec(**base),
            JobSpec(**base, driver={"prefetch_enabled": False}),
            JobSpec(**base, driver={"replay_policy": "once"}),
            JobSpec(**base, cost={"driver_wakeup_ns": 9_500}),
        ]

    def run_service(self, root, batch_max, mem_cache_mb):
        config = ServiceConfig(
            n_workers=1,
            retry_backoff_s=0.05,
            sweep_cache_dir="",  # no memo: force real computation
            batch_max=batch_max,
            mem_cache_mb=mem_cache_mb,
        )
        docs = {}
        with SimulationService(str(root), config) as svc:
            records = [svc.submit(spec) for spec in self.specs()]
            for record in records:
                final = svc.wait(record.job_id, timeout=300.0)
                assert final.state is JobState.DONE, final.error
            for record in records:
                docs[record.key] = svc.result_doc(record.job_id)
        return docs

    def test_batched_docs_bit_identical_to_solo(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UVMREPRO_SANITIZE", "1")
        solo = self.run_service(tmp_path / "solo", batch_max=1, mem_cache_mb=0)
        batched = self.run_service(tmp_path / "batched", batch_max=8, mem_cache_mb=64)
        assert set(solo) == set(batched)
        for key in solo:
            assert stripped(solo[key]) == stripped(batched[key])


class TestDeathMidBatch:
    def test_worker_death_mid_batch_charges_only_active_member(self, tmp_path):
        """A worker SIGKILLed at member start: the active member is
        retried (one attempt consumed, one death counted against its
        key); unstarted siblings requeue with the attempt refunded; the
        journal stays consistent and every member completes."""
        plan = {
            "seed": 11,
            "faults": [
                # kill the worker at the start of every key's first
                # attempt: each dispatch round loses exactly one member,
                # siblings requeue, and attempt 2 is clean.
                {"point": "process.worker_kill", "args": {"at": "start"},
                 "probability": 1.0, "attempts": 1}
            ],
        }
        old = os.environ.get("UVMREPRO_CHAOS")
        os.environ["UVMREPRO_CHAOS"] = json.dumps(plan)
        try:
            config = ServiceConfig(
                n_workers=1,
                retry_backoff_s=0.05,
                max_retries=3,
                sweep_cache_dir="",
                batch_max=4,
                mem_cache_mb=0,
            )
            base = dict(
                workload="stream", data_bytes=4 * MiB,
                gpu={"memory_bytes": 8 * MiB},
            )
            specs = [
                JobSpec(**base, seed=0x5EED, cost={"driver_wakeup_ns": ns})
                for ns in (9_000, 9_100, 9_200, 9_300)
            ]
            assert len({s.batch_signature() for s in specs}) == 1
            store_dir = tmp_path / "store"
            with SimulationService(str(store_dir), config) as svc:
                records = [svc.submit(spec) for spec in specs]
                for record in records:
                    final = svc.wait(record.job_id, timeout=300.0)
                    assert final.state is JobState.DONE, final.error
                    # own kill consumed attempt 1, attempt 2 succeeded;
                    # sibling requeues refunded their dispatch attempts.
                    assert final.attempts == 2
                counters = svc.metrics()["counters"]
                # exactly one death per key - unstarted siblings were
                # never charged, so nothing approached the poison
                # breaker (threshold 3) and nothing terminally failed.
                assert counters["workers.deaths"] == len(specs)
                assert counters["jobs.completed"] == len(specs)
                assert counters.get("jobs.poisoned", 0) == 0
                assert counters.get("jobs.failed", 0) == 0
                events = svc.telemetry.events_since(0, limit=10_000)
                sibling_requeues = [
                    e for e in events
                    if e["state"] == "requeued" and e.get("batch_sibling")
                ]
                assert sibling_requeues, "no sibling was ever requeued mid-batch"
        finally:
            if old is None:
                os.environ.pop("UVMREPRO_CHAOS", None)
            else:
                os.environ["UVMREPRO_CHAOS"] = old
            set_active_plan(None, reset=True)

        # journal consistency: a fresh service replaying the journal
        # reconstructs all four jobs as terminal DONE (no ghosts, no
        # requeued leftovers).
        with SimulationService(
            str(store_dir), ServiceConfig(n_workers=1, sweep_cache_dir="")
        ) as reborn:
            replayed = [r for r in reborn.jobs()]
            assert len(replayed) == 4
            assert all(r.state is JobState.DONE for r in replayed)
