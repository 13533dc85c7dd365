"""Integration: execution in warm processes and through the service
is bit-identical to solo execution.

Three layers of proof:

* engine level - a run in a warm process (one that already built and
  ran the same spec, as a long-lived serve worker has) reproduces the
  first run's counters and timing exactly, for every registered
  workload: builds are never memoized, so nothing one run builds may
  leak into the next,
* sweep level - a pooled ``run_sweep`` returns the same results as
  point-by-point solo simulation,
* service level - every read of a served result document, each one
  checksum-verified from the store, equals the document of a solo
  ``simulate()`` of the same spec, under the UVMSAN invariant
  sanitizer,

plus the recovery contract: a worker killed at the start of each job's
first attempt costs that job one attempt and one death, and every job
still completes.
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
from repro.checks import sanitizer as uvmsan
from repro.serve.jobs import JobSpec, JobState
from repro.serve.results import result_to_doc
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


def without_meta(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "meta"}


class TestServedEquivalence:
    def specs(self):
        # four distinct keys of one workload: driver and cost overrides
        # that change the result, not the build.
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

    def test_served_docs_match_solo(self, tmp_path, monkeypatch):
        """Both reads of each served document equal the solo document:
        same body, and a ``meta`` envelope that names the spec."""
        monkeypatch.setenv("UVMREPRO_SANITIZE", "1")
        uvmsan.set_enabled(None)  # re-read the switch; forked workers inherit it
        try:
            assert uvmsan.enabled()
            config = ServiceConfig(
                n_workers=1,
                retry_backoff_s=0.05,
                sweep_cache_dir="",  # no memo: force real computation
            )
            specs = self.specs()
            with SimulationService(str(tmp_path / "store"), config) as svc:
                records = [svc.submit(spec) for spec in specs]
                for record in records:
                    final = svc.wait(record.job_id, timeout=300.0)
                    assert final.state is JobState.DONE, final.error
                reads = [
                    (svc.result_doc(r.job_id), svc.result_doc(r.job_id))
                    for r in records
                ]
                counters = svc.metrics()["counters"]
            # every read was answered by the store, none from elsewhere
            assert counters["cache.disk_hits"] == 2 * len(specs)
            for spec, record, pair in zip(specs, records, reads):
                solo = result_to_doc(simulate(*spec.build()))
                for doc in pair:
                    assert stripped(doc)["meta"] == {
                        "key": record.key,
                        "workload": spec.workload,
                        "data_bytes": spec.data_bytes,
                        "seed": spec.seed,
                    }
                    assert without_meta(doc) == without_meta(solo)
        finally:
            uvmsan.set_enabled(None)


class TestDeathAtStart:
    def test_first_start_kill_costs_one_attempt(self, tmp_path):
        """A worker SIGKILLed at the start of every job's first attempt:
        each job is retried once (one attempt consumed, one death counted
        against its key), the journal stays consistent and every job
        completes."""
        plan = {
            "seed": 11,
            "faults": [
                # kill the worker at the start of every key's first
                # attempt; attempt 2 is clean.
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
            )
            base = dict(
                workload="stream", data_bytes=4 * MiB,
                gpu={"memory_bytes": 8 * MiB},
            )
            specs = [
                JobSpec(**base, seed=0x5EED, cost={"driver_wakeup_ns": ns})
                for ns in (9_000, 9_100, 9_200, 9_300)
            ]
            store_dir = tmp_path / "store"
            with SimulationService(str(store_dir), config) as svc:
                records = [svc.submit(spec) for spec in specs]
                for record in records:
                    final = svc.wait(record.job_id, timeout=300.0)
                    assert final.state is JobState.DONE, final.error
                    # its kill consumed attempt 1, attempt 2 succeeded
                    assert final.attempts == 2
                counters = svc.metrics()["counters"]
                # exactly one death per key, so nothing approached the
                # poison breaker (threshold 3) and nothing terminally
                # failed.
                assert counters["workers.deaths"] == len(specs)
                assert counters["jobs.completed"] == len(specs)
                assert counters.get("jobs.poisoned", 0) == 0
                assert counters.get("jobs.failed", 0) == 0
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
