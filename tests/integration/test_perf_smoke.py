"""Tier-1 perf smoke tests for the GPU phase engine and the service path.

Each guards a hot path with a generous (about 2x) wall-clock budget
recorded in ``BENCH_phase_engine.json`` alongside the measured numbers:

* the SoA phase engine on ``sgemm`` (few evictions).  The budget sits
  below the scalar reference engine's measured time for the same
  workload, so a silent fallback to per-stream scalar stepping fails
  this test rather than just slowing CI down;
* the per-VABlock service path on an evicting ``random`` run, where
  nearly every bin evicts a block, so a slide in servicing, eviction,
  prefetch or residency fails CI;
* the serve miss path: the Table I workloads submitted one at a time to
  an in-process service must cost close to their in-process
  ``simulate()`` total.  That budget is a ratio measured within the
  test, so it does not depend on host speed.
"""

import json
import time
from pathlib import Path

from repro.checks import sanitizer as uvmsan
from repro.experiments.runner import ExperimentSetup, simulate
from repro.serve.jobs import JobSpec, JobState
from repro.serve.service import ServiceConfig, SimulationService
from repro.units import MiB
from repro.workloads.registry import make_workload

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_phase_engine.json").read_text()
)


def test_soa_engine_smoke_budget():
    spec = BENCH["smoke_workload"]
    setup = ExperimentSetup().with_gpu(memory_bytes=64 * MiB)
    workload = make_workload(spec["workload"], spec["data_bytes"])

    t0 = time.perf_counter()
    run = simulate(workload, setup)
    wall_s = time.perf_counter() - t0

    # correctness first: the engine must still produce the recorded
    # bit-exact results, otherwise the timing is meaningless
    assert run.total_time_ns == spec["expected"]["total_time_ns"]
    assert run.faults_read == spec["expected"]["faults_read"]

    assert wall_s < spec["budget_seconds"], (
        f"SoA engine took {wall_s:.2f}s, budget {spec['budget_seconds']}s "
        f"(scalar baseline {spec['baseline_scalar_seconds']}s)"
    )


def test_service_path_smoke_budget():
    spec = BENCH["service_smoke_workload"]
    setup = ExperimentSetup().with_gpu(memory_bytes=spec["gpu_memory_bytes"])
    workload = make_workload(spec["workload"], spec["data_bytes"])

    t0 = time.perf_counter()
    run = simulate(workload, setup)
    wall_s = time.perf_counter() - t0

    assert run.total_time_ns == spec["expected"]["total_time_ns"]
    assert run.faults_read == spec["expected"]["faults_read"]
    assert run.evictions == spec["expected"]["evictions"]

    # UVMSAN re-checks the whole residency state at every batch boundary
    budget = spec["sanitized_budget_seconds" if uvmsan.enabled() else "budget_seconds"]
    assert wall_s < budget, (
        f"service path took {wall_s:.2f}s, budget {budget}s "
        f"(measured {spec['measured_seconds']['median']}s unsanitized)"
    )


def test_serve_miss_smoke_budget(tmp_path):
    """Each spec is submitted only after the previous one is DONE, so the
    served total is the specs' simulations plus each miss's queue,
    dispatch, store and journal costs.  Best of 3 on both sides."""
    spec = BENCH["serve_miss_smoke"]
    specs = [
        JobSpec(
            workload=name,
            data_bytes=spec["data_bytes"],
            gpu={"memory_bytes": spec["gpu_memory_bytes"]},
        )
        for name in spec["workloads"]
    ]
    # one worker, and neither the sweep memo nor the memory tier: every
    # submission is a miss that simulates
    config = ServiceConfig(n_workers=1, sweep_cache_dir="", mem_cache_mb=0)
    sim_s, serve_s = [], []
    for round_ in range(3):
        t0 = time.perf_counter()
        for job in specs:
            simulate(*job.build())
        sim_s.append(time.perf_counter() - t0)
        with SimulationService(str(tmp_path / f"round{round_}"), config) as svc:
            t0 = time.perf_counter()
            for job in specs:
                record = svc.submit(job)
                final = svc.wait(record.job_id, timeout=120.0)
                assert final.state is JobState.DONE, final.error
            serve_s.append(time.perf_counter() - t0)

    ratio = min(serve_s) / min(sim_s)
    assert ratio < spec["budget_ratio"], (
        f"served misses took {min(serve_s):.2f}s, {ratio:.2f}x their "
        f"{min(sim_s):.2f}s in-process simulations (budget "
        f"{spec['budget_ratio']}x)"
    )
