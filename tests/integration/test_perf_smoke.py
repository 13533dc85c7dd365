"""Tier-1 perf smoke tests for the GPU phase engine and the service path.

Each guards a hot path with a generous (about 2x) wall-clock budget
recorded in ``BENCH_phase_engine.json`` alongside the measured numbers:

* the SoA phase engine on ``sgemm`` (few evictions).  The budget sits
  below the scalar reference engine's measured time for the same
  workload, so a silent fallback to per-stream scalar stepping fails
  this test rather than just slowing CI down;
* the per-VABlock service path on an evicting ``random`` run, where
  nearly every bin evicts a block, so a slide in servicing, eviction,
  prefetch or residency fails CI.
"""

import json
import time
from pathlib import Path

from repro.checks import sanitizer as uvmsan
from repro.experiments.runner import ExperimentSetup, simulate
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
