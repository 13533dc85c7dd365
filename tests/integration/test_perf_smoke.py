"""Tier-1 perf smoke tests for the GPU phase engine and the service path.

Each guards a hot path with a wall-clock budget recorded in
``BENCH_phase_engine.json`` alongside the measured numbers.  The first
three budgets are in *reference-speed seconds*: the test times a fixed
calibration mix right before and right after the run and rescales the
run's host time by it, so a slow or loaded host does not fail a budget
that a fast one passes:

* the SoA phase engine on ``sgemm`` (few evictions), so a slide in the
  GPU phase loop fails CI rather than just slowing it down, once for the
  whole run and once for its GPU phases alone;
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

import numpy as np

from repro.checks import sanitizer as uvmsan
from repro.experiments.runner import ExperimentSetup, simulate
from repro.gpu.device import GpuDevice
from repro.serve.jobs import JobSpec, JobState
from repro.serve.service import ServiceConfig, SimulationService
from repro.units import MiB
from repro.workloads.registry import make_workload

BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_phase_engine.json").read_text()
)

#: calibrate() on the reference host (2-vCPU 2.0 GHz Xeon VM, unloaded).
CAL_REF_S = 0.15


def calibrate() -> float:
    """Host seconds for a fixed mix of dict updates and small-array numpy
    calls, the two kinds of work the simulator's hot paths do.  The
    same mix (and reference time) as the repository benchmark's
    ``perfbench/common.py``, copied because tests stay independent of
    the benchmark's code."""
    values = np.random.default_rng(7).integers(0, 1 << 20, 4096)
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(300):
        np.unique(values)
        mask = np.zeros(512, dtype=bool)
        mask[values[:64] & 511] = True
        np.flatnonzero(mask)
    return time.perf_counter() - start


def timed_at_reference_speed(fn):
    """``fn()`` and its wall time rescaled to the reference host speed
    by the calibration times taken right before and right after it."""
    cal_s = [calibrate()]
    t0 = time.perf_counter()
    out = fn()
    wall_s = time.perf_counter() - t0
    cal_s.append(calibrate())
    return out, wall_s * CAL_REF_S * len(cal_s) / sum(cal_s)


def test_soa_engine_smoke_budget():
    spec = BENCH["smoke_workload"]
    setup = ExperimentSetup().with_gpu(memory_bytes=64 * MiB)
    workload = make_workload(spec["workload"], spec["data_bytes"])

    run, ref_s = timed_at_reference_speed(lambda: simulate(workload, setup))

    # correctness first: the engine must still produce the recorded
    # bit-exact results, otherwise the timing is meaningless
    assert run.total_time_ns == spec["expected"]["total_time_ns"]
    assert run.faults_read == spec["expected"]["faults_read"]

    # UVMSAN re-checks the whole residency state at every batch boundary
    budget = spec[
        "sanitized_budget_reference_seconds"
        if uvmsan.enabled()
        else "budget_reference_seconds"
    ]
    assert ref_s < budget, (
        f"SoA engine took {ref_s:.2f}s at reference speed, budget {budget}s "
        f"(scalar baseline {spec['reference_seconds']['scalar_median']}s)"
    )


def test_phase_engine_smoke_budget(monkeypatch):
    """Only the GPU phases of the sgemm smoke run, timed call by call
    and rescaled to the reference host speed.  The phases are well under
    half of that run, so a whole-run budget cannot see the phase engine
    slide back to per-call numpy dispatch; this one can."""
    spec = BENCH["smoke_workload"]
    setup = ExperimentSetup().with_gpu(memory_bytes=64 * MiB)
    workload = make_workload(spec["workload"], spec["data_bytes"])
    phase_s = []
    run_phase = GpuDevice.run_phase

    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_phase(self, *args, **kwargs)
        finally:
            phase_s.append(time.perf_counter() - t0)

    monkeypatch.setattr(GpuDevice, "run_phase", timed)
    cal_s = [calibrate()]
    run = simulate(workload, setup)
    cal_s.append(calibrate())
    ref_s = sum(phase_s) * CAL_REF_S * len(cal_s) / sum(cal_s)

    assert run.total_time_ns == spec["expected"]["total_time_ns"]
    assert run.faults_read == spec["expected"]["faults_read"]
    assert len(phase_s) == run.counters.as_dict()["gpu.phases"]
    budget = spec["phase_budget_reference_seconds"]
    assert ref_s < budget, (
        f"{len(phase_s)} GPU phases took {ref_s:.3f}s at reference speed, "
        f"budget {budget}s (median {spec['phase_reference_seconds']['median']}s)"
    )


def test_service_path_smoke_budget():
    spec = BENCH["service_smoke_workload"]
    setup = ExperimentSetup().with_gpu(memory_bytes=spec["gpu_memory_bytes"])
    workload = make_workload(spec["workload"], spec["data_bytes"])

    run, ref_s = timed_at_reference_speed(lambda: simulate(workload, setup))

    assert run.total_time_ns == spec["expected"]["total_time_ns"]
    assert run.faults_read == spec["expected"]["faults_read"]
    assert run.evictions == spec["expected"]["evictions"]

    # UVMSAN re-checks the whole residency state at every batch boundary
    budget = spec[
        "sanitized_budget_reference_seconds"
        if uvmsan.enabled()
        else "budget_reference_seconds"
    ]
    assert ref_s < budget, (
        f"service path took {ref_s:.2f}s at reference speed, budget {budget}s "
        f"(measured {spec['reference_seconds']['median']}s unsanitized)"
    )


def test_serve_miss_smoke_budget(tmp_path):
    """Each spec is submitted only after the previous one is DONE, so the
    served total is the specs' simulations plus each miss's queue,
    dispatch, store and journal costs.  Each spec is simulated in
    process and then served before the next spec starts, so a burst of
    host load lands on both sums alike.  Best of 3 on both sides."""
    spec = BENCH["serve_miss_smoke"]
    specs = [
        JobSpec(
            workload=name,
            data_bytes=spec["data_bytes"],
            gpu={"memory_bytes": spec["gpu_memory_bytes"]},
        )
        for name in spec["workloads"]
    ]
    # one worker and no sweep memo: every submission is a miss that
    # simulates
    config = ServiceConfig(n_workers=1, sweep_cache_dir="")
    sim_s, serve_s = [], []
    for round_ in range(3):
        sim_s.append(0.0)
        serve_s.append(0.0)
        with SimulationService(str(tmp_path / f"round{round_}"), config) as svc:
            for job in specs:
                t0 = time.perf_counter()
                simulate(*job.build())
                sim_s[-1] += time.perf_counter() - t0
                t0 = time.perf_counter()
                record = svc.submit(job)
                final = svc.wait(record.job_id, timeout=120.0)
                assert final.state is JobState.DONE, final.error
                serve_s[-1] += time.perf_counter() - t0

    ratio = min(serve_s) / min(sim_s)
    assert ratio < spec["budget_ratio"], (
        f"served misses took {min(serve_s):.2f}s, {ratio:.2f}x their "
        f"{min(sim_s):.2f}s in-process simulations (budget "
        f"{spec['budget_ratio']}x)"
    )
