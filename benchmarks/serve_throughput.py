"""Serve-layer throughput benchmark: cold vs tuned vs resubmission.

Measures end-to-end jobs/sec of :class:`SimulationService` on a 64-job
repeat-heavy mix (16 unique specs - 4 workloads x 4 driver/cost
variants - each submitted 4 times) under three configurations:

* ``cold``  - every job computed: sweep memo off and a fresh service
  and store per repeat wave, so nothing is ever reused.  This is the
  per-job full-compute path a cache-less service would pay for the
  whole mix.
* ``tuned`` - one service with persistent workers.  Each unique spec is
  simulated once (every run builds its workload afresh); its repeats
  are answered at submit from the result store.  Result reuse is
  nearly all of the gain over ``cold``.
* ``warm``  - the same 64-job mix resubmitted to the tuned service:
  pure store hits at submit.  One pass takes tens of milliseconds, so
  it is timed :data:`WARM_PASSES` times and recorded as the median and
  quartiles of the per-pass rate.

Every job's result document is fetched after its wait, as a client
does.  Every submit hit and every fetch reads the store and verifies
the document's checksum (``cache.disk_hits`` counts both).

Writes ``BENCH_serve_throughput.json`` at the repo root and, with
``--check``, exits non-zero when tuned throughput is below
``--min-speedup`` (default 3.0) times cold throughput - the CI
perf-smoke budget.

``--gateway`` benchmarks the fleet tier instead: the same 64-job mix
submitted over HTTP through a consistent-hash gateway
(:mod:`repro.fleet`) fronting a 3-shard fleet of tuned services,
against the single-shard cold baseline.  On a one- or two-CPU host the
fleet's win comes from what sharding preserves - all repeats of a
content key route to the same shard and are answered from its store -
plus shard-parallel queueing, not from raw CPU parallelism.  Writes
``BENCH_fleet_throughput.json``; with ``--check`` the budget is
``--min-fleet-speedup`` (default 2.0) times cold.

Usage::

    PYTHONPATH=src python benchmarks/serve_throughput.py [--check]
    PYTHONPATH=src python benchmarks/serve_throughput.py --gateway [--check]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.serve.jobs import JobSpec, JobState
from repro.serve.service import ServiceConfig, SimulationService
from repro.units import MiB

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve_throughput.json"
FLEET_OUTPUT = REPO_ROOT / "BENCH_fleet_throughput.json"
FLEET_SHARDS = 3

DATA_MIB = 48
GPU_MIB = 32
REPEATS = 4
#: timed resubmission passes of the warm phase (one alone is noise).
WARM_PASSES = 15

#: spec variants per workload: distinct content keys, one build per
#: workload (driver/cost overrides apply post-build).
VARIANTS = (
    {},
    {"driver": {"prefetch_enabled": False}},
    {"driver": {"replay_policy": "once"}},
    {"cost": {"driver_wakeup_ns": 9_500}},
)
WORKLOADS = ("sgemm", "stream", "random", "regular")


def unique_specs() -> list[JobSpec]:
    specs = []
    for workload in WORKLOADS:
        for variant in VARIANTS:
            specs.append(
                JobSpec(
                    workload=workload,
                    data_bytes=DATA_MIB * MiB,
                    gpu={"memory_bytes": GPU_MIB * MiB},
                    **variant,
                )
            )
    return specs


def service_config(shard_name: str | None = None) -> ServiceConfig:
    return ServiceConfig(
        n_workers=1,
        sweep_cache_dir="",  # isolate the result store from the sweep memo
        checkpoint_every_phases=0,
        retry_backoff_s=0.05,
        shard_name=shard_name,
    )


def run_wave(svc: SimulationService, specs: list[JobSpec]) -> None:
    """Submit every spec, then wait for each job and fetch its result
    document, as a client does (``GET /jobs/<id>/result``)."""
    records = [svc.submit(spec) for spec in specs]
    for record in records:
        final = svc.wait(record.job_id, timeout=600.0)
        if final.state is not JobState.DONE:
            raise RuntimeError(
                f"job {final.job_id} ended {final.state.value}: {final.error}"
            )
        if svc.result_doc(final.job_id) is None:
            raise RuntimeError(f"job {final.job_id} is done but has no result")


def bench_cold(specs: list[JobSpec], scratch: Path) -> float:
    """Each repeat wave on a fresh store: 64 full computes."""
    t0 = time.perf_counter()
    for wave in range(REPEATS):
        with SimulationService(
            str(scratch / f"cold-{wave}"), service_config()
        ) as svc:
            run_wave(svc, specs)
    return time.perf_counter() - t0


def bench_tuned(
    specs: list[JobSpec], scratch: Path
) -> tuple[float, list[float], dict]:
    """One tuned service: the mix, then :data:`WARM_PASSES` timed
    resubmissions of it.  The counters describe the mix plus the first
    resubmission."""
    with SimulationService(str(scratch / "tuned"), service_config()) as svc:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            run_wave(svc, specs)
        tuned_s = time.perf_counter() - t0
        warm_s = []
        for _ in range(WARM_PASSES):
            t0 = time.perf_counter()
            for _ in range(REPEATS):
                run_wave(svc, specs)
            warm_s.append(time.perf_counter() - t0)
            if len(warm_s) == 1:
                counters = dict(svc.metrics()["counters"])
    return tuned_s, warm_s, counters


def bench_gateway(specs: list[JobSpec], scratch: Path) -> tuple[float, dict]:
    """The 64-job mix over HTTP through a gateway + 3 tuned shards.

    Everything rides the real wire: shard HTTP servers, the gateway's
    routing/health layer, and an unmodified :class:`ServiceClient`
    submitting to the gateway URL.
    """
    from repro.fleet import (
        FleetGateway,
        GatewayConfig,
        ShardSpec,
        serve_gateway_http,
    )
    from repro.serve.client import ServiceClient
    from repro.serve.http_api import serve_http

    shards = []
    try:
        for i in range(FLEET_SHARDS):
            svc = SimulationService(
                str(scratch / f"fleet-shard{i}"),
                service_config(shard_name=f"shard{i}"),
            ).start()
            server = serve_http(svc, "127.0.0.1", 0)
            shards.append((svc, server))
        gateway = FleetGateway(
            GatewayConfig(
                shards=tuple(
                    ShardSpec(f"shard{i}", server.url)
                    for i, (_, server) in enumerate(shards)
                ),
                vnodes=64,
                probe_interval_s=0.5,
                read_timeout_s=600.0,
            )
        ).start()
        gateway_server = serve_gateway_http(gateway, "127.0.0.1", 0)
        try:
            client = ServiceClient(
                gateway_server.url, timeout_s=600.0, retries=2
            )
            t0 = time.perf_counter()
            for _ in range(REPEATS):
                records = [client.submit(spec.to_dict()) for spec in specs]
                for record in records:
                    final = client.wait(record["job_id"], timeout_s=600.0)
                    if final["state"] != "done":
                        raise RuntimeError(
                            f"job {final['job_id']} ended {final['state']}: "
                            f"{final.get('error')}"
                        )
            fleet_s = time.perf_counter() - t0
            counters = dict(gateway.metrics()["counters"])
        finally:
            gateway_server.shutdown()
            gateway_server.server_close()
            gateway.stop()
    finally:
        for svc, server in shards:
            server.shutdown()
            svc.stop()
    return fleet_s, counters


def run_fleet_benchmark(args: argparse.Namespace) -> int:
    specs = unique_specs()
    n_jobs = len(specs) * REPEATS
    with tempfile.TemporaryDirectory(prefix="uvmrepro-bench-") as tmp:
        scratch = Path(tmp)
        print(f"cold: {n_jobs} jobs ({len(specs)} unique x {REPEATS}) ...")
        cold_s = bench_cold(specs, scratch)
        print(f"  {cold_s:.2f}s  ({n_jobs / cold_s:.2f} jobs/s)")
        print(
            f"fleet: same mix over HTTP via gateway + {FLEET_SHARDS} "
            "tuned shards ..."
        )
        fleet_s, counters = bench_gateway(specs, scratch)
        print(f"  {fleet_s:.2f}s  ({n_jobs / fleet_s:.2f} jobs/s)")

    speedup = (n_jobs / fleet_s) / (n_jobs / cold_s)
    doc = {
        "description": (
            "Fleet-gateway throughput on the 64-job repeat-heavy mix "
            "(16 unique specs, each submitted 4 times) submitted over "
            "HTTP through the consistent-hash gateway fronting "
            f"{FLEET_SHARDS} tuned service shards, against the "
            "single-shard cold baseline (sweep memo off, fresh store "
            "per wave). Shared "
            "2-vCPU VM: the fleet win is key affinity (repeats are "
            "answered from their shard's store), not CPU "
            "parallelism. Compare ratios, not absolutes."
        ),
        "mix": {
            "jobs": n_jobs,
            "unique_specs": len(specs),
            "repeats": REPEATS,
            "data_bytes": DATA_MIB * MiB,
            "gpu_memory_bytes": GPU_MIB * MiB,
            "workloads": list(WORKLOADS),
        },
        "fleet": {
            "shards": FLEET_SHARDS,
            "vnodes": 64,
            "shard_config": {"n_workers": 1},
            "transport": "http (client -> gateway -> shard)",
        },
        "results": {
            "cold": {"wall_seconds": round(cold_s, 3),
                     "jobs_per_sec": round(n_jobs / cold_s, 3)},
            "fleet": {"wall_seconds": round(fleet_s, 3),
                      "jobs_per_sec": round(n_jobs / fleet_s, 3)},
        },
        "speedup_fleet_vs_cold": round(speedup, 2),
        "budget": {"min_speedup_fleet_vs_cold": args.min_fleet_speedup},
        "gateway_counters": {
            key: counters.get(key, 0)
            for key in (
                "fleet.jobs_routed", "fleet.reroutes", "fleet.probes",
                "fleet.shard_down", "jobs.submitted", "simulations.run",
            )
        },
    }
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"speedup (fleet vs cold): {speedup:.2f}x  -> {args.output}")
    if args.check and speedup < args.min_fleet_speedup:
        print(
            f"FAIL: fleet speedup {speedup:.2f}x below budget "
            f"{args.min_fleet_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when tuned speedup is below --min-speedup",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required tuned-vs-cold throughput ratio (default 3.0)",
    )
    parser.add_argument(
        "--gateway", action="store_true",
        help="benchmark the 3-shard fleet gateway against cold instead "
        "of the single-service tuned and warm passes",
    )
    parser.add_argument(
        "--min-fleet-speedup", type=float, default=2.0,
        help="required fleet-vs-cold throughput ratio with --gateway "
        "(default 2.0)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help=f"result JSON path (default {OUTPUT}, or {FLEET_OUTPUT} "
        "with --gateway)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = FLEET_OUTPUT if args.gateway else OUTPUT
    if args.gateway:
        return run_fleet_benchmark(args)

    specs = unique_specs()
    n_jobs = len(specs) * REPEATS
    with tempfile.TemporaryDirectory(prefix="uvmrepro-bench-") as tmp:
        scratch = Path(tmp)
        print(f"cold: {n_jobs} jobs ({len(specs)} unique x {REPEATS}) ...")
        cold_s = bench_cold(specs, scratch)
        print(f"  {cold_s:.2f}s  ({n_jobs / cold_s:.2f} jobs/s)")
        print("tuned: same mix, one tuned service (result reuse) ...")
        tuned_s, warm_s, counters = bench_tuned(specs, scratch)
        print(f"  {tuned_s:.2f}s  ({n_jobs / tuned_s:.2f} jobs/s)")
        warm_rates = statistics.quantiles(
            [n_jobs / s for s in warm_s], n=4, method="inclusive"
        )
        print(f"warm: resubmission, pure store hits, {WARM_PASSES} passes ...")
        print(
            f"  median {statistics.median(warm_s):.3f}s  ({warm_rates[1]:.0f} "
            f"jobs/s, quartiles {warm_rates[0]:.0f}-{warm_rates[2]:.0f})"
        )

    speedup = (n_jobs / tuned_s) / (n_jobs / cold_s)
    doc = {
        "description": (
            "Serve-layer throughput on a 64-job repeat-heavy mix "
            "(16 unique specs = 4 workloads x 4 driver/cost variants, "
            "each submitted 4 times); every job's result document is "
            "fetched after its wait, as clients do. cold = sweep memo "
            "off, fresh service and store per wave (64 full computes); "
            "tuned = one service (persistent workers) that simulates "
            "each unique spec once and answers repeats at submit from "
            "the store; warm = the same mix resubmitted to that service, "
            f"timed over {WARM_PASSES} passes (median pass; jobs/s "
            "median and quartiles). Every submit hit and every fetch "
            "reads the store and verifies the checksum; cache.disk_hits "
            "counts both, after the tuned mix and the first warm pass. "
            "Wall times from a shared 2-vCPU VM (noisy - compare ratios, "
            "not absolutes)."
        ),
        "mix": {
            "jobs": n_jobs,
            "unique_specs": len(specs),
            "repeats": REPEATS,
            "data_bytes": DATA_MIB * MiB,
            "gpu_memory_bytes": GPU_MIB * MiB,
            "workloads": list(WORKLOADS),
        },
        "config": {"n_workers": 1},
        "results": {
            "cold": {"wall_seconds": round(cold_s, 3),
                     "jobs_per_sec": round(n_jobs / cold_s, 3)},
            "tuned": {"wall_seconds": round(tuned_s, 3),
                      "jobs_per_sec": round(n_jobs / tuned_s, 3)},
            "warm": {"passes": WARM_PASSES,
                     "wall_seconds": round(statistics.median(warm_s), 4),
                     "jobs_per_sec": round(warm_rates[1], 1),
                     "jobs_per_sec_quartiles": [
                         round(warm_rates[0], 1), round(warm_rates[2], 1)
                     ]},
        },
        "speedup_tuned_vs_cold": round(speedup, 2),
        "budget": {"min_speedup_tuned_vs_cold": args.min_speedup},
        "tuned_service_counters": {
            key: counters.get(key, 0)
            for key in (
                "jobs.submitted", "jobs.completed", "simulations.run",
                "cache.hits.store", "cache.disk_hits", "cache.misses",
            )
        },
    }
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"speedup (tuned vs cold): {speedup:.2f}x  -> {args.output}")
    if args.check and speedup < args.min_speedup:
        print(
            f"FAIL: tuned speedup {speedup:.2f}x below budget "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
