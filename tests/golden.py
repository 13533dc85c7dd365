"""Golden-counter matrix: pinned simulated results for every service branch.

Each cell is one small, oversubscribed simulation (4 MiB of data on a
2 MiB GPU, one VABlock of device memory, unless the cell says otherwise).
The matrix covers every registered workload under the four replay
policies with prefetch on and off, every ``uvmrepro compare`` preset
that changes how faults are serviced, and the memory-advise paths
(pinned host, read-mostly with writes, host re-reads and host writes of
duplicated data, counter-triggered promotion of remote blocks).

On a one-VABlock GPU no fault batch holds more than two bins, so a
second group of cells (``large/...``) runs 48 MiB on a 32 MiB GPU, where
batches hold up to ~20 bins and evict blocks serviced earlier in the
same batch: every workload under the four replay policies, the presets
on their three workloads, and a traced run of each policy on ``random``
and ``hpgmg``.

For each cell the fixture pins ``total_time_ns``, ``gpu_phases``,
faults read/serviced, evictions, and a sha256 over the full counter
dict, the timer's nanosecond and operation-count dicts and the DMA
totals.  A ``large/...`` cell also pins a sha256 of the driver's final
state (every residency array, both page tables' mapped bits and mapping
stats, the PMA stats and the eviction order), and a traced cell a sha256
of each array of its :class:`~repro.trace.recorder.FinalizedTrace`.
``tests/integration/test_golden_counters.py`` asserts every cell; a
change to the simulator that moves any simulated bit fails it.

Regenerate (only when a change is *meant* to alter simulated results)::

    PYTHONPATH=src python -m tests.golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cli import _VARIANTS
from repro.core.driver import DriverConfig, RunResult, UvmDriver
from repro.core.replay import ReplayPolicyKind
from repro.experiments.runner import ExperimentSetup, build_driver, simulate
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.base import HostAccess, KernelPhase
from repro.workloads.registry import all_workload_names, make_workload
from tests.pagelists import mapped

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_counters.json"

DATA_BYTES = 4 * MiB
GPU_BYTES = 2 * MiB
#: compare presets whose service path differs from the stock one.
PRESETS = (
    "threshold-1",
    "adaptive",
    "thrashing-mitigation",
    "origin-prefetch",
    "access-counter-eviction",
)
#: the workloads each preset runs on: a scattered, a tiled and a
#: multigrid access pattern (hpgmg evicts and re-faults the most).
PRESET_WORKLOADS = ("random", "sgemm", "hpgmg")
#: the many-bins-per-batch size of the ``large/...`` cells.
LARGE_DATA_BYTES = 48 * MiB
LARGE_GPU_BYTES = 32 * MiB
#: the workloads of the traced ``large/trace/...`` cells.
TRACE_WORKLOADS = ("random", "hpgmg")


def _base_setup() -> ExperimentSetup:
    return ExperimentSetup().with_gpu(memory_bytes=GPU_BYTES)


def _workload_cell(name: str, policy: ReplayPolicyKind, prefetch: bool):
    setup = _base_setup().with_driver(replay_policy=policy, prefetch_enabled=prefetch)
    return lambda: simulate(make_workload(name, DATA_BYTES), setup)


def _preset_cell(preset: str, name: str):
    setup = _VARIANTS[preset](_base_setup())
    return lambda: simulate(make_workload(name, DATA_BYTES), setup)


def _large_cell(name: str, setup: ExperimentSetup, record_trace: bool = False):
    """A ``large/...`` cell: its result together with the driver that
    produced it, whose final state is pinned too."""

    def run():
        driver = build_driver(make_workload(name, LARGE_DATA_BYTES), setup, record_trace)
        return driver.run(), driver

    return run


def _large_cells() -> dict[str, Callable]:
    base = ExperimentSetup().with_gpu(memory_bytes=LARGE_GPU_BYTES)
    out: dict[str, Callable] = {}
    for name in all_workload_names():
        for policy in ReplayPolicyKind:
            setup = base.with_driver(replay_policy=policy)
            out[f"large/{name}/{policy.value}"] = _large_cell(name, setup)
    for preset in PRESETS:
        for name in PRESET_WORKLOADS:
            out[f"large/preset/{preset}/{name}"] = _large_cell(name, _VARIANTS[preset](base))
    for policy in ReplayPolicyKind:
        for name in TRACE_WORKLOADS:
            setup = base.with_driver(replay_policy=policy)
            out[f"large/trace/{policy.value}/{name}"] = _large_cell(name, setup, True)
    return out


def touch_driver(advise, phases, writes_frac=0.0, gpu_mib=2, data_mib=4,
                 driver_config=None, track_counters=False, seed=1) -> UvmDriver:
    """One stream per page (or the given kernel phases) over one advised
    range, the way ``tests/integration/test_memadvise.py`` builds runs."""
    space = AddressSpace()
    buf = space.malloc_managed(data_mib * MiB, name="data")
    if advise is not None:
        space.mem_advise("data", advise)
    pages = buf.pages()
    if phases is None:
        writes = np.zeros(len(pages), dtype=bool)
        writes[: int(len(pages) * writes_frac)] = True
        kwargs = {"streams": StreamSet(pages, writes=writes)}
    else:
        kwargs = {"phases": phases(pages)}
    return UvmDriver(
        space=space,
        driver_config=driver_config or DriverConfig(),
        gpu_config=GpuDeviceConfig(
            memory_bytes=gpu_mib * MiB, track_access_counters=track_counters
        ),
        rng=SimRng(seed),
        **kwargs,
    )


def _two_kernels(host_writes: bool, host_pages: slice):
    """Kernel 1 reads every page, the host touches some, kernel 2 re-reads."""

    def phases(pages):
        k1 = StreamSet(pages)
        k2 = StreamSet(pages, ids=10_000 + np.arange(len(pages)))
        host = HostAccess(pages=pages[host_pages], writes=host_writes)
        return [KernelPhase(streams=k1), KernelPhase(streams=k2, host_before=host)]

    return phases


def hot_remote(pages):
    """Eight streams re-reading the whole range eight times each."""
    n = len(pages)
    return [KernelPhase(streams=StreamSet(np.tile(pages, 64), np.full(8, 8 * n)))]


def _advise_cells() -> dict[str, Callable[[], RunResult]]:
    rm = MemAdvise.READ_MOSTLY
    return {
        "advise/pinned_host": lambda: touch_driver(MemAdvise.PINNED_HOST, None).run(),
        "advise/read_mostly_writes": lambda: touch_driver(rm, None, writes_frac=0.25).run(),
        "advise/read_mostly_host_reread": lambda: touch_driver(
            rm, _two_kernels(False, slice(None)), gpu_mib=8
        ).run(),
        "advise/read_mostly_host_writes": lambda: touch_driver(
            rm, _two_kernels(True, slice(0, 512)), gpu_mib=8
        ).run(),
        "advise/migrate_host_reread": lambda: touch_driver(
            None, _two_kernels(False, slice(0, 700))
        ).run(),
        "advise/counter_promotion": lambda: touch_driver(
            MemAdvise.PINNED_HOST,
            hot_remote,
            gpu_mib=8,
            driver_config=DriverConfig(counter_migration=True),
            track_counters=True,
            seed=2,
        ).run(),
    }


def cells() -> dict[str, Callable]:
    """Every cell of the matrix, by id.  A cell returns its
    :class:`RunResult`, or for a ``large/...`` cell the result and the
    driver that ran it."""
    out: dict[str, Callable] = {}
    for name in all_workload_names():
        for policy in ReplayPolicyKind:
            for prefetch in (True, False):
                cell_id = f"{name}/{policy.value}/{'pf' if prefetch else 'no_pf'}"
                out[cell_id] = _workload_cell(name, policy, prefetch)
    for preset in PRESETS:
        for name in PRESET_WORKLOADS:
            out[f"preset/{preset}/{name}"] = _preset_cell(preset, name)
    out.update(_advise_cells())
    out.update(_large_cells())
    return out


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _array_bytes(name: str, array: np.ndarray) -> bytes:
    return f"{name}:{array.dtype.str}:{array.shape}:".encode() + np.ascontiguousarray(array).tobytes()


def state_digest(driver: UvmDriver) -> str:
    """sha256 of a driver's final state: every residency array, both
    page tables' mapped bits and mapping stats, the PMA stats and the
    eviction policy's order."""
    state = driver.residency.page_arrays()
    arrays = {
        name: state[name]
        for name in (
            "resident", "writable", "duplicated", "remote_mapped", "dirty",
            "backed", "resident_count", "evict_count", "read_ok", "write_ok",
        )
    }
    arrays["gpu.mapped"] = mapped(driver.gpu_table)
    arrays["host.mapped"] = mapped(driver.host_table)
    stats = {
        "gpu": asdict(driver.gpu_table.stats),
        "host": asdict(driver.host_table.stats),
        "pma": asdict(driver.pma.stats),
        "lru_order": [int(vb) for vb in driver.lru.order()],
    }
    return _sha256(
        *(_array_bytes(name, a) for name, a in arrays.items()),
        json.dumps(stats, sort_keys=True).encode(),
    )


def trace_digests(result: RunResult) -> dict[str, str]:
    """sha256 of each array of a run's finalized trace, by field name."""
    trace = result.trace
    return {
        name: _sha256(_array_bytes(name, value))
        for name, value in vars(trace).items()
    }


def summarize(outcome) -> dict:
    """The pinned record of one cell (see :func:`cells`)."""
    result, driver = outcome if isinstance(outcome, tuple) else (outcome, None)
    full = {
        "counters": result.counters.as_dict(),
        "timer_ns": result.timer.as_dict(),
        "timer_counts": result.timer.counts_as_dict(),
        "dma": asdict(result.dma),
    }
    digest = hashlib.sha256(json.dumps(full, sort_keys=True).encode()).hexdigest()
    record = {
        "total_time_ns": result.total_time_ns,
        "gpu_phases": result.gpu_phases,
        "faults_read": result.faults_read,
        "faults_serviced": result.faults_serviced,
        "evictions": result.evictions,
        "sha256": digest,
    }
    if driver is not None:
        record["state_sha256"] = state_digest(driver)
        if result.trace.n_faults:
            record["trace_sha256"] = trace_digests(result)
    return record


def load() -> dict[str, dict]:
    return json.loads(FIXTURE.read_text())["cells"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args(argv)
    records = {cell_id: summarize(run()) for cell_id, run in cells().items()}
    if args.write:
        doc = {
            "description": (
                "Golden simulated results per cell; regenerate with "
                "`PYTHONPATH=src python -m tests.golden --write`."
            ),
            "cells": records,
        }
        FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cells to {FIXTURE}")
        return 0
    pinned = load()
    bad = sorted(k for k in records.keys() | pinned.keys() if records.get(k) != pinned.get(k))
    for cell_id in bad:
        print(f"{cell_id}: {records.get(cell_id)} != pinned {pinned.get(cell_id)}")
    print(f"{len(records) - len(bad)}/{len(records)} cells match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
